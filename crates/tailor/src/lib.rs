//! # rdi-tailor
//!
//! **Data Distribution Tailoring** (DT): integrate data from multiple
//! cost-annotated sources, each with its own group skew, until a target
//! group-count requirement is met, minimizing expected total cost —
//! reproducing "Tailoring Data Source Distributions for Fairness-aware
//! Data Integration" (Nargesian, Asudeh, Jagadish; VLDB 2021) as surveyed
//! in tutorial §4.2.
//!
//! The crate separates:
//!
//! * [`problem`] — the query: target groups and count requirements
//!   (exact minimums plus §5 count *ranges*);
//! * [`marginal`] — the §5 per-attribute **marginal** requirement
//!   extension, where one tuple credits several requirements at once;
//! * [`source`] — cost-annotated sources that yield random tuples:
//!   the fallible [`source::Source`] trait (`try_draw` with a typed
//!   [`source::SourceError`] failure taxonomy) and
//!   [`source::TableSource`], which samples
//!   a backing table with replacement, matching the paper's "query an
//!   API, get a random record" model and never fails;
//! * [`policy`] — source-selection policies: the known-distribution
//!   [`policy::RatioColl`] heuristic and exact [`policy::OracleDp`]
//!   dynamic program, the unknown-distribution [`policy::UcbColl`]
//!   explore/exploit bandit, and [`policy::RandomPolicy`] /
//!   [`policy::RoundRobin`] baselines;
//! * [`runner`] — the one draw loop ([`runner::run_draw_loop`]) that
//!   drives a policy against sources until the requirement is satisfied
//!   and reports cost, with the fault-free [`runner::run_tailoring`] and
//!   overlap-aware [`runner::run_tailoring_dedup`] drivers over it.
//!
//! ## Example
//!
//! ```
//! use rand::SeedableRng;
//! use rdi_tailor::prelude::*;
//! use rdi_table::{Schema, Field, DataType, Role, Table, Value};
//!
//! // One source rich in group "a", one rich in "b".
//! let schema = Schema::new(vec![Field::new("g", DataType::Str).with_role(Role::Sensitive)]);
//! let mut mk = |rich: &str, poor: &str| {
//!     let mut t = Table::new(schema.clone());
//!     for i in 0..100 {
//!         t.push_row(vec![Value::str(if i % 10 == 0 { poor } else { rich })]).unwrap();
//!     }
//!     t
//! };
//! let problem = DtProblem::exact_counts(
//!     GroupSpec::new(vec!["g"]),
//!     vec![
//!         (GroupKey(vec![Value::str("a")]), 5),
//!         (GroupKey(vec![Value::str("b")]), 5),
//!     ],
//! );
//! let mut sources = vec![
//!     TableSource::new("s0", mk("a", "b"), 1.0, &problem).unwrap(),
//!     TableSource::new("s1", mk("b", "a"), 1.0, &problem).unwrap(),
//! ];
//! let mut policy = RatioColl::from_sources(&sources);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let outcome = run_tailoring(&mut sources, &problem, &mut policy, &mut rng, 10_000).unwrap();
//! assert!(outcome.satisfied);
//! assert_eq!(outcome.collected.num_rows(), 10);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod marginal;
mod metrics;
pub mod policy;
pub mod problem;
pub mod runner;
pub mod source;

/// One-stop imports for typical use.
pub mod prelude {
    pub use crate::policy::{
        EpsilonGreedy, OracleDp, Policy, RandomPolicy, RatioColl, RoundRobin, UcbColl,
    };
    pub use crate::problem::{CountRequirement, DtProblem};
    pub use crate::runner::{run_tailoring, run_tailoring_dedup, TailorOutcome};
    pub use crate::source::{Draw, Source, SourceError, TableSource};
    pub use rdi_table::{GroupKey, GroupSpec};
}

pub use marginal::{run_marginal_tailoring, MarginalOutcome, MarginalProblem, MarginalSource};
pub use policy::{EpsilonGreedy, OracleDp, Policy, RandomPolicy, RatioColl, RoundRobin, UcbColl};
pub use problem::{CountRequirement, DtProblem};
pub use runner::{run_draw_loop, run_tailoring, run_tailoring_dedup, DrawStep, TailorOutcome};
pub use source::{Draw, Source, SourceError, TableSource};
