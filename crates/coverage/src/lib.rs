//! # rdi-coverage
//!
//! Coverage analysis for the *Group Representation* requirement (tutorial
//! §2.2), reproducing the core of "Assessing and Remedying Coverage for a
//! Given Dataset" (Asudeh, Jin, Jagadish; ICDE 2019) and its
//! continuous-attribute follow-up (SIGMOD 2021):
//!
//! * [`pattern`] — patterns over categorical attributes and the pattern
//!   lattice;
//! * [`counter`] — pattern match counting backed by a value-combination
//!   index;
//! * [`mup`] — **maximal uncovered pattern** (MUP) discovery: the
//!   Pattern-Breaker style level-wise algorithm with dominance pruning,
//!   and a naive full-lattice baseline for ablation;
//! * [`remedy`] — minimum-addition coverage remediation (greedy
//!   set-cover style);
//! * [`continuous`] — neighborhood coverage for ordinal/continuous
//!   attributes via a k-d tree.
//!
//! ## Example
//!
//! ```
//! use rdi_table::{Schema, Field, DataType, Table, Value};
//! use rdi_coverage::{CoverageAnalyzer};
//!
//! let schema = Schema::new(vec![
//!     Field::new("gender", DataType::Str),
//!     Field::new("race", DataType::Str),
//! ]);
//! let mut t = Table::new(schema);
//! for (g, r) in [("M", "white"), ("M", "black"), ("F", "white")] {
//!     t.push_row(vec![Value::str(g), Value::str(r)]).unwrap();
//! }
//! let analyzer = CoverageAnalyzer::new(&t, &["gender", "race"], 1).unwrap();
//! let mups = analyzer.maximal_uncovered_patterns();
//! // {gender: F, race: black} has no samples → it is the single MUP
//! assert_eq!(mups.len(), 1);
//! assert_eq!(analyzer.describe(&mups[0]), "gender=F, race=black");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod continuous;
pub mod counter;
mod metrics;
pub mod mup;
pub mod pattern;
pub mod remedy;

pub use continuous::{KdTree, NeighborhoodCoverage};
pub use counter::PatternCounter;
pub use mup::CoverageAnalyzer;
pub use pattern::Pattern;
pub use remedy::{remedy_greedy, remedy_to_fixpoint, RemedyError};
