//! # rdi-cleaning
//!
//! Data cleaning with fairness auditing (tutorial §2.4, §3.3, §5):
//!
//! * [`mod@impute`] — missing-value strategies (drop, global mean,
//!   group-conditional mean, k-NN hot-deck);
//! * [`parity`] — **imputation accuracy parity** (Zhang & Long, NeurIPS
//!   2021): does an imputation method err more for some groups?
//! * [`bias_amp`] — the tutorial's §2.4 observation made executable:
//!   errors and missingness hurt small groups' aggregates more;
//! * [`repair`] — rule-based error detection and repair (range and
//!   σ-outlier rules);
//! * [`er`] — blocking-based entity resolution with a per-group quality
//!   audit (biased linkage is a §5 opportunity);
//! * [`interventional`] — simplified causal repair (Salimi et al.,
//!   SIGMOD 2019): make the target conditionally independent of the
//!   sensitive attributes given admissible ones.

//!
//! ```
//! use rdi_cleaning::{impute, ImputeStrategy};
//! use rdi_table::{Schema, Field, DataType, Role, GroupSpec, Table, Value};
//!
//! let schema = Schema::new(vec![
//!     Field::new("g", DataType::Str).with_role(Role::Sensitive),
//!     Field::new("x", DataType::Float),
//! ]);
//! let mut t = Table::new(schema);
//! t.push_row(vec![Value::str("a"), Value::Float(1.0)]).unwrap();
//! t.push_row(vec![Value::str("a"), Value::Null]).unwrap();
//! t.push_row(vec![Value::str("b"), Value::Float(100.0)]).unwrap();
//! let fixed = impute(&t, "x", &ImputeStrategy::GroupMean(GroupSpec::new(vec!["g"]))).unwrap();
//! // the missing group-a cell gets group a's mean, not the global mean
//! assert_eq!(fixed.value(1, "x").unwrap().as_f64().unwrap(), 1.0);
//! ```
#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bias_amp;
pub mod er;
pub mod impute;
pub mod interventional;
pub mod parity;
pub mod repair;

pub use bias_amp::{group_aggregate_error, AggregateErrorReport};
pub use er::{
    audit_er, bigram_jaccard, cluster_entities, deduplicate, resolve_entities, ErAudit, ErConfig,
};
pub use impute::{impute, ImputeStrategy};
pub use interventional::{repair_conditional_independence, RepairReport};
pub use parity::{imputation_parity, ParityReport};
pub use repair::{detect_outliers, repair_with_rule, Rule};
