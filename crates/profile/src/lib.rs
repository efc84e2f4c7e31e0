//! # rdi-profile
//!
//! Profiling for the *Scope-of-use Augmentation* requirement (tutorial
//! §2.5, §3.2): machine- and human-readable summaries of what a data set
//! is and is not fit for.
//!
//! * [`stats`] — per-column profiles (classic data profiling);
//! * [`fd`] — approximate functional-dependency checking (used to flag
//!   `sensitive → target` dependencies);
//! * [`rules`] — single-antecedent association rules (the "rules to
//!   capture bias" widget);
//! * [`label`] — **nutritional labels** in the MithraLabel style (Sun et
//!   al., CIKM 2019): correlation widgets, parity widgets, MUP widgets,
//!   diversity, and auto-generated fitness warnings, rendered to markdown
//!   or JSON;
//! * [`datasheet`] — **Datasheets for Datasets** (Gebru et al., CACM
//!   2021): the standard question template with structured answers.

//!
//! ```
//! use rdi_profile::{NutritionalLabel, LabelConfig};
//! use rdi_table::{Schema, Field, DataType, Role, Table, Value};
//!
//! let schema = Schema::new(vec![
//!     Field::new("race", DataType::Str).with_role(Role::Sensitive),
//! ]);
//! let mut t = Table::new(schema);
//! for i in 0..100 {
//!     t.push_row(vec![Value::str(if i < 95 { "w" } else { "b" })]).unwrap();
//! }
//! let label = NutritionalLabel::generate(&t, &LabelConfig::default()).unwrap();
//! assert!(label.representation_disparity > 0.8); // 95/5 split
//! assert!(label.to_markdown().contains("Group representation"));
//! ```
#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![allow(
    clippy::disallowed_types,
    reason = "profiling tallies integer counts in hash maps and sorts what it reports"
)]

pub mod datasheet;
pub mod fd;
pub mod label;
pub mod rules;
pub mod stats;

pub use datasheet::Datasheet;
pub use fd::fd_violation_rate;
pub use label::{LabelConfig, NutritionalLabel};
pub use rules::{mine_rules, AssociationRule};
pub use stats::{profile_column, ColumnProfile};

/// A JSON object with `members` in the given order — the shape a named
/// struct takes in the label and datasheet JSON.
fn json_object<const N: usize>(members: [(&str, serde::Json); N]) -> serde::Json {
    serde::Json::Obj(
        members
            .into_iter()
            .map(|(name, value)| (name.to_string(), value))
            .collect(),
    )
}
