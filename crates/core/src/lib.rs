//! # rdi-core
//!
//! The tutorial's actual contribution — the **requirements of responsible
//! AI data** (§2) — made executable:
//!
//! * [`requirement`] — the five next-generation requirements as typed,
//!   parameterized specifications;
//! * [`mod@audit`] — evaluate a dataset against a specification and produce
//!   an evidence-carrying [`audit::AuditReport`];
//! * [`pipeline`] — an end-to-end responsible integration pipeline
//!   (tailor from sources → clean → label → audit) with a provenance log
//!   satisfying *Scope-of-use Augmentation* (§2.5).
//!
//! ## Example
//!
//! ```
//! use rdi_core::prelude::*;
//! use rdi_table::{Schema, Field, DataType, Role, Table, Value};
//!
//! let schema = Schema::new(vec![
//!     Field::new("race", DataType::Str).with_role(Role::Sensitive),
//!     Field::new("y", DataType::Bool).with_role(Role::Target),
//! ]);
//! let mut t = Table::new(schema);
//! for i in 0..100 {
//!     t.push_row(vec![
//!         Value::str(if i % 2 == 0 { "a" } else { "b" }),
//!         Value::Bool(i % 3 == 0),
//!     ]).unwrap();
//! }
//! let spec = RequirementSpec::default_for(&t).unwrap();
//! let report = audit(&t, &spec).unwrap();
//! assert!(report.passed());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod audit;
pub mod builder;
pub mod executor;
mod metrics;
pub mod pipeline;
pub mod requirement;

/// One-stop imports.
pub mod prelude {
    pub use crate::audit::{audit, AuditReport, Finding};
    pub use crate::builder::{BuiltPipeline, PipelineBuilder};
    pub use crate::executor::{run_resilient, Quarantine, ResilientOutcome, SourceHealth};
    pub use crate::pipeline::{Pipeline, PipelineError, PipelineResult};
    pub use crate::requirement::{Requirement, RequirementSpec};
    pub use rdi_fault::ResilienceConfig;
    pub use rdi_obs::ProvenanceEvent;
    pub use rdi_policy::{PolicyId, PolicyParams, PolicySet};
}

pub use audit::{audit, AuditReport, Finding};
pub use builder::{BuiltPipeline, PipelineBuilder};
pub use executor::{run_resilient, Quarantine, ResilientOutcome, SourceHealth};
pub use pipeline::{Pipeline, PipelineError, PipelineResult};
pub use requirement::{Requirement, RequirementSpec};
