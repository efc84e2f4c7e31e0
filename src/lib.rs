//! # responsible-data-integration
//!
//! Umbrella crate for the Responsible Data Integration (RDI) toolkit — a
//! from-scratch Rust implementation of the techniques surveyed in
//! *"Responsible Data Integration: Next-generation Challenges"*
//! (Nargesian, Asudeh, Jagadish; SIGMOD 2022).
//!
//! Each sub-crate is re-exported under a short module name:
//!
//! | module | crate | what it does |
//! |---|---|---|
//! | [`table`] | `rdi-table` | typed columnar tables, predicates, joins, CSV |
//! | [`datagen`] | `rdi-datagen` | synthetic populations, sources, missingness, data lakes |
//! | [`fairness`] | `rdi-fairness` | divergences, association & fairness metrics |
//! | [`coverage`] | `rdi-coverage` | MUP discovery & coverage remediation (§2.2) |
//! | [`tailor`] | `rdi-tailor` | data distribution tailoring (§4.2) |
//! | [`fault`] | `rdi-fault` | deterministic fault injection & resilience primitives |
//! | [`joinsample`] | `rdi-joinsample` | uniform/independent sampling over joins (§3.4) |
//! | [`discovery`] | `rdi-discovery` | dataset & feature discovery sketches (§3.1) |
//! | [`profile`] | `rdi-profile` | nutritional labels & datasheets (§3.2) |
//! | [`cleaning`] | `rdi-cleaning` | imputation, error repair, ER, fairness audits (§3.3) |
//! | [`acquisition`] | `rdi-acquisition` | slice-aware & market data acquisition |
//! | [`entitycollect`] | `rdi-entitycollect` | distribution-aware crowd entity collection (§4.1) |
//! | [`fairquery`] | `rdi-fairquery` | fairness-aware range queries (§5) |
//! | [`core`] | `rdi-core` | the §2 requirements framework, audits, pipeline |
//! | [`serve`] | `rdi-serve` | batched, cache-backed query serving over a lake index |
//! | [`actor`] | `rdi-actor` | deterministic actor runtime (typed mailboxes, seeded virtual-time scheduler, replayable event log) |
//! | [`obs`] | `rdi-obs` | metrics registry, span timers, typed provenance |
//!
//! For everyday use, `use responsible_data_integration::prelude::*;`
//! pulls in the common vocabulary: tables and schemas, the tailoring
//! problem/policies/sources, the [`core::PipelineBuilder`] entry point,
//! synthetic data generators, and the serving layer.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

#[allow(
    clippy::disallowed_types,
    reason = "parsed flags are looked up by name, never iterated"
)]
pub mod cli;

/// One-stop imports for examples, experiments, and downstream binaries.
///
/// Brings in the common vocabulary across the toolkit: typed tables
/// ([`table::Table`], [`table::Schema`], …), the distribution-tailoring
/// problem and policies (`DtProblem`, `TableSource`, `RatioColl`, …),
/// the consolidated [`core::PipelineBuilder`] pipeline entry point with
/// its audit/requirement types, synthetic data generators, nutritional
/// labels, the `rdi-serve` serving layer, and the compat `rand`
/// RNG types.
pub mod prelude {
    pub use rand::rngs::StdRng;
    pub use rand::{Rng, SeedableRng};
    pub use rdi_core::prelude::*;
    pub use rdi_datagen::{
        skewed_sources, LakeConfig, PopulationSpec, SourceConfig, SyntheticLake,
    };
    pub use rdi_policy::{
        Candidate, PolicyId, PolicyParams, PolicySet, RankByScore, Score, SelectionDecision,
        SelectionPolicy,
    };
    pub use rdi_profile::{LabelConfig, NutritionalLabel};
    pub use rdi_serve::{
        BatchReport, LakeIndex, LakeIndexConfig, ServeError, ServeRequest, ServeResponse,
        ServeSession, SessionConfig,
    };
    pub use rdi_table::{DataType, Field, GroupKey, GroupSpec, Role, Schema, Table, Value};
    pub use rdi_tailor::prelude::*;
}

pub use rdi_acquisition as acquisition;
pub use rdi_actor as actor;
pub use rdi_cleaning as cleaning;
pub use rdi_core as core;
pub use rdi_coverage as coverage;
pub use rdi_datagen as datagen;
pub use rdi_discovery as discovery;
pub use rdi_entitycollect as entitycollect;
pub use rdi_fairness as fairness;
pub use rdi_fairquery as fairquery;
pub use rdi_fault as fault;
pub use rdi_joinsample as joinsample;
pub use rdi_obs as obs;
pub use rdi_policy as policy;
pub use rdi_profile as profile;
pub use rdi_serve as serve;
pub use rdi_table as table;
pub use rdi_tailor as tailor;
