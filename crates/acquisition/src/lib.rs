//! # rdi-acquisition
//!
//! Data acquisition for accurate **and fair** models (tutorial §3.1,
//! §4.2):
//!
//! * [`ml`] — the from-scratch model substrate (logistic regression via
//!   SGD, Gaussian naive Bayes) with per-group evaluation;
//! * [`curve`] — power-law learning-curve fitting `loss(n) ≈ b·n^{-a}`;
//! * [`slicefinder`] — problematic-slice discovery: which 1–2 attribute
//!   slices does the model fail on (the "what data to buy" question);
//! * [`slicetuner`] — Slice Tuner-style selective acquisition (Tae &
//!   Whang, SIGMOD 2021): estimate per-slice learning curves, then
//!   allocate an acquisition budget to minimize total loss *and*
//!   cross-slice unfairness;
//! * [`fairprep`] — FairPrep-style (intervention × model) evaluation
//!   grids over train/test splits (Schelter et al., EDBT 2020);
//! * [`market`] — data-market acquisition (Li, Yu, Koudas, VLDB 2021):
//!   a consumer with a budget issues predicate queries against a
//!   provider's hidden pool, trading exploration (learning the pool's
//!   distribution) against exploitation (querying the most novel slices).

//!
//! ```
//! use rdi_acquisition::{allocate_budget, LearningCurve, SliceState};
//!
//! let slices = vec![
//!     SliceState { name: "starved".into(), current: 50,
//!                  curve: LearningCurve { a: 0.5, b: 3.0 } },
//!     SliceState { name: "saturated".into(), current: 50_000,
//!                  curve: LearningCurve { a: 0.5, b: 3.0 } },
//! ];
//! let alloc = allocate_budget(&slices, 1_000, 100, 0.0);
//! assert!(alloc[0] > alloc[1]); // budget flows to the starved slice
//! ```
#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![allow(
    clippy::disallowed_types,
    reason = "the slice finder tallies slices in a hash map and sorts them before ranking"
)]

pub mod curve;
pub mod fairprep;
pub mod market;
pub mod ml;
pub mod slicefinder;
pub mod slicetuner;

pub use curve::LearningCurve;
pub use fairprep::{grid_to_markdown, run_grid, GridResult, ModelKind};
pub use market::{acquire_from_market, AcquisitionStrategy, MarketProvider};
pub use ml::{GaussianNb, LogisticRegression, ModelEval};
pub use slicefinder::{find_problem_slices, Slice};
pub use slicetuner::{allocate_budget, SliceState, SliceTuner};
