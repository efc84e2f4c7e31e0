//! # rdi-fairness
//!
//! Statistical machinery shared by the responsibility-aware components of
//! the RDI toolkit (tutorial §2):
//!
//! * [`distribution`] — discrete categorical distributions with smoothing
//!   and sampling;
//! * [`divergence`] — KL, Jensen–Shannon, total variation, χ², Hellinger,
//!   and 1-D earth mover's distance, used to test the *Underlying
//!   Distribution Representation* requirement (§2.1);
//! * [`association`] — Pearson/Spearman correlation, Cramér's V, and
//!   binned mutual information, used to find *Unbiased and Informative
//!   Features* (§2.3);
//! * [`metrics`] — group fairness metrics over prediction outcomes
//!   (demographic parity, equalized odds, per-group accuracy) and over
//!   query outputs (selection-rate disparity);
//! * [`debias`] — Themis-style post-stratification: weighted aggregates
//!   that answer queries about the *population* from a biased sample
//!   (tutorial §5, "fairness-aware query answering");
//! * [`tests_stat`] — χ² independence testing with p-values, so audits
//!   flag only statistically supported dependencies.

//!
//! ```
//! use rdi_fairness::{Categorical, kl_divergence, total_variation};
//!
//! let collected = Categorical::from_counts(&[90, 10]);
//! let population = Categorical::from_weights(&[0.5, 0.5]);
//! assert!(total_variation(&collected, &population) > 0.39);
//! assert!(kl_divergence(&population, &collected) > 0.3);
//! ```
#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod association;
pub mod debias;
pub mod distribution;
pub mod divergence;
pub mod metrics;
pub mod tests_stat;

pub use association::{cramers_v, mutual_information, pearson, spearman, table_association};
pub use debias::{post_stratification_weights, DebiasedView};
pub use distribution::Categorical;
pub use divergence::{
    chi_square, emd_1d, hellinger, js_divergence, kl_divergence, total_variation,
};
pub use metrics::{
    demographic_parity_difference, disparity, equalized_odds_difference, group_accuracy,
    GroupOutcomes,
};
pub use tests_stat::{chi2_sf, chi_square_test, ChiSquareTest};
