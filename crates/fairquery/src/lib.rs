//! # rdi-fairquery
//!
//! Fairness-aware query answering (tutorial §5, after Shetiya, Swift,
//! Asudeh, Das; ICDE 2022).
//!
//! A user's range filter (`WHERE 30 ≤ age ≤ 45`) can return a badly
//! group-imbalanced result even over balanced data. When the user is
//! flexible about the exact endpoints, the system can propose *the most
//! similar range whose output disparity is bounded*:
//!
//! * [`range_query`] — the 1-D engine: sorted projection + per-group
//!   prefix counts, disparity and similarity in O(1) per candidate range,
//!   exact search over all candidate endpoint pairs, and a fast
//!   expand/contract heuristic for ablation;
//! * [`range2d`] — the two-attribute generalization: quantile-quantized
//!   endpoint grids with 2-D prefix sums, exact over the quantized
//!   candidate boxes;
//! * [`relax`] — coverage-based query relaxation (Accinelli et al.):
//!   minimally widen a range until every group reaches a minimum count.
//!
//! ```
//! use rdi_fairquery::RangeQueryEngine;
//!
//! // group A clusters low, group B high — a low range is all-A
//! let pts: Vec<(f64, bool)> = (0..100).map(|i| (i as f64, i < 50)).collect();
//! let engine = RangeQueryEngine::from_points(pts);
//! assert_eq!(engine.disparity(0.0, 39.0), 40);
//! let fair = engine.fair_range_exact(0.0, 39.0, 0);
//! assert_eq!(fair.disparity, 0);
//! assert!(fair.hi >= 50.0); // the fair range must straddle the boundary
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod range2d;
pub mod range_query;
pub mod relax;

pub use range2d::{FairBox, RangeQuery2d};
pub use range_query::{FairRange, RangeQueryEngine};
pub use relax::{relax_for_coverage, relax_for_coverage_explained};
