//! # rdi-joinsample
//!
//! Random sampling over joins (tutorial §3.4). The classic pitfall is that
//! sampling does **not** push through join —
//! `sample(R) ⋈ sample(S) ≠ sample(R ⋈ S)` — so this crate implements the
//! surveyed remedies, all from scratch:
//!
//! * [`index`] — the key→rows join index and frequency statistics the
//!   samplers need;
//! * [`naive`] — sample-then-join, kept as the *negative control* whose
//!   output is provably biased toward high-multiplicity keys;
//! * [`olken`] — Olken-style accept-reject sampling and the
//!   Chaudhuri et al. weighted variant, both yielding **uniform and
//!   independent** samples of `R ⋈ S`;
//! * [`ripple`] — ripple join online aggregation (uniform prefixes,
//!   non-independent samples, anytime estimates);
//! * [`wander`] — wander join over multi-table chain joins (independent,
//!   non-uniform samples reweighted by Horvitz–Thompson);
//! * [`exact_chain`] — the generalized framework of Zhao et al. (SIGMOD
//!   2018) instantiated with exact suffix weights: rejection-free,
//!   exactly uniform chain-join sampling;
//! * [`mod@union_sample`] — uniform sampling over source *unions* (§5
//!   "Uniform Sampling over Data Lakes"): size-weighted source picks and
//!   one-pass reservoir sampling for unknown-size streams;
//! * [`estimator`] — COUNT/SUM/AVG estimators with normal-approximation
//!   confidence intervals.
//!
//! ```
//! use rand::SeedableRng;
//! use rdi_joinsample::{chaudhuri_sample, JoinIndex};
//! use rdi_table::{Schema, Field, DataType, Table, Value};
//!
//! let schema = Schema::new(vec![Field::new("k", DataType::Int)]);
//! let mut left = Table::new(schema.clone());
//! let mut right = Table::new(schema);
//! for k in 0..100i64 {
//!     left.push_row(vec![Value::Int(k)]).unwrap();
//!     for _ in 0..(k % 5) { right.push_row(vec![Value::Int(k)]).unwrap(); }
//! }
//! let idx = JoinIndex::build(&right, "k").unwrap();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! // 50 uniform, independent samples of left ⋈ right — no join materialized
//! let samples = chaudhuri_sample(&left, "k", &idx, 50, &mut rng).unwrap();
//! assert_eq!(samples.len(), 50);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod estimator;
pub mod exact_chain;
pub mod index;
mod metrics;
pub mod naive;
pub mod olken;
pub mod ripple;
pub mod union_sample;
pub mod wander;

pub use estimator::{quantile_estimate, AqpEstimate};
pub use exact_chain::ExactChainSampler;
pub use index::JoinIndex;
pub use naive::sample_then_join;
pub use olken::{chaudhuri_sample, olken_sample, olken_sample_par, JoinSample};
pub use ripple::RippleJoin;
pub use union_sample::{union_sample, ReservoirSampler};
pub use wander::{WanderJoin, WanderPath};
