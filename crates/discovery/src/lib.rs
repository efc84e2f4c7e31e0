//! # rdi-discovery
//!
//! Dataset and feature discovery over data lakes (tutorial §3.1), built
//! from scratch:
//!
//! * [`hash`] — the splittable 64-bit hashing primitives every sketch uses;
//! * [`minhash`] — MinHash signatures and Jaccard estimation;
//! * [`lsh`] — banded MinHash-LSH index for Jaccard threshold queries;
//! * [`ensemble`] — **LSH Ensemble** (Zhu et al., VLDB 2016):
//!   containment-threshold search by size-partitioning the candidates;
//! * [`keyword`] — BM25 keyword search over table names/columns/content
//!   (the IR-style search modality of §3.1);
//! * [`kmv`] — KMV distinct-count sketches and **correlation sketches**
//!   (Santos et al., SIGMOD 2021) for approximate join-correlation
//!   queries;
//! * [`overlap`] — exact set-overlap search via an inverted index
//!   (JOSIE-style top-k joinability);
//! * [`union_search`] — table union search: attribute and table
//!   unionability scores (Nargesian et al., VLDB 2018);
//! * [`navigate`] — RONIN-style lake organization: agglomerative
//!   unionability hierarchy with medoid-guided navigation;
//! * [`schema_match`] — name + instance schema matching and table
//!   alignment, so heterogeneous sources can feed one tailoring run;
//! * [`feature`] — *unbiased feature discovery* (tutorial §5): rank
//!   joinable features by correlation with the target **and** independence
//!   from sensitive attributes.

//!
//! ```
//! use rdi_discovery::MinHash;
//! use rdi_table::Value;
//!
//! let a: Vec<Value> = (0..100).map(|i| Value::str(format!("v{i}"))).collect();
//! let b: Vec<Value> = (50..150).map(|i| Value::str(format!("v{i}"))).collect();
//! let sa = MinHash::from_values(a.iter(), 256);
//! let sb = MinHash::from_values(b.iter(), 256);
//! // true Jaccard is 50/150 = 1/3; the sketch estimate is close
//! assert!((sa.jaccard(&sb) - 1.0 / 3.0).abs() < 0.1);
//! ```
#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ensemble;
pub mod feature;
pub mod hash;
pub mod keyword;
pub mod kmv;
pub mod lsh;
mod metrics;
pub mod minhash;
pub mod navigate;
pub mod overlap;
pub mod schema_match;
pub mod union_search;

pub use ensemble::LshEnsemble;
pub use feature::{discover_features, discover_features_with, FeatureCandidate, FeatureQuery};
pub use keyword::KeywordIndex;
pub use kmv::{CorrelationSketch, KmvSketch, UpdatableKmv};
pub use lsh::MinHashLsh;
pub use minhash::{MinHash, UpdatableMinHash};
pub use navigate::{symmetric_unionability, Navigator};
pub use overlap::OverlapIndex;
pub use schema_match::{align_table, match_schemas, ColumnMatch};
pub use union_search::{
    column_matching, column_matching_indices, rank_scored, table_unionability, ColumnMatcher,
    TableSignature, UnionSearchIndex,
};
