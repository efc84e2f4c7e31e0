//! # rdi-serve
//!
//! An in-process, deterministic query-serving subsystem for the RDI
//! toolkit — the layer a long-lived service sits behind when dataset
//! discovery and coverage-aware acquisition become *repeated
//! interactive queries over a persistent lake* (tutorial §3.1–§3.2)
//! rather than one-shot experiment runs.
//!
//! * [`LakeIndex`] owns registered tables behind a fixed number of
//!   **shards** (`hash(table id) % shard_count`, a pure function of
//!   the id bytes). Each table keeps its own maintained sketch store,
//!   read directly by union and join requests, so the sketches that
//!   every `exp_*` harness used to rebuild from scratch are built once
//!   and amortized across queries. Ad-hoc query sketches go through
//!   per-shard memoized caches ([`SketchCache`]) keyed by
//!   `(query content fingerprint, sketch kind)` and evicted LRU, each
//!   against its slice of the global byte budget. Registered tables
//!   carry no fingerprint: replacing one with content equal to the old
//!   (`Table ==`, which compares float cells bit for bit) keeps its
//!   store, and any other replacement starts an empty one.
//! * [`LakeIndex::apply_delta`] absorbs `rdi_table::TableDelta`
//!   append/delete/drop streams with sketch work proportional to the
//!   **delta, not the table**: maintained updatable sketches extend
//!   value by value and shrink exactly on deletes, and deletion debt
//!   past `LakeIndexConfig::deletion_debt_threshold` triggers one
//!   counted rebuild (`sketch.rebuilds`) — a cost policy only: answers
//!   stay bitwise identical to cold rebuilds throughout.
//! * [`ServeSession`] answers batches of typed requests
//!   ([`ServeRequest`]: union top-k, joinability top-k, coverage
//!   probes, tailoring runs) through a multi-tenant fairness-aware
//!   admission layer ([`Admitter`]): per-tenant deterministic token
//!   buckets, weighted queue shares with priority aging, and
//!   per-tenant `rdi-fault` circuit breakers, degrading to **partial
//!   batch results** instead of panicking — one tenant's flood or
//!   poison traffic never starves or sheds another's.
//! * Batches execute their plans in place, one after another, with
//!   one RNG stream per request (`stream_seed(session seed, arrival
//!   index)`), so a batch is
//!   bitwise identical to serial one-at-a-time execution for any
//!   `RDI_THREADS` — and a warm replay of the same stream is bitwise
//!   identical to the cold run while building zero new sketches.
//! * Everything reports through `rdi-obs` under `serve.*`: cache
//!   hits/misses/evictions and bytes, maintained-store bytes, batch
//!   sizes, queue depths, shed and degraded request counts, breaker
//!   trips.
//!
//! ## Example
//!
//! ```
//! use rdi_serve::{LakeIndex, ServeRequest, ServeSession, SessionConfig};
//! use rdi_table::{DataType, Field, Schema, Table, Value};
//!
//! let mut t = Table::new(Schema::new(vec![Field::new("key", DataType::Str)]));
//! t.push_row(vec![Value::str("a")]).unwrap();
//! let mut index = LakeIndex::default();
//! index.register("t", t.clone(), 1.0).unwrap();
//!
//! let mut session = ServeSession::new(index, SessionConfig::default());
//! let report = session.submit_batch(&[ServeRequest::UnionTopK { query: t, k: 1 }]);
//! assert!(report.responses[0].is_ok());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod actors;
pub mod admit;
mod batch;
pub mod cache;
pub mod error;
pub mod index;
mod maint;
mod metrics;
pub mod request;
pub mod session;

pub use actors::{LakeActorGroup, MaintActor, MaintMsg, SessionActor, SessionMsg, ShardActor};
pub use admit::{AdmitConfig, AdmitVerdict, Admitter, TaggedRequest, TenantId, TenantPolicy};
pub use cache::{CacheKey, KeyProfile, Sketch, SketchCache, SketchKind};
pub use error::ServeError;
pub use index::{LakeIndex, LakeIndexConfig};
pub use request::{render_answer, CoverageReport, ServeRequest, ServeResponse, TailorReport};
pub use session::{BatchReport, ServeSession, SessionConfig};
