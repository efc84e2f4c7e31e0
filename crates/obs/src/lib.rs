//! # rdi-obs
//!
//! Observability for the RDI toolkit (§2.5 transparency, RAIDS-style
//! introspectable infrastructure): a zero-dependency layer — std plus the
//! workspace's offline compat crates only — giving every pipeline stage
//!
//! * a [`MetricsRegistry`] of named [`Counter`]s, [`Gauge`]s, and
//!   fixed-bucket [`Histogram`]s,
//! * lightweight [`span()`] timers (RAII guards with explicit
//!   parent/child nesting tracked per thread), and
//! * a typed [`ProvenanceEvent`] log whose [`ProvenanceEvent::render`]
//!   output preserves the human-readable provenance lines the pipeline
//!   has always shipped.
//!
//! # Determinism contract
//!
//! Counter increments are integer additions on atomics — commutative and
//! associative — so as long as call sites increment by amounts that are
//! a function of the *work* (items sketched, nodes counted, draws made)
//! and not of the schedule, total counts are **bitwise identical for any
//! `RDI_THREADS`**. The instrumented kernels in `rdi-discovery`,
//! `rdi-coverage`, `rdi-joinsample`, `rdi-tailor`, and `rdi-par` all
//! follow that rule (verified by property tests). Histogram *bucket
//! counts* carry the same guarantee, and so do span durations under the
//! fake clock (`RDI_FAKE_CLOCK=1`: tick counts, see
//! [`MetricsRegistry::with_fake_clock`]); histogram float `sum`s, wall
//! span timings, and gauges (last-write-wins) do not.
//!
//! # Metric naming
//!
//! `<layer>.<metric>` in `snake_case`: `coverage.nodes_evaluated`,
//! `joinsample.olken_attempts`, `par.tasks_dispatched`, … The snapshot
//! ([`MetricsRegistry::snapshot_json`]) sorts names, so emitted JSON is
//! stable for diffing.

#![warn(missing_docs)]

mod metrics;
mod names;
mod provenance;
mod span;

pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry};
pub use names::METRIC_NAMES;
pub use provenance::{push_decimal, ProvenanceEvent, ProvenanceLog};
pub use span::{span_stack, with_span_stack, SpanGuard, SpanRecord, SpanStack};

use std::sync::Arc;
use std::sync::OnceLock;

/// The process-wide default registry. Library instrumentation records
/// here; experiment binaries snapshot it on exit.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// Counter `name` in the [`global`] registry.
pub fn counter(name: &str) -> Arc<Counter> {
    global().counter(name)
}

/// Gauge `name` in the [`global`] registry.
pub fn gauge(name: &str) -> Arc<Gauge> {
    global().gauge(name)
}

/// Histogram `name` in the [`global`] registry (see
/// [`MetricsRegistry::histogram`] for bucket semantics).
pub fn histogram(name: &str, bounds: &[f64]) -> Arc<Histogram> {
    global().histogram(name, bounds)
}

/// Open a timing span on the [`global`] registry; the returned guard
/// records on drop. Nested calls on the same thread record
/// slash-separated paths (`parent/child`).
pub fn span(name: &str) -> SpanGuard<'static> {
    global().span(name)
}
