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
//!
//! Each library crate declares its names once, in a private `metrics`
//! module of lazily resolved handles (and `format!`-built families as
//! one accessor each); every other call site uses those handles. The
//! `--lib` clippy configuration (`ci/clippy-lib/clippy.toml`) bans
//! [`counter()`], [`gauge()`], [`histogram()`] and their
//! [`MetricsRegistry`] methods in library code, and each `metrics`
//! module opts out with a reasoned `#[allow]`. Its items are private,
//! so a handle nobody uses fails the build as `dead_code`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![allow(
    clippy::disallowed_types,
    reason = "spans read the wall clock; the fake clock replaces it wherever output must replay"
)]

mod metrics;
mod provenance;
mod span;

pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry};
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
#[allow(
    clippy::disallowed_methods,
    reason = "the banned wrapper itself: library code reaches it only from a crate's metrics module"
)]
pub fn counter(name: &str) -> Arc<Counter> {
    global().counter(name)
}

/// Gauge `name` in the [`global`] registry.
#[allow(
    clippy::disallowed_methods,
    reason = "the banned wrapper itself: library code reaches it only from a crate's metrics module"
)]
pub fn gauge(name: &str) -> Arc<Gauge> {
    global().gauge(name)
}

/// Histogram `name` in the [`global`] registry (see
/// [`MetricsRegistry::histogram`] for bucket semantics).
#[allow(
    clippy::disallowed_methods,
    reason = "the banned wrapper itself: library code reaches it only from a crate's metrics module"
)]
pub fn histogram(name: &str, bounds: &[f64]) -> Arc<Histogram> {
    global().histogram(name, bounds)
}

/// Open a timing span on the [`global`] registry; the returned guard
/// records on drop. Nested calls on the same thread record
/// slash-separated paths (`parent/child`).
pub fn span(name: &str) -> SpanGuard<'static> {
    global().span(name)
}
