//! rdi-serve's metric handles and span names: the only code in the
//! crate that resolves a metric by name (see DESIGN.md "Metric
//! handles"). Each fixed-name handle is resolved on its first use, so a
//! snapshot lists a name only once the code that feeds it has run. A
//! `format!`-built family is one accessor, looked up on each call.

#![allow(
    clippy::disallowed_methods,
    reason = "the crate's one place that resolves metrics by name"
)]

use std::sync::{Arc, LazyLock};

use rdi_obs::{Counter, Gauge, Histogram};

use crate::admit::TenantId;

/// Histogram bounds for batch size and admitted queue depth.
const SIZE_BOUNDS: [f64; 8] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];

// Admission (`crate::admit`).
pub(crate) static BATCHES: LazyLock<Arc<Counter>> =
    LazyLock::new(|| rdi_obs::counter("serve.batches"));
pub(crate) static REQUESTS: LazyLock<Arc<Counter>> =
    LazyLock::new(|| rdi_obs::counter("serve.requests"));
pub(crate) static BATCH_SIZE: LazyLock<Arc<Histogram>> =
    LazyLock::new(|| rdi_obs::histogram("serve.batch_size", &SIZE_BOUNDS));
pub(crate) static QUEUE_DEPTH: LazyLock<Arc<Histogram>> =
    LazyLock::new(|| rdi_obs::histogram("serve.queue_depth", &SIZE_BOUNDS));
pub(crate) static TENANTS: LazyLock<Arc<Gauge>> = LazyLock::new(|| rdi_obs::gauge("serve.tenants"));
pub(crate) static SHED: LazyLock<Arc<Counter>> = LazyLock::new(|| rdi_obs::counter("serve.shed"));
pub(crate) static BREAKER_PROBES: LazyLock<Arc<Counter>> =
    LazyLock::new(|| rdi_obs::counter("serve.breaker_probes"));
pub(crate) static BREAKER_RECOVERIES: LazyLock<Arc<Counter>> =
    LazyLock::new(|| rdi_obs::counter("serve.breaker_recoveries"));
pub(crate) static BREAKER_TRIPS: LazyLock<Arc<Counter>> =
    LazyLock::new(|| rdi_obs::counter("serve.breaker_trips"));
pub(crate) static REQUESTS_FAILED: LazyLock<Arc<Counter>> =
    LazyLock::new(|| rdi_obs::counter("serve.requests_failed"));
pub(crate) static REQUESTS_DEGRADED: LazyLock<Arc<Counter>> =
    LazyLock::new(|| rdi_obs::counter("serve.requests_degraded"));

pub(crate) fn tenant_requests(t: &TenantId) -> Arc<Counter> {
    rdi_obs::counter(&format!("serve.tenant.{t}.requests"))
}

pub(crate) fn tenant_admitted(t: &TenantId) -> Arc<Counter> {
    rdi_obs::counter(&format!("serve.tenant.{t}.admitted"))
}

pub(crate) fn tenant_shed_quota(t: &TenantId) -> Arc<Counter> {
    rdi_obs::counter(&format!("serve.tenant.{t}.shed_quota"))
}

pub(crate) fn tenant_shed_queue(t: &TenantId) -> Arc<Counter> {
    rdi_obs::counter(&format!("serve.tenant.{t}.shed_queue"))
}

pub(crate) fn tenant_shed_breaker(t: &TenantId) -> Arc<Counter> {
    rdi_obs::counter(&format!("serve.tenant.{t}.shed_breaker"))
}

pub(crate) fn tenant_failed(t: &TenantId) -> Arc<Counter> {
    rdi_obs::counter(&format!("serve.tenant.{t}.failed"))
}

// The query cache and the memory gauges (`crate::cache`).
pub(crate) static CACHE_HITS: LazyLock<Arc<Counter>> =
    LazyLock::new(|| rdi_obs::counter("serve.cache.hits"));
pub(crate) static CACHE_MISSES: LazyLock<Arc<Counter>> =
    LazyLock::new(|| rdi_obs::counter("serve.cache.misses"));
pub(crate) static CACHE_EVICTIONS: LazyLock<Arc<Counter>> =
    LazyLock::new(|| rdi_obs::counter("serve.cache.evictions"));
pub(crate) static CACHE_EVICTED_BYTES: LazyLock<Arc<Counter>> =
    LazyLock::new(|| rdi_obs::counter("serve.cache.evicted_bytes"));
pub(crate) static CACHE_BYTES: LazyLock<Arc<Gauge>> =
    LazyLock::new(|| rdi_obs::gauge("serve.cache.bytes"));
pub(crate) static MAINT_BYTES: LazyLock<Arc<Gauge>> =
    LazyLock::new(|| rdi_obs::gauge("serve.maint.bytes"));

pub(crate) fn shard_cache_bytes(i: usize) -> Arc<Gauge> {
    rdi_obs::gauge(&format!("serve.shard.{i}.cache_bytes"))
}

pub(crate) fn shard_maint_bytes(i: usize) -> Arc<Gauge> {
    rdi_obs::gauge(&format!("serve.shard.{i}.maint_bytes"))
}

// The sharded index (`crate::index`) and its maintained stores
// (`crate::maint`).
pub(crate) static INDEX_TABLES: LazyLock<Arc<Gauge>> =
    LazyLock::new(|| rdi_obs::gauge("serve.index.tables"));
pub(crate) static CANDIDATES_SCORED: LazyLock<Arc<Counter>> =
    LazyLock::new(|| rdi_obs::counter("serve.candidates_scored"));
pub(crate) static SHARD_ROUTED: LazyLock<Arc<Counter>> =
    LazyLock::new(|| rdi_obs::counter("serve.shard.routed"));
pub(crate) static DELTA_ROWS_APPLIED: LazyLock<Arc<Counter>> =
    LazyLock::new(|| rdi_obs::counter("serve.delta.rows_applied"));
pub(crate) static SKETCHES_BUILT: LazyLock<Arc<Counter>> =
    LazyLock::new(|| rdi_obs::counter("discovery.sketches_built"));
pub(crate) static SKETCH_REBUILDS: LazyLock<Arc<Counter>> =
    LazyLock::new(|| rdi_obs::counter("sketch.rebuilds"));

pub(crate) fn shard_tables(i: usize) -> Arc<Gauge> {
    rdi_obs::gauge(&format!("serve.shard.{i}.tables"))
}

/// The span every serial batch runs under.
pub(crate) const BATCH_SPAN: &str = "serve.batch";
/// The root span of a tailor request's pipeline run.
pub(crate) const TAILOR_SPAN: &str = "serve.tailor";
