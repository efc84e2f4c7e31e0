//! rdi-core's metric handles and span names: the only code in the
//! crate that resolves a metric by name (see DESIGN.md "Metric
//! handles"). Each handle is resolved on its first use, so a snapshot
//! lists a name only once the code that feeds it has run.

#![allow(
    clippy::disallowed_methods,
    reason = "the crate's one place that resolves metrics by name"
)]

use std::sync::{Arc, LazyLock};

use rdi_obs::{Counter, Histogram};

/// Physical attempts per logical draw, bucketed at 1, 2, 4 and 8.
pub(crate) static ATTEMPTS_PER_DRAW: LazyLock<Arc<Histogram>> =
    LazyLock::new(|| rdi_obs::histogram("executor.attempts_per_draw", &[1.0, 2.0, 4.0, 8.0]));
pub(crate) static REDIRECTS: LazyLock<Arc<Counter>> =
    LazyLock::new(|| rdi_obs::counter("executor.redirects"));
pub(crate) static FAULTS: LazyLock<Arc<Counter>> =
    LazyLock::new(|| rdi_obs::counter("executor.faults"));
pub(crate) static BREAKER_TRIPS: LazyLock<Arc<Counter>> =
    LazyLock::new(|| rdi_obs::counter("executor.breaker_trips"));
pub(crate) static RETRIES: LazyLock<Arc<Counter>> =
    LazyLock::new(|| rdi_obs::counter("executor.retries"));
pub(crate) static ABANDONED_DRAWS: LazyLock<Arc<Counter>> =
    LazyLock::new(|| rdi_obs::counter("executor.abandoned_draws"));
pub(crate) static BACKOFF_TICKS: LazyLock<Arc<Counter>> =
    LazyLock::new(|| rdi_obs::counter("executor.backoff_ticks"));

/// The default root span of a pipeline run.
pub(crate) const PIPELINE_SPAN: &str = "pipeline";
pub(crate) const TAILOR_SPAN: &str = "tailor";
pub(crate) const IMPUTE_SPAN: &str = "impute";
pub(crate) const AUDIT_SPAN: &str = "audit";
/// Opened on a result's first label read, under whatever span the
/// reader has open.
pub(crate) const LABEL_SPAN: &str = "label";
