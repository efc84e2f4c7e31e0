//! rdi-fault's metric handles: the only code in the crate that resolves
//! a metric by name (see DESIGN.md "Metric handles"). Each handle is
//! resolved on its first use, so a snapshot lists a name only once
//! the code that feeds it has run.

#![allow(
    clippy::disallowed_methods,
    reason = "the crate's one place that resolves metrics by name"
)]

use std::sync::{Arc, LazyLock};

use rdi_obs::Counter;
use rdi_tailor::SourceError;

pub(crate) static BREAKER_FAILURES: LazyLock<Arc<Counter>> =
    LazyLock::new(|| rdi_obs::counter("fault.breaker.failures"));
pub(crate) static BREAKER_OPENED: LazyLock<Arc<Counter>> =
    LazyLock::new(|| rdi_obs::counter("fault.breaker.opened"));
pub(crate) static BREAKER_CLOSED: LazyLock<Arc<Counter>> =
    LazyLock::new(|| rdi_obs::counter("fault.breaker.closed"));

/// `fault.injected.{kind}`: the faults of kind `e` injected so far.
pub(crate) fn injected(e: SourceError) -> Arc<Counter> {
    rdi_obs::counter(&format!("fault.injected.{}", e.kind()))
}
