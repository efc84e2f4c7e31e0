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

/// `fault.injected.{kind}` for each kind in [`SourceError::ALL`]
/// order: the faults of that kind injected so far.
pub(crate) static INJECTED: [LazyLock<Arc<Counter>>; 4] = [
    LazyLock::new(|| injected(SourceError::Unavailable)),
    LazyLock::new(|| injected(SourceError::Corrupt)),
    LazyLock::new(|| injected(SourceError::Truncated)),
    LazyLock::new(|| injected(SourceError::Timeout)),
];

fn injected(e: SourceError) -> Arc<Counter> {
    rdi_obs::counter(&format!("fault.injected.{}", e.kind()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injected_handles_follow_the_kind_order() {
        for e in SourceError::ALL {
            let named = rdi_obs::counter(&format!("fault.injected.{}", e.kind()));
            assert!(Arc::ptr_eq(&INJECTED[e.index()], &named), "{e:?}");
        }
    }
}
