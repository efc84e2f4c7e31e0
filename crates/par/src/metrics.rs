//! rdi-par's metric handles: the only code in the crate that resolves
//! a metric by name (see DESIGN.md "Metric handles").

#![allow(
    clippy::disallowed_methods,
    reason = "the crate's one place that resolves metrics by name"
)]

use std::sync::{Arc, LazyLock};

use rdi_obs::Counter;

/// The dispatch counters every kernel run feeds. They describe the
/// *schedule* — how work was run, not how much there was — so unlike
/// the per-layer work counters they legitimately differ across
/// `RDI_THREADS` settings (a 1-thread run is all serial fallbacks) and
/// are excluded from the thread-invariance contract. All three are
/// resolved on the first dispatch, serial or not, so every snapshot
/// that has one has all three.
pub(crate) struct Dispatch {
    pub(crate) serial_runs: Arc<Counter>,
    pub(crate) parallel_runs: Arc<Counter>,
    pub(crate) tasks_dispatched: Arc<Counter>,
}

pub(crate) static DISPATCH: LazyLock<Dispatch> = LazyLock::new(|| Dispatch {
    serial_runs: rdi_obs::counter("par.serial_runs"),
    parallel_runs: rdi_obs::counter("par.parallel_runs"),
    tasks_dispatched: rdi_obs::counter("par.tasks_dispatched"),
});
