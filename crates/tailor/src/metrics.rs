//! rdi-tailor's metric handles: the only code in the crate that resolves
//! a metric by name (see DESIGN.md "Metric handles"). Each handle is
//! resolved on its first use, so a snapshot lists a name only once
//! the code that feeds it has run.

#![allow(
    clippy::disallowed_methods,
    reason = "the crate's one place that resolves metrics by name"
)]

use std::sync::{Arc, LazyLock};

use rdi_obs::{Counter, Gauge};

pub(crate) static RUNS: LazyLock<Arc<Counter>> = LazyLock::new(|| rdi_obs::counter("tailor.runs"));
pub(crate) static DRAWS: LazyLock<Arc<Counter>> =
    LazyLock::new(|| rdi_obs::counter("tailor.draws"));
pub(crate) static KEPT: LazyLock<Arc<Counter>> = LazyLock::new(|| rdi_obs::counter("tailor.kept"));
pub(crate) static LAST_COST: LazyLock<Arc<Gauge>> =
    LazyLock::new(|| rdi_obs::gauge("tailor.last_cost"));
pub(crate) static DUPLICATES: LazyLock<Arc<Counter>> =
    LazyLock::new(|| rdi_obs::counter("tailor.duplicates"));

/// `tailor.group_{gi}_kept`: the rows a run kept for group `gi`.
pub(crate) fn group_kept(gi: usize) -> Arc<Counter> {
    rdi_obs::counter(&format!("tailor.group_{gi}_kept"))
}
