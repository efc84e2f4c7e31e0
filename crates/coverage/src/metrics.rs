//! rdi-coverage's metric handles: the only code in the crate that resolves
//! a metric by name (see DESIGN.md "Metric handles"). Each handle is
//! resolved on its first use, so a snapshot lists a name only once
//! the code that feeds it has run.

#![allow(
    clippy::disallowed_methods,
    reason = "the crate's one place that resolves metrics by name"
)]

use std::sync::{Arc, LazyLock};

use rdi_obs::{Counter, Gauge};

pub(crate) static SEARCHES: LazyLock<Arc<Counter>> =
    LazyLock::new(|| rdi_obs::counter("coverage.searches"));
pub(crate) static NODES_EVALUATED: LazyLock<Arc<Counter>> =
    LazyLock::new(|| rdi_obs::counter("coverage.nodes_evaluated"));
pub(crate) static MUPS_FOUND: LazyLock<Arc<Counter>> =
    LazyLock::new(|| rdi_obs::counter("coverage.mups_found"));
pub(crate) static PEAK_FRONTIER: LazyLock<Arc<Gauge>> =
    LazyLock::new(|| rdi_obs::gauge("coverage.peak_frontier"));
