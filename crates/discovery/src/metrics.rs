//! rdi-discovery's metric handles: the only code in the crate that
//! resolves a metric by name (see DESIGN.md "Metric handles"). Each
//! handle is resolved on its first use, so a snapshot lists a name only
//! once the code that feeds it has run.

#![allow(
    clippy::disallowed_methods,
    reason = "the crate's one place that resolves metrics by name"
)]

use std::sync::{Arc, LazyLock};

use rdi_obs::Counter;

pub(crate) static SKETCHES_BUILT: LazyLock<Arc<Counter>> =
    LazyLock::new(|| rdi_obs::counter("discovery.sketches_built"));
pub(crate) static KMV_SKETCHES_BUILT: LazyLock<Arc<Counter>> =
    LazyLock::new(|| rdi_obs::counter("discovery.kmv_sketches_built"));
pub(crate) static CANDIDATES_SCORED: LazyLock<Arc<Counter>> =
    LazyLock::new(|| rdi_obs::counter("discovery.candidates_scored"));
pub(crate) static LSH_PROBES: LazyLock<Arc<Counter>> =
    LazyLock::new(|| rdi_obs::counter("discovery.lsh_probes"));
pub(crate) static INCREMENTAL_UPDATES: LazyLock<Arc<Counter>> =
    LazyLock::new(|| rdi_obs::counter("sketch.incremental_updates"));
pub(crate) static REBUILDS: LazyLock<Arc<Counter>> =
    LazyLock::new(|| rdi_obs::counter("sketch.rebuilds"));
