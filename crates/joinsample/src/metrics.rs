//! rdi-joinsample's metric handles: the only code in the crate that resolves
//! a metric by name (see DESIGN.md "Metric handles"). Each handle is
//! resolved on its first use, so a snapshot lists a name only once
//! the code that feeds it has run.

#![allow(
    clippy::disallowed_methods,
    reason = "the crate's one place that resolves metrics by name"
)]

use std::sync::{Arc, LazyLock};

use rdi_obs::Counter;

pub(crate) static OLKEN_ATTEMPTS: LazyLock<Arc<Counter>> =
    LazyLock::new(|| rdi_obs::counter("joinsample.olken_attempts"));
pub(crate) static OLKEN_ACCEPTED: LazyLock<Arc<Counter>> =
    LazyLock::new(|| rdi_obs::counter("joinsample.olken_accepted"));
pub(crate) static CHAUDHURI_DRAWS: LazyLock<Arc<Counter>> =
    LazyLock::new(|| rdi_obs::counter("joinsample.chaudhuri_draws"));
pub(crate) static WALKS_ATTEMPTED: LazyLock<Arc<Counter>> =
    LazyLock::new(|| rdi_obs::counter("joinsample.walks_attempted"));
pub(crate) static WALKS_DEAD_ENDED: LazyLock<Arc<Counter>> =
    LazyLock::new(|| rdi_obs::counter("joinsample.walks_dead_ended"));
