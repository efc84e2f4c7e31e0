//! rdi-actor's metric handles: the only code in the crate that resolves
//! a metric by name (see DESIGN.md "Metric handles"). Each handle is
//! resolved on its first use, so a snapshot lists a name only once
//! the code that feeds it has run.

#![allow(
    clippy::disallowed_methods,
    reason = "the crate's one place that resolves metrics by name"
)]

use std::sync::{Arc, LazyLock};

use rdi_obs::{Counter, Gauge};

pub(crate) static SCHEDULER_STEPS: LazyLock<Arc<Counter>> =
    LazyLock::new(|| rdi_obs::counter("actor.scheduler_steps"));
pub(crate) static MAILBOX_DEPTH: LazyLock<Arc<Gauge>> =
    LazyLock::new(|| rdi_obs::gauge("actor.mailbox_depth"));
pub(crate) static MESSAGES_DELIVERED: LazyLock<Arc<Counter>> =
    LazyLock::new(|| rdi_obs::counter("actor.messages_delivered"));
pub(crate) static DELIVERY_ERRORS: LazyLock<Arc<Counter>> =
    LazyLock::new(|| rdi_obs::counter("actor.delivery_errors"));
