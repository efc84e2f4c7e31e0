//! rdi-policy's metric handles: the only code in the crate that
//! resolves a metric by name (see DESIGN.md "Metric handles").

#![allow(
    clippy::disallowed_methods,
    reason = "the crate's one place that resolves metrics by name"
)]

use std::sync::{Arc, OnceLock};

use rdi_obs::Counter;

use crate::PolicyId;

/// The `policy.decisions` and `policy.{id}.decisions` handles for a
/// site. Each is resolved on first use and kept (registry handles
/// survive [`rdi_obs::MetricsRegistry::reset`]), so a decision takes no
/// registry lock and formats no name.
pub(crate) fn counters(id: PolicyId) -> (&'static Counter, &'static Counter) {
    const SITES: usize = PolicyId::ALL.len();
    static DECISIONS: OnceLock<Arc<Counter>> = OnceLock::new();
    static PER_SITE: [OnceLock<Arc<Counter>>; SITES] = [const { OnceLock::new() }; SITES];
    (
        DECISIONS.get_or_init(|| rdi_obs::counter("policy.decisions")),
        PER_SITE[id.slot()].get_or_init(|| rdi_obs::counter(&format!("policy.{id}.decisions"))),
    )
}
