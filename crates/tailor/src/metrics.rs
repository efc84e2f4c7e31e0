//! rdi-tailor's metric handles: the only code in the crate that resolves
//! a metric by name (see DESIGN.md "Metric handles"). Each handle is
//! resolved on its first use, so a snapshot lists a name only once
//! the code that feeds it has run.

#![allow(
    clippy::disallowed_methods,
    reason = "the crate's one place that resolves metrics by name"
)]

use std::sync::{Arc, LazyLock, Mutex};

use rdi_obs::{Counter, Gauge};

pub(crate) static RUNS: LazyLock<Arc<Counter>> = LazyLock::new(|| rdi_obs::counter("tailor.runs"));
pub(crate) static DRAWS: LazyLock<Arc<Counter>> =
    LazyLock::new(|| rdi_obs::counter("tailor.draws"));
pub(crate) static KEPT: LazyLock<Arc<Counter>> = LazyLock::new(|| rdi_obs::counter("tailor.kept"));
pub(crate) static LAST_COST: LazyLock<Arc<Gauge>> =
    LazyLock::new(|| rdi_obs::gauge("tailor.last_cost"));
pub(crate) static DUPLICATES: LazyLock<Arc<Counter>> =
    LazyLock::new(|| rdi_obs::counter("tailor.duplicates"));

/// `tailor.group_{gi}_kept` handles by group index, each resolved the
/// first time a run has group `gi`.
static GROUP_KEPT: Mutex<Vec<Arc<Counter>>> = Mutex::new(Vec::new());

/// Add each group's kept rows to its `tailor.group_{gi}_kept`, zero
/// counts included, so a group that kept nothing still lists its key.
/// One lock per run; a name is formatted and looked up only for a
/// group index no earlier run had.
pub(crate) fn add_group_kept(per_group: &[usize]) {
    // the handles stay valid after a panic elsewhere: each is pushed whole
    let mut handles = GROUP_KEPT.lock().unwrap_or_else(|e| e.into_inner());
    for gi in handles.len()..per_group.len() {
        handles.push(rdi_obs::counter(&format!("tailor.group_{gi}_kept")));
    }
    for (handle, &kept) in handles.iter().zip(per_group) {
        handle.add(kept as u64);
    }
}
