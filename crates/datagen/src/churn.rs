//! Seeded lake-churn workloads: register/append/delete/drop streams.
//!
//! The incremental-maintenance layer in `rdi-serve` is only worth its
//! complexity if it survives a *realistic* mutation stream — tables
//! appended to in small batches, rows corrected away, sources dropped
//! and replaced — not just one synthetic append. [`churn_workload`]
//! generates exactly that: an initial lake plus a delta stream, every
//! byte a pure function of `(config, seed)` via [`stream_rng`], so
//! two replays of the same workload (e.g. an incremental index and a
//! cold-rebuilt reference, or the same index at different
//! `RDI_THREADS`) see identical inputs.
//!
//! Generated delete indices are always in-bounds for the table as it
//! stands when the event is applied, and a delete never empties a
//! table — the generator tracks per-table row counts while emitting
//! the stream.

use std::collections::BTreeMap;

use rand::Rng;
use rdi_par::stream_rng;
use rdi_table::{DataType, Field, Role, Schema, Table, TableDelta, Value};

use crate::rng::normal;

/// Configuration of a churn workload.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Tables registered before the event stream starts.
    pub num_tables: usize,
    /// Delta events in the stream.
    pub events: usize,
    /// Rows per initial table.
    pub initial_rows: usize,
    /// Maximum rows appended by one append event.
    pub append_rows_max: usize,
    /// Maximum rows deleted by one delete event (further capped so a
    /// delete never empties a table).
    pub delete_rows_max: usize,
    /// Size of the shared key pool — smaller pools create more key
    /// overlap between tables (more interesting discovery answers).
    pub key_pool: usize,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            num_tables: 6,
            events: 48,
            initial_rows: 300,
            append_rows_max: 12,
            delete_rows_max: 8,
            key_pool: 500,
        }
    }
}

/// One event of a churn stream.
#[derive(Debug, Clone, PartialEq)]
pub enum ChurnEvent {
    /// Register a new table under `id` with a per-draw `cost`.
    Register {
        /// Table id to register.
        id: String,
        /// Initial content.
        table: Table,
        /// Per-draw cost for tailoring.
        cost: f64,
    },
    /// Apply a delta to the registered table `id`.
    Delta {
        /// Target table id.
        id: String,
        /// The mutation.
        delta: TableDelta,
    },
}

impl ChurnEvent {
    /// Stable label for metrics and reports.
    pub fn kind(&self) -> &'static str {
        match self {
            ChurnEvent::Register { .. } => "register",
            ChurnEvent::Delta { delta, .. } => delta.kind(),
        }
    }
}

/// A generated workload: the initial lake plus the event stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnWorkload {
    /// Initial tables, in registration order.
    pub tables: Vec<(String, Table)>,
    /// The delta stream, in arrival order.
    pub events: Vec<ChurnEvent>,
}

/// The shared two-column lake schema: `key: Str`, `val: Float`.
fn churn_schema() -> Schema {
    Schema::new(vec![
        Field::new("key", DataType::Str).with_role(Role::Id),
        Field::new("val", DataType::Float),
    ])
}

/// Generate `n` rows over the shared key pool.
fn gen_rows<R: Rng + ?Sized>(rng: &mut R, n: usize, key_pool: usize) -> Table {
    let mut t = Table::with_capacity(churn_schema(), n);
    for _ in 0..n {
        let key = format!("k{:05}", rng.gen_range(0..key_pool.max(1)));
        #[expect(
            clippy::expect_used,
            reason = "row literal matches the schema built above"
        )]
        t.push_row(vec![Value::str(key), Value::Float(normal(rng, 0.0, 1.0))])
            .expect("schema match");
    }
    t
}

/// Generate a churn workload. Initial table `i` is drawn from RNG
/// stream `i + 1` and the event stream from stream 0 (both via
/// [`stream_rng`]), so the workload is a pure function of
/// `(config, seed)`.
pub fn churn_workload(config: &ChurnConfig, seed: u64) -> ChurnWorkload {
    assert!(config.num_tables > 0 && config.initial_rows > 0);
    let mut tables = Vec::with_capacity(config.num_tables);
    // live row counts as the stream will observe them
    let mut live: BTreeMap<String, usize> = BTreeMap::new();
    for i in 0..config.num_tables {
        let mut trng = stream_rng(seed, i as u64 + 1);
        let id = format!("t{i:02}");
        let t = gen_rows(&mut trng, config.initial_rows, config.key_pool);
        live.insert(id.clone(), t.num_rows());
        tables.push((id, t));
    }

    let mut rng = stream_rng(seed, 0);
    let mut events = Vec::with_capacity(config.events);
    for e in 0..config.events {
        let names: Vec<String> = live.keys().cloned().collect();
        let pick = names[rng.gen_range(0..names.len())].clone();
        let rows = live[&pick];
        let roll: f64 = rng.gen();
        if roll < 0.08 {
            // register a brand-new table mid-stream
            let id = format!("fresh_{e:03}");
            let n = 1 + rng.gen_range(0..config.initial_rows);
            let t = gen_rows(&mut rng, n, config.key_pool);
            live.insert(id.clone(), n);
            events.push(ChurnEvent::Register {
                id,
                table: t,
                cost: 1.0,
            });
        } else if roll < 0.18 && live.len() > 2 {
            // drop, keeping at least two tables alive
            live.remove(&pick);
            events.push(ChurnEvent::Delta {
                id: pick,
                delta: TableDelta::Drop,
            });
        } else if roll < 0.55 && rows > 1 {
            // delete up to delete_rows_max distinct rows, never all
            let cap = config.delete_rows_max.min(rows - 1).max(1);
            let n = 1 + rng.gen_range(0..cap);
            // partial Fisher–Yates: n distinct in-bounds indices
            let mut idx: Vec<usize> = (0..rows).collect();
            for i in 0..n {
                let j = rng.gen_range(i..rows);
                idx.swap(i, j);
            }
            idx.truncate(n);
            live.insert(pick.clone(), rows - n);
            events.push(ChurnEvent::Delta {
                id: pick,
                delta: TableDelta::Delete(idx),
            });
        } else {
            let n = 1 + rng.gen_range(0..config.append_rows_max.max(1));
            let t = gen_rows(&mut rng, n, config.key_pool);
            live.insert(pick.clone(), rows + n);
            events.push(ChurnEvent::Delta {
                id: pick,
                delta: TableDelta::Append(t),
            });
        }
    }
    ChurnWorkload { tables, events }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_workload() {
        let cfg = ChurnConfig::default();
        let a = churn_workload(&cfg, 42);
        let b = churn_workload(&cfg, 42);
        assert_eq!(a, b);
        let c = churn_workload(&cfg, 43);
        assert_ne!(a.events, c.events, "different seed, different stream");
    }

    #[test]
    fn deltas_replay_cleanly_and_never_empty_a_table() {
        let cfg = ChurnConfig {
            events: 200,
            ..ChurnConfig::default()
        };
        let w = churn_workload(&cfg, 7);
        let mut lake: BTreeMap<String, Table> = w.tables.iter().cloned().collect();
        for ev in &w.events {
            match ev {
                ChurnEvent::Register { id, table, .. } => {
                    assert!(
                        !lake.contains_key(id),
                        "register of an already-live id `{id}`"
                    );
                    assert!(table.num_rows() > 0);
                    lake.insert(id.clone(), table.clone());
                }
                ChurnEvent::Delta { id, delta } => {
                    let t = lake
                        .get_mut(id)
                        .unwrap_or_else(|| panic!("delta targets unregistered table `{id}`"));
                    t.apply_delta(delta).unwrap();
                    if matches!(delta, TableDelta::Drop) {
                        lake.remove(id);
                    } else {
                        assert!(t.num_rows() > 0, "`{id}` emptied by {}", delta.kind());
                    }
                }
            }
        }
        assert!(lake.len() >= 2);
    }

    #[test]
    fn long_streams_exercise_every_event_kind() {
        let cfg = ChurnConfig {
            events: 300,
            ..ChurnConfig::default()
        };
        let w = churn_workload(&cfg, 11);
        let mut kinds: Vec<&str> = w.events.iter().map(ChurnEvent::kind).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds, vec!["append", "delete", "drop", "register"]);
    }
}
