//! Seeded concurrent-session serving workloads.
//!
//! The actor-hosted serving layer in `rdi-serve` multiplexes many
//! client sessions over one shared sharded lake; exercising it needs
//! *per-session request streams* that stay identical while the
//! sessions' interleaving varies — different scheduler seeds, thread
//! counts, or submission orders must all see the same per-session
//! bytes, or a replay mismatch could be the workload's fault rather
//! than the scheduler's. [`session_workload`] generates exactly that:
//! a shared lake plus one scripted batch stream per session, where
//! session `s` draws from RNG stream `stream_seed(seed, 1000 + s)` —
//! independent of every other session *and of the session count*, so
//! adding a fifth session changes nothing about the first four.
//!
//! Ops are deliberately serve-agnostic (plain tables, ids, and a
//! [`DtProblem`]): consumers map a [`SessionOp`] onto their own request
//! type, keeping the dependency arrow pointing from the serving layer
//! to the generator and never back.
//!
//! A configurable [`SessionWorkloadConfig::poison_rate`] mixes in
//! requests that target unregistered tables — deterministic failures
//! that exercise admission-control and breaker-recovery paths under
//! concurrency.

use rand::Rng;
use rdi_par::stream_rng;
use rdi_table::{DataType, Field, GroupKey, GroupSpec, Role, Schema, Table, Value};
use rdi_tailor::DtProblem;

use crate::rng::normal;

/// Configuration of a concurrent-session workload.
#[derive(Debug, Clone)]
pub struct SessionWorkloadConfig {
    /// Tables registered in the shared lake.
    pub num_tables: usize,
    /// Rows per lake table.
    pub rows_per_table: usize,
    /// Size of the shared key pool — smaller pools create more key
    /// overlap (more interesting discovery answers).
    pub key_pool: usize,
    /// Concurrent client sessions.
    pub num_sessions: usize,
    /// Batches each session submits.
    pub batches_per_session: usize,
    /// Maximum requests per batch (at least 1 is always generated).
    pub requests_per_batch_max: usize,
    /// Top-k for union/joinability requests.
    pub top_k: usize,
    /// Probability that a generated request targets an unregistered
    /// table — a deterministic failure that feeds session breakers.
    pub poison_rate: f64,
}

impl Default for SessionWorkloadConfig {
    fn default() -> Self {
        SessionWorkloadConfig {
            num_tables: 8,
            rows_per_table: 120,
            key_pool: 400,
            num_sessions: 4,
            batches_per_session: 4,
            requests_per_batch_max: 5,
            top_k: 3,
            poison_rate: 0.12,
        }
    }
}

/// One serve-agnostic request. Mirrors the shape of the serving
/// layer's request type without depending on it.
#[derive(Debug, Clone)]
pub enum SessionOp {
    /// Rank lake tables by unionability with an ad-hoc query table.
    Union {
        /// The query table.
        query: Table,
        /// How many results to keep.
        k: usize,
    },
    /// Rank lake tables by estimated join-key containment.
    Joinable {
        /// The query table.
        query: Table,
        /// Join-key column (present in every generated table).
        column: String,
        /// How many results to keep.
        k: usize,
    },
    /// Probe a registered table for uncovered group patterns.
    Coverage {
        /// Target table id (may be unregistered when poisoned).
        table: String,
        /// Pattern attributes.
        attributes: Vec<String>,
        /// Minimum count for a pattern to be covered.
        threshold: usize,
    },
    /// Run distribution tailoring over registered sources.
    Tailor {
        /// The tailoring problem.
        problem: DtProblem,
        /// Source table ids, in draw order.
        sources: Vec<String>,
        /// Draw budget.
        max_draws: usize,
    },
}

impl SessionOp {
    /// Stable label for metrics and reports.
    pub fn kind(&self) -> &'static str {
        match self {
            SessionOp::Union { .. } => "union",
            SessionOp::Joinable { .. } => "joinable",
            SessionOp::Coverage { .. } => "coverage",
            SessionOp::Tailor { .. } => "tailor",
        }
    }
}

/// One session's scripted request stream.
#[derive(Debug, Clone)]
pub struct SessionScript {
    /// Session name (stable across seeds: `s0`, `s1`, ...).
    pub name: String,
    /// Tenant tag for multi-tenant serving paths. Plain E21 workloads
    /// are single-tenant, so [`session_workload`] stamps every script
    /// with the serving layer's default tenant name and existing
    /// consumers compose unchanged; the [`crate::tenants`] generator
    /// produces the adversarial multi-tenant rosters.
    pub tenant: String,
    /// Batches in submission order; each batch is a request list.
    pub batches: Vec<Vec<SessionOp>>,
}

/// A generated workload: the shared lake plus per-session scripts.
#[derive(Debug, Clone)]
pub struct SessionWorkload {
    /// Lake tables in registration order (`lake00`, `lake01`, ...).
    pub tables: Vec<(String, Table)>,
    /// One script per session.
    pub sessions: Vec<SessionScript>,
}

/// The shared lake schema: a join key, a sensitive group column, and a
/// measurement — one schema serves discovery, coverage, and tailoring
/// ops alike.
fn lake_schema() -> Schema {
    Schema::new(vec![
        Field::new("key", DataType::Str).with_role(Role::Id),
        Field::new("group", DataType::Str).with_role(Role::Sensitive),
        Field::new("x", DataType::Float),
    ])
}

/// Generate `n` rows over the shared key pool with a ~1/3 minority
/// group share.
fn gen_rows<R: Rng + ?Sized>(rng: &mut R, n: usize, key_pool: usize) -> Table {
    let mut t = Table::with_capacity(lake_schema(), n);
    for _ in 0..n {
        let key = format!("k{:05}", rng.gen_range(0..key_pool.max(1)));
        let group = if rng.gen_range(0..3u8) == 0 {
            "min"
        } else {
            "maj"
        };
        #[expect(
            clippy::expect_used,
            reason = "row literal matches the schema built above"
        )]
        t.push_row(vec![
            Value::str(key),
            Value::str(group),
            Value::Float(normal(rng, 0.0, 1.0)),
        ])
        .expect("schema match");
    }
    t
}

/// The tailoring problem every generated `Tailor` op uses: at least
/// `per_group` rows of each group.
fn tailor_problem(per_group: usize) -> DtProblem {
    DtProblem::exact_counts(
        GroupSpec::new(vec!["group"]),
        vec![
            (GroupKey(vec![Value::str("maj")]), per_group),
            (GroupKey(vec![Value::str("min")]), per_group),
        ],
    )
}

/// Generate one request from a session's private stream.
pub(crate) fn gen_op<R: Rng + ?Sized>(
    rng: &mut R,
    config: &SessionWorkloadConfig,
    table_ids: &[String],
) -> SessionOp {
    let poisoned = rng.gen::<f64>() < config.poison_rate;
    let pick = |rng: &mut R| table_ids[rng.gen_range(0..table_ids.len())].clone();
    match rng.gen_range(0..4u8) {
        0 => {
            let n = 1 + rng.gen_range(0..8usize);
            SessionOp::Union {
                query: gen_rows(rng, n, config.key_pool),
                k: config.top_k,
            }
        }
        1 => {
            let n = 1 + rng.gen_range(0..8usize);
            SessionOp::Joinable {
                query: gen_rows(rng, n, config.key_pool),
                column: "key".to_string(),
                k: config.top_k,
            }
        }
        2 => SessionOp::Coverage {
            table: if poisoned {
                format!("ghost{:02}", rng.gen_range(0..100))
            } else {
                pick(rng)
            },
            attributes: vec!["group".to_string()],
            threshold: 1 + rng.gen_range(0..8usize),
        },
        _ => {
            let mut sources = vec![pick(rng)];
            if poisoned {
                sources.push(format!("ghost{:02}", rng.gen_range(0..100)));
            } else if table_ids.len() > 1 {
                // a second distinct source keeps draw policies honest
                let mut other = pick(rng);
                while other == sources[0] {
                    other = pick(rng);
                }
                sources.push(other);
            }
            SessionOp::Tailor {
                problem: tailor_problem(1 + rng.gen_range(0..5usize)),
                sources,
                max_draws: 2_000,
            }
        }
    }
}

/// Build the shared lake: table `i` draws from RNG stream `i + 1`,
/// shared by both the session and multi-tenant generators so an E21
/// workload and an E22 roster over the same `(dims, seed)` see the
/// same lake bytes.
pub(crate) fn lake_tables(
    num_tables: usize,
    rows_per_table: usize,
    key_pool: usize,
    seed: u64,
) -> Vec<(String, Table)> {
    let mut tables = Vec::with_capacity(num_tables);
    for i in 0..num_tables {
        let mut trng = stream_rng(seed, i as u64 + 1);
        tables.push((
            format!("lake{i:02}"),
            gen_rows(&mut trng, rows_per_table, key_pool),
        ));
    }
    tables
}

/// Generate a concurrent-session workload. Lake table `i` draws from
/// RNG stream `i + 1` and session `s` from stream `1000 + s` (both via
/// [`stream_rng`]; streams `2000 + t` are reserved for the
/// [`crate::tenants`] generator), so every table and every per-session
/// script is a pure function of `(config, seed)` — and a session's
/// script does not change when sessions are added or removed around
/// it. Every script carries the serving layer's default tenant tag.
pub fn session_workload(config: &SessionWorkloadConfig, seed: u64) -> SessionWorkload {
    assert!(config.num_tables > 0 && config.rows_per_table > 0);
    assert!(config.num_sessions > 0);
    let tables = lake_tables(
        config.num_tables,
        config.rows_per_table,
        config.key_pool,
        seed,
    );
    let table_ids: Vec<String> = tables.iter().map(|(id, _)| id.clone()).collect();

    let sessions = (0..config.num_sessions)
        .map(|s| {
            let mut rng = stream_rng(seed, 1000 + s as u64);
            let batches = (0..config.batches_per_session)
                .map(|_| {
                    let n = 1 + rng.gen_range(0..config.requests_per_batch_max.max(1));
                    (0..n)
                        .map(|_| gen_op(&mut rng, config, &table_ids))
                        .collect()
                })
                .collect();
            SessionScript {
                name: format!("s{s}"),
                tenant: "default".to_string(),
                batches,
            }
        })
        .collect();
    SessionWorkload { tables, sessions }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_workload() {
        let cfg = SessionWorkloadConfig::default();
        let a = session_workload(&cfg, 42);
        let b = session_workload(&cfg, 42);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let c = session_workload(&cfg, 43);
        assert_ne!(format!("{a:?}"), format!("{c:?}"));
    }

    #[test]
    fn session_streams_are_independent_of_session_count() {
        let small = SessionWorkloadConfig {
            num_sessions: 2,
            ..SessionWorkloadConfig::default()
        };
        let large = SessionWorkloadConfig {
            num_sessions: 6,
            ..SessionWorkloadConfig::default()
        };
        let a = session_workload(&small, 7);
        let b = session_workload(&large, 7);
        for (sa, sb) in a.sessions.iter().zip(&b.sessions) {
            assert_eq!(format!("{sa:?}"), format!("{sb:?}"), "{} changed", sa.name);
        }
    }

    #[test]
    fn workload_mixes_all_op_kinds_and_some_poison() {
        let cfg = SessionWorkloadConfig {
            num_sessions: 4,
            batches_per_session: 12,
            ..SessionWorkloadConfig::default()
        };
        let w = session_workload(&cfg, 11);
        let ops: Vec<&SessionOp> = w
            .sessions
            .iter()
            .flat_map(|s| s.batches.iter().flatten())
            .collect();
        let mut kinds: Vec<&str> = ops.iter().map(|o| o.kind()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds, vec!["coverage", "joinable", "tailor", "union"]);
        let poisoned = ops
            .iter()
            .filter(|o| match o {
                SessionOp::Coverage { table, .. } => table.starts_with("ghost"),
                SessionOp::Tailor { sources, .. } => sources.iter().any(|s| s.starts_with("ghost")),
                _ => false,
            })
            .count();
        assert!(poisoned > 0, "poison rate must bite on a long stream");
    }

    #[test]
    fn lake_tables_support_every_op() {
        let w = session_workload(&SessionWorkloadConfig::default(), 3);
        for (id, t) in &w.tables {
            assert!(t.num_rows() > 0, "{id} empty");
            assert!(t.column("key").is_ok());
            assert!(t.column("group").is_ok());
            assert_eq!(t.schema().sensitive(), vec!["group"], "{id}");
        }
    }
}
