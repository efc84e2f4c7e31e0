//! Seeded adversarial multi-tenant serving workloads.
//!
//! The fairness-aware admission layer in `rdi-serve` needs workloads
//! where honest tenants share a serving session with adversaries — a
//! **flooder** submitting far more than its fair share and a
//! **poisoner** submitting requests that deterministically fail and
//! trip its circuit breaker. Proving the isolation invariant ("victim
//! responses are bitwise identical with and without the adversary")
//! requires the victims' request bytes to be *independent of the
//! roster*: removing the adversary from the tenant list must not shift
//! any other tenant's stream. [`tenant_workload`] guarantees that by
//! giving each [`TenantSpec`] an explicit `stream` id and drawing
//! tenant `t`'s ops from RNG stream `stream_seed(seed, 2000 + t)` —
//! disjoint from the lake streams (`i + 1`) and session streams
//! (`1000 + s`) used by [`crate::sessions`], and untouched by adding
//! or removing neighbours.
//!
//! Windows model admission ticks: each window interleaves every
//! tenant's requests round-robin by position, so adversary traffic
//! arrives *between* victim requests (the hostile interleaving), while
//! each tenant's own sequence stays a pure function of `(seed, spec)`.
//!
//! Like [`crate::sessions`], ops are serve-agnostic ([`SessionOp`])
//! and tenant knobs are plain numbers — the serving layer maps
//! [`TenantSpec`] onto its own policy type, keeping the dependency
//! arrow pointing from the serving layer to the generator.

use rand::Rng;
use rdi_par::stream_rng;
use rdi_table::Table;

use crate::sessions::{gen_op, lake_tables, SessionOp, SessionWorkloadConfig};

/// How a tenant behaves in the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantBehavior {
    /// Submits well-formed requests at its configured rate.
    Honest,
    /// Submits well-formed requests far above its fair share — the
    /// starvation adversary. Shape-wise identical to [`Honest`]
    /// traffic (only the volume differs), so any starvation is the
    /// admission layer's doing, not the request mix's.
    ///
    /// [`Honest`]: TenantBehavior::Honest
    Flood,
    /// Every request targets an unregistered ghost table — a
    /// deterministic failure stream that feeds this tenant's breaker
    /// and nobody else's.
    Poison,
}

/// One tenant in the roster: admission knobs plus scripted behavior.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Tenant name (the admission layer's tenant id).
    pub name: String,
    /// Fair-share weight (the serving layer clamps 0 to 1).
    pub weight: u64,
    /// Token-bucket refill per admission tick; `u64::MAX` = unlimited.
    pub quota_per_tick: u64,
    /// Token-bucket cap; `u64::MAX` = unlimited.
    pub burst: u64,
    /// Requests this tenant submits per window.
    pub requests_per_window: usize,
    /// Scripted behavior.
    pub behavior: TenantBehavior,
    /// RNG stream id: ops draw from `stream_seed(seed, 2000 + stream)`.
    /// Explicit (not positional) so dropping a tenant from the roster
    /// leaves every other tenant's stream untouched.
    pub stream: u64,
}

impl TenantSpec {
    /// An honest tenant with unlimited quota.
    pub fn honest(name: &str, stream: u64, weight: u64, requests_per_window: usize) -> Self {
        TenantSpec {
            name: name.to_string(),
            weight,
            quota_per_tick: u64::MAX,
            burst: u64::MAX,
            requests_per_window,
            behavior: TenantBehavior::Honest,
            stream,
        }
    }

    /// A flooding tenant with unlimited quota (fairness must come from
    /// queue shares, not this tenant's own contract).
    pub fn flooder(name: &str, stream: u64, weight: u64, requests_per_window: usize) -> Self {
        TenantSpec {
            behavior: TenantBehavior::Flood,
            ..TenantSpec::honest(name, stream, weight, requests_per_window)
        }
    }

    /// A poisoning tenant with unlimited quota (isolation must come
    /// from per-tenant breakers, not this tenant's own contract).
    pub fn poisoner(name: &str, stream: u64, weight: u64, requests_per_window: usize) -> Self {
        TenantSpec {
            behavior: TenantBehavior::Poison,
            ..TenantSpec::honest(name, stream, weight, requests_per_window)
        }
    }

    /// Cap this tenant's token bucket.
    pub fn with_quota(mut self, quota_per_tick: u64, burst: u64) -> Self {
        self.quota_per_tick = quota_per_tick;
        self.burst = burst;
        self
    }
}

/// Configuration of an adversarial multi-tenant workload.
#[derive(Debug, Clone)]
pub struct TenantWorkloadConfig {
    /// Tables registered in the shared lake.
    pub num_tables: usize,
    /// Rows per lake table.
    pub rows_per_table: usize,
    /// Size of the shared key pool.
    pub key_pool: usize,
    /// Admission windows (one submitted batch per window).
    pub windows: usize,
    /// Top-k for union/joinability requests.
    pub top_k: usize,
    /// The tenant roster, in arrival order within each window.
    pub tenants: Vec<TenantSpec>,
}

impl Default for TenantWorkloadConfig {
    fn default() -> Self {
        TenantWorkloadConfig {
            num_tables: 6,
            rows_per_table: 80,
            key_pool: 300,
            windows: 6,
            top_k: 3,
            tenants: vec![
                TenantSpec::honest("alice", 0, 2, 2),
                TenantSpec::honest("bob", 1, 2, 2),
                TenantSpec::flooder("mallory", 8, 1, 12),
            ],
        }
    }
}

/// A generated workload: the shared lake plus tenant-tagged windows.
#[derive(Debug, Clone)]
pub struct TenantWorkload {
    /// Lake tables in registration order (`lake00`, `lake01`, ...).
    pub tables: Vec<(String, Table)>,
    /// One batch per window; requests in arrival order, each tagged
    /// with its tenant's name.
    pub windows: Vec<Vec<(String, SessionOp)>>,
}

impl TenantWorkload {
    /// All of one tenant's ops across every window, in arrival order —
    /// the per-tenant stream the isolation invariant compares.
    pub fn ops_for(&self, tenant: &str) -> Vec<&SessionOp> {
        self.windows
            .iter()
            .flatten()
            .filter(|(t, _)| t == tenant)
            .map(|(_, op)| op)
            .collect()
    }
}

/// Generate one tenant's private op stream for every window.
fn tenant_ops(
    spec: &TenantSpec,
    config: &TenantWorkloadConfig,
    seed: u64,
    table_ids: &[String],
) -> Vec<Vec<SessionOp>> {
    let mut rng = stream_rng(seed, 2000 + spec.stream);
    // gen_op only reads the mix knobs, so a throwaway session config
    // carries them; honest and flood traffic are both poison-free.
    let mix = SessionWorkloadConfig {
        key_pool: config.key_pool,
        top_k: config.top_k,
        poison_rate: 0.0,
        ..SessionWorkloadConfig::default()
    };
    (0..config.windows)
        .map(|_| {
            (0..spec.requests_per_window)
                .map(|_| match spec.behavior {
                    TenantBehavior::Honest | TenantBehavior::Flood => {
                        gen_op(&mut rng, &mix, table_ids)
                    }
                    TenantBehavior::Poison => SessionOp::Coverage {
                        table: format!("ghost{:02}", rng.gen_range(0..100)),
                        attributes: vec!["group".to_string()],
                        threshold: 1,
                    },
                })
                .collect()
        })
        .collect()
}

/// Generate an adversarial multi-tenant workload. The lake shares
/// [`crate::sessions`]'s table streams; tenant `t` draws from stream
/// `2000 + t.stream`, so every tenant's ops are a pure function of
/// `(seed, its own spec)` — independent of the rest of the roster.
/// Within each window, requests interleave round-robin by position
/// across the roster's arrival order.
pub fn tenant_workload(config: &TenantWorkloadConfig, seed: u64) -> TenantWorkload {
    assert!(config.num_tables > 0 && config.rows_per_table > 0);
    assert!(!config.tenants.is_empty());
    let tables = lake_tables(
        config.num_tables,
        config.rows_per_table,
        config.key_pool,
        seed,
    );
    let table_ids: Vec<String> = tables.iter().map(|(id, _)| id.clone()).collect();

    let streams: Vec<Vec<Vec<SessionOp>>> = config
        .tenants
        .iter()
        .map(|spec| tenant_ops(spec, config, seed, &table_ids))
        .collect();

    let windows = (0..config.windows)
        .map(|w| {
            let widest = config
                .tenants
                .iter()
                .map(|s| s.requests_per_window)
                .max()
                .unwrap_or(0);
            let mut batch = Vec::new();
            for pos in 0..widest {
                for (spec, ops) in config.tenants.iter().zip(&streams) {
                    if let Some(op) = ops[w].get(pos) {
                        batch.push((spec.name.clone(), op.clone()));
                    }
                }
            }
            batch
        })
        .collect();
    TenantWorkload { tables, windows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_workload() {
        let cfg = TenantWorkloadConfig::default();
        let a = tenant_workload(&cfg, 42);
        let b = tenant_workload(&cfg, 42);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let c = tenant_workload(&cfg, 43);
        assert_ne!(format!("{a:?}"), format!("{c:?}"));
    }

    #[test]
    fn tenant_streams_are_independent_of_the_roster() {
        let full = TenantWorkloadConfig::default();
        let victims_only = TenantWorkloadConfig {
            tenants: full
                .tenants
                .iter()
                .filter(|t| t.behavior == TenantBehavior::Honest)
                .cloned()
                .collect(),
            ..full.clone()
        };
        let a = tenant_workload(&full, 7);
        let b = tenant_workload(&victims_only, 7);
        for victim in ["alice", "bob"] {
            assert_eq!(
                format!("{:?}", a.ops_for(victim)),
                format!("{:?}", b.ops_for(victim)),
                "{victim}'s stream shifted when the adversary was removed"
            );
        }
    }

    #[test]
    fn poison_ops_always_target_ghost_tables() {
        let cfg = TenantWorkloadConfig {
            tenants: vec![
                TenantSpec::honest("alice", 0, 1, 2),
                TenantSpec::poisoner("petya", 9, 1, 3),
            ],
            ..TenantWorkloadConfig::default()
        };
        let w = tenant_workload(&cfg, 5);
        let petya = w.ops_for("petya");
        assert_eq!(petya.len(), 3 * cfg.windows);
        for op in petya {
            match op {
                SessionOp::Coverage { table, .. } => {
                    assert!(table.starts_with("ghost"), "{table}");
                }
                other => panic!("poisoner produced {other:?}"),
            }
        }
        for op in w.ops_for("alice") {
            if let SessionOp::Coverage { table, .. } = op {
                assert!(!table.starts_with("ghost"), "honest tenant poisoned");
            }
        }
    }

    #[test]
    fn windows_interleave_round_robin_and_respect_rates() {
        let cfg = TenantWorkloadConfig::default();
        let w = tenant_workload(&cfg, 3);
        assert_eq!(w.windows.len(), cfg.windows);
        for window in &w.windows {
            // 2 + 2 + 12 requests per window, adversary interleaved
            // between the victims' requests while they still have some.
            assert_eq!(window.len(), 16);
            let names: Vec<&str> = window.iter().map(|(t, _)| t.as_str()).collect();
            assert_eq!(
                &names[..6],
                &["alice", "bob", "mallory", "alice", "bob", "mallory"]
            );
            assert!(names[6..].iter().all(|n| *n == "mallory"));
        }
    }

    #[test]
    fn lake_matches_the_session_generator() {
        let cfg = TenantWorkloadConfig::default();
        let w = tenant_workload(&cfg, 11);
        let s = crate::sessions::session_workload(
            &crate::sessions::SessionWorkloadConfig {
                num_tables: cfg.num_tables,
                rows_per_table: cfg.rows_per_table,
                key_pool: cfg.key_pool,
                ..Default::default()
            },
            11,
        );
        assert_eq!(format!("{:?}", w.tables), format!("{:?}", s.tables));
    }
}
