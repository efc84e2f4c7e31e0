//! Batched request execution with bounded admission and load shedding.
//!
//! A [`ServeSession`] owns a [`LakeIndex`] and answers batches of
//! [`ServeRequest`]s. It is the serial driver of the batch
//! (`crate::batch`) the actor path drives too, in three deterministic
//! phases:
//!
//! 1. **Admission** (serial, arrival order): each request either enters
//!    the bounded queue or is shed with a typed error —
//!    [`ServeError::QuotaExceeded`] past its tenant's token bucket,
//!    [`ServeError::QueueFull`] past its tenant's queue share,
//!    [`ServeError::CircuitOpen`] once its tenant's breaker has
//!    tripped. Shedding *degrades the batch to partial results*; it
//!    never panics and never blocks.
//! 2. **Warm** (serial, request-major in arrival order): every admitted
//!    request's sketches are built or fetched from the cache — the
//!    only cache-mutating phase, so hit/miss/eviction accounting is a
//!    pure function of the request stream.
//! 3. **Execute** (parallel on the session's own [`rdi_par::Pool`],
//!    whose workers start with the first parallel batch and live as
//!    long as the session): plans run as pure functions of
//!    `(plan, seed)`, each request drawing from its own RNG stream
//!    `stream_seed(session seed, arrival index)`. Results are spliced
//!    back in arrival order, so a batch is **bitwise identical** to
//!    submitting the same requests one at a time — for any
//!    `RDI_THREADS`.
//!
//! Admission is multi-tenant and fairness-aware (see [`crate::admit`]):
//! every request belongs to a [`TenantId`] (untagged batches to the
//! default tenant), each tenant owns a deterministic token bucket, a
//! weighted queue share with priority aging, and its own half-open
//! [`RecoveringBreaker`](rdi_fault::RecoveringBreaker) — so one
//! tenant's flood or poison traffic is shed against its *own* contract
//! and never starves or sheds another's. The session clock ticks once
//! per submitted batch; cooldowns and bucket refills run on that fake
//! clock, never wall time, so outcomes stay a pure function of the
//! request stream. Per-request outcomes feed the owning tenant's
//! breaker in arrival order (sheds never count), and recovery admits
//! exactly one probe per cooled-down tenant.

use rdi_fault::RecoveryState;
use rdi_par::{Pool, Threads};

use crate::admit::{AdmitConfig, Admitter, TaggedRequest, TenantId};
use crate::batch::Batch;
use crate::cache::CacheGauges;
use crate::error::ServeError;
use crate::index::{execute, LakeIndex};
use crate::metrics;
use crate::request::{ServeRequest, ServeResponse};

/// Session knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionConfig {
    /// Maximum requests admitted per batch; the rest are shed with
    /// [`ServeError::QueueFull`].
    pub queue_capacity: usize,
    /// Consecutive request failures after which a tenant's breaker
    /// opens (clamped to ≥ 1).
    pub breaker_threshold: u32,
    /// Ticks (one per submitted batch) an open tenant breaker cools
    /// down before admitting a single half-open probe request (clamped
    /// to ≥ 1).
    pub breaker_cooldown_ticks: u64,
    /// Thread configuration for the execute phase: the session keeps
    /// at most `threads − 1` execute workers.
    pub threads: Threads,
    /// Master seed. The default tenant's request `i` (by arrival,
    /// across batches) executes with RNG stream `stream_seed(seed, i)`;
    /// tenant `t`'s requests run on its own lane (see [`crate::admit`]),
    /// independent of other tenants' traffic.
    pub seed: u64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            queue_capacity: 64,
            breaker_threshold: 5,
            breaker_cooldown_ticks: 4,
            threads: Threads::auto(),
            seed: 0,
        }
    }
}

/// Outcome of one batch: per-request results in submission order, plus
/// degradation accounting.
#[derive(Debug)]
pub struct BatchReport {
    /// One slot per submitted request, in order.
    pub responses: Vec<Result<ServeResponse, ServeError>>,
    /// Requests that entered the queue.
    pub admitted: usize,
    /// Requests shed at admission (breaker open or queue full).
    pub shed: usize,
    /// True when any request was shed or failed — the batch shipped
    /// partial results.
    pub degraded: bool,
    /// Every [`rdi_obs::ProvenanceEvent::PolicyDecision`] behind this
    /// batch's answers, in decision order: the admitter's reserved-slot
    /// ranking, then cache-eviction victims from the warm phase, then
    /// per-request ranking decisions in slot order. Replaying these is
    /// how a caller audits *why* each winner won.
    pub decisions: Vec<rdi_obs::ProvenanceEvent>,
}

/// A long-lived serving session over a [`LakeIndex`].
#[derive(Debug)]
pub struct ServeSession {
    index: LakeIndex,
    config: SessionConfig,
    admitter: Admitter,
    /// The execute phase's workers, joined when the session drops.
    pool: Pool,
    /// Publishes the shards' cache and maintained-store bytes at the
    /// end of every batch.
    gauges: CacheGauges,
}

impl ServeSession {
    /// Wrap an index in a session with single-tenant admission knobs
    /// derived from `config` (the default tenant is unlimited).
    pub fn new(index: LakeIndex, config: SessionConfig) -> Self {
        let admit = AdmitConfig::from_session(&config);
        Self::with_admission(index, config, admit)
    }

    /// Wrap an index in a session with explicit multi-tenant admission
    /// knobs. `admit` governs admission (capacity, quotas, aging,
    /// breakers); `config` supplies only the execute-phase threads and
    /// the session seed: its `queue_capacity`, `breaker_threshold` and
    /// `breaker_cooldown_ticks` are ignored.
    pub fn with_admission(index: LakeIndex, config: SessionConfig, admit: AdmitConfig) -> Self {
        ServeSession {
            index,
            admitter: Admitter::new(admit, config.seed),
            pool: Pool::new(config.threads.min_len(2)),
            config,
            gauges: CacheGauges::default(),
        }
    }

    /// The underlying index (e.g. to register more tables between
    /// batches).
    pub fn index_mut(&mut self) -> &mut LakeIndex {
        &mut self.index
    }

    /// Read access to the underlying index.
    pub fn index(&self) -> &LakeIndex {
        &self.index
    }

    /// Tear the session down, keeping the (warm) index; the execute
    /// workers are joined. A new session over the returned index
    /// restarts the arrival counter, so replaying the same request
    /// stream yields bitwise-identical responses — now served from
    /// cache.
    pub fn into_index(self) -> LakeIndex {
        self.index
    }

    /// The session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// The admission state machine (per-tenant buckets, aging credits,
    /// and breakers).
    pub fn admitter(&self) -> &Admitter {
        &self.admitter
    }

    /// True while the default tenant's breaker sheds its ordinary
    /// traffic (open and cooling down, or waiting on a half-open
    /// probe). Per-tenant states are on [`ServeSession::admitter`].
    pub fn breaker_open(&self) -> bool {
        self.admitter.breaker_is_open(&TenantId::default())
    }

    /// The default tenant's breaker state (closed / open / half-open).
    pub fn breaker_state(&self) -> RecoveryState {
        self.admitter.breaker_state(&TenantId::default())
    }

    /// Requests seen so far (admitted or shed), across all batches and
    /// tenants.
    pub fn arrivals(&self) -> u64 {
        self.admitter.arrivals()
    }

    /// Session clock: batches submitted so far (breaker cooldowns and
    /// bucket refills are measured on this clock).
    pub fn ticks(&self) -> u64 {
        self.admitter.ticks()
    }

    /// Answer a batch from the default tenant. Never panics on bad
    /// requests: each slot in the report is its own `Result`, and shed
    /// or failing requests leave their neighbours untouched.
    pub fn submit_batch(&mut self, requests: &[ServeRequest]) -> BatchReport {
        let tenants = vec![TenantId::default(); requests.len()];
        let refs: Vec<&ServeRequest> = requests.iter().collect();
        self.submit_inner(tenants, &refs)
    }

    /// Answer a batch of tenant-tagged requests; slots keep submission
    /// order across tenants. Same degradation contract as
    /// [`ServeSession::submit_batch`].
    pub fn submit_batch_tagged(&mut self, requests: &[TaggedRequest]) -> BatchReport {
        let tenants: Vec<TenantId> = requests.iter().map(|r| r.tenant.clone()).collect();
        let refs: Vec<&ServeRequest> = requests.iter().map(|r| &r.request).collect();
        self.submit_inner(tenants, &refs)
    }

    /// The serial driver of a [`Batch`]: warm every need inline,
    /// request-major in arrival order (the only step that touches the
    /// cache), then run the plans on the session's workers, which return
    /// results in input order.
    fn submit_inner(&mut self, tenants: Vec<TenantId>, requests: &[&ServeRequest]) -> BatchReport {
        let _span = rdi_obs::span(metrics::BATCH_SPAN);
        let (mut batch, warm) = Batch::start(
            &mut self.admitter,
            tenants,
            requests,
            self.index.shard_count(),
        );
        let k = self.index.config().minhash_k;
        let shards = self.index.shards_mut();
        for (pos, si, need) in warm {
            batch.warmed(pos, shards[si].warm(need, k));
        }
        for (si, shard) in shards.iter_mut().enumerate() {
            let bytes = shard.bytes();
            batch.replied(si, shard.len(), bytes, shard.drain_decisions().collect());
        }
        let pool = &mut self.pool;
        batch.finish(
            &mut self.admitter,
            requests,
            self.index.policies(),
            &mut self.gauges,
            |jobs| pool.map(jobs, |(seed, plan)| execute(plan, *seed)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::LakeIndexConfig;
    use rdi_table::{DataType, Field, GroupKey, GroupSpec, Role, Schema, Table, TableError, Value};
    use rdi_tailor::DtProblem;

    fn keyed(vals: &[&str]) -> Table {
        let schema = Schema::new(vec![Field::new("key", DataType::Str)]);
        let mut t = Table::new(schema);
        for v in vals {
            t.push_row(vec![Value::str(*v)]).unwrap();
        }
        t
    }

    fn grouped(rows: &[(&str, f64)]) -> Table {
        let schema = Schema::new(vec![
            Field::new("group", DataType::Str).with_role(Role::Sensitive),
            Field::new("x", DataType::Float),
        ]);
        let mut t = Table::new(schema);
        for (g, x) in rows {
            t.push_row(vec![Value::str(*g), Value::Float(*x)]).unwrap();
        }
        t
    }

    fn session() -> ServeSession {
        let mut idx = LakeIndex::new(LakeIndexConfig::default());
        idx.register("abc", keyed(&["a", "b", "c"]), 1.0).unwrap();
        idx.register("abx", keyed(&["a", "b", "x"]), 1.0).unwrap();
        let rows: Vec<(&str, f64)> = (0..60)
            .map(|i| (if i % 3 == 0 { "min" } else { "maj" }, i as f64))
            .collect();
        idx.register("pop", grouped(&rows), 1.0).unwrap();
        ServeSession::new(idx, SessionConfig::default())
    }

    fn problem() -> DtProblem {
        DtProblem::exact_counts(
            GroupSpec::new(vec!["group"]),
            vec![
                (GroupKey(vec![Value::str("maj")]), 5),
                (GroupKey(vec![Value::str("min")]), 5),
            ],
        )
    }

    fn mixed_batch() -> Vec<ServeRequest> {
        vec![
            ServeRequest::UnionTopK {
                query: keyed(&["a", "b", "c"]),
                k: 2,
            },
            ServeRequest::JoinableTopK {
                query: keyed(&["a", "b"]),
                column: "key".into(),
                k: 2,
            },
            ServeRequest::CoverageProbe {
                table: "pop".into(),
                attributes: vec!["group".into()],
                threshold: 10,
            },
            ServeRequest::TailorRun {
                problem: problem(),
                sources: vec!["pop".into()],
                max_draws: 5_000,
            },
        ]
    }

    #[test]
    fn mixed_batch_answers_every_request() {
        let mut s = session();
        let report = s.submit_batch(&mixed_batch());
        assert_eq!(report.responses.len(), 4);
        assert_eq!(report.admitted, 4);
        assert_eq!(report.shed, 0);
        assert!(!report.degraded, "{:?}", report.responses);
        assert!(matches!(
            report.responses[0],
            Ok(ServeResponse::UnionTopK(_))
        ));
        assert!(matches!(
            report.responses[1],
            Ok(ServeResponse::JoinableTopK(_))
        ));
        assert!(matches!(
            report.responses[2],
            Ok(ServeResponse::Coverage(_))
        ));
        match &report.responses[3] {
            Ok(ServeResponse::Tailored(t)) => {
                // `exact_counts` keeps unboundedly (`hi = MAX`): at
                // least 5 of each group, plus surplus majority rows
                // drawn while the minority catches up.
                assert!(t.rows >= 10, "rows={}", t.rows);
                assert!(!t.degraded);
            }
            other => panic!("expected tailor report, got {other:?}"),
        }
    }

    #[test]
    fn batched_equals_one_at_a_time() {
        let batch = mixed_batch();
        let mut all = session();
        let whole = all.submit_batch(&batch);
        let mut one = session();
        let singles: Vec<_> = batch
            .iter()
            .map(|r| {
                let mut rep = one.submit_batch(std::slice::from_ref(r));
                rep.responses.remove(0)
            })
            .collect();
        assert_eq!(whole.responses, singles);
    }

    /// A one-shot ranking made on the session's index is not behind the
    /// next batch's answers: it stays on the index for its own drain.
    #[test]
    fn one_shot_decisions_stay_out_of_the_next_report() {
        let is_union_rank = |e: &rdi_obs::ProvenanceEvent| {
            matches!(e, rdi_obs::ProvenanceEvent::PolicyDecision { policy, .. }
                if *policy == "discovery.union_rank")
        };
        let mut s = session();
        s.index_mut().union_top_k(&keyed(&["a", "b"]), 1).unwrap();
        let report = s.submit_batch(&[mixed_batch().remove(2)]);
        assert!(report.responses[0].is_ok(), "{:?}", report.responses);
        assert!(
            !report.decisions.iter().any(is_union_rank),
            "{:?}",
            report.decisions
        );
        let held = s.index_mut().drain_decisions();
        assert_eq!(held.iter().filter(|e| is_union_rank(e)).count(), 1);
    }

    #[test]
    fn queue_overflow_sheds_to_partial_results() {
        let mut idx = LakeIndex::default();
        idx.register("t", keyed(&["a", "b"]), 1.0).unwrap();
        let mut s = ServeSession::new(
            idx,
            SessionConfig {
                queue_capacity: 2,
                ..SessionConfig::default()
            },
        );
        let req = ServeRequest::UnionTopK {
            query: keyed(&["a"]),
            k: 1,
        };
        let report = s.submit_batch(&vec![req.clone(); 5]);
        assert_eq!(report.admitted, 2);
        assert_eq!(report.shed, 3);
        assert!(report.degraded);
        assert!(report.responses[0].is_ok());
        assert!(report.responses[1].is_ok());
        for r in &report.responses[2..] {
            assert_eq!(r, &Err(ServeError::QueueFull { capacity: 2 }));
        }
    }

    #[test]
    fn consecutive_failures_trip_the_breaker_and_shed_later_batches() {
        let mut s = session();
        let poison = ServeRequest::CoverageProbe {
            table: "missing".into(),
            attributes: vec!["group".into()],
            threshold: 1,
        };
        let threshold = s.config().breaker_threshold as usize;
        let report = s.submit_batch(&vec![poison; threshold]);
        assert!(report.degraded);
        assert!(s.breaker_open());
        // a healthy batch is now fully shed — degraded, never panicking
        let after = s.submit_batch(&mixed_batch());
        assert_eq!(after.admitted, 0);
        assert_eq!(after.shed, 4);
        assert!(after
            .responses
            .iter()
            .all(|r| matches!(r, Err(ServeError::CircuitOpen { .. }))));
    }

    #[test]
    fn coverage_past_u16_codes_is_a_typed_error_in_its_slot() {
        // Regression: pattern codes were `i as u16`, so an attribute with
        // 65 537 values aliased codes instead of failing.
        let schema = Schema::new(vec![Field::new("id", DataType::Int)]);
        let ids = rdi_table::Column::Int((0..65_537).map(Some).collect());
        let wide = Table::from_columns(schema, vec![ids]).unwrap();
        let mut s = session();
        s.index_mut().register("wide", wide, 1.0).unwrap();
        let probe = ServeRequest::CoverageProbe {
            table: "wide".into(),
            attributes: vec!["id".into()],
            threshold: 1,
        };
        let report = s.submit_batch(&[probe, mixed_batch().remove(2)]);
        match &report.responses[0] {
            Err(ServeError::Table(TableError::SchemaMismatch(msg))) => {
                assert!(msg.contains("`id`") && msg.contains("65537"), "{msg}");
            }
            other => panic!("expected a typed table error, got {other:?}"),
        }
        assert!(matches!(
            report.responses[1],
            Ok(ServeResponse::Coverage(_))
        ));
    }

    /// An unknown attribute is a typed error in its slot: coverage
    /// reports the table and column, tailoring the table error its
    /// source construction raises; a coverage probe with no attributes
    /// fails in the counter.
    #[test]
    fn unknown_attributes_are_typed_errors_in_their_slots() {
        let mut s = session();
        let mut ghost = problem();
        ghost.spec = GroupSpec::new(vec!["group", "nope"]);
        let requests = [
            ServeRequest::CoverageProbe {
                table: "pop".into(),
                attributes: vec!["group".into(), "nope".into(), "gone".into()],
                threshold: 10,
            },
            ServeRequest::TailorRun {
                problem: ghost,
                sources: vec!["abc".into(), "pop".into()],
                max_draws: 10,
            },
            ServeRequest::CoverageProbe {
                table: "pop".into(),
                attributes: vec![],
                threshold: 10,
            },
        ];
        let report = s.submit_batch(&requests);
        assert_eq!(
            report.responses,
            vec![
                Err(ServeError::UnknownColumn {
                    table: "pop".into(),
                    column: "nope".into(),
                }),
                Err(ServeError::Table(TableError::UnknownColumn("group".into()))),
                Err(ServeError::Table(TableError::SchemaMismatch(
                    "coverage needs at least one attribute".into()
                ))),
            ]
        );
    }

    #[test]
    fn failures_interleaved_with_successes_do_not_trip() {
        let mut s = session();
        let good = ServeRequest::UnionTopK {
            query: keyed(&["a"]),
            k: 1,
        };
        let bad = ServeRequest::CoverageProbe {
            table: "missing".into(),
            attributes: vec![],
            threshold: 1,
        };
        for _ in 0..4 {
            let r = s.submit_batch(&[bad.clone(), good.clone()]);
            assert!(r.degraded);
        }
        assert!(!s.breaker_open(), "successes keep resetting the breaker");
    }

    #[test]
    fn breaker_recovers_after_cooldown_via_half_open_probe() {
        // Regression: the session breaker used to stay open forever —
        // one poison batch shed all future traffic. Now the cooldown
        // (measured in batch ticks) ends in a single probe request,
        // and a successful probe closes the breaker.
        let mut s = session();
        let poison = ServeRequest::CoverageProbe {
            table: "missing".into(),
            attributes: vec!["group".into()],
            threshold: 1,
        };
        let threshold = s.config().breaker_threshold as usize;
        let cooldown = s.config().breaker_cooldown_ticks;
        s.submit_batch(&vec![poison; threshold]);
        assert_eq!(s.breaker_state(), RecoveryState::Open);
        let opened_at = s.ticks();
        // Batches during the cooldown are fully shed.
        for _ in 0..cooldown - 1 {
            let r = s.submit_batch(&mixed_batch());
            assert_eq!(r.admitted, 0, "cooling-down batch must shed");
            assert_eq!(s.breaker_state(), RecoveryState::Open);
        }
        // The first batch at `opened_at + cooldown` admits exactly one
        // probe; its success closes the breaker mid-batch, so the rest
        // of the batch is admitted too.
        let probe_batch = s.submit_batch(&mixed_batch());
        assert_eq!(s.ticks(), opened_at + cooldown);
        assert!(probe_batch.admitted >= 1, "probe must be admitted");
        assert!(probe_batch.responses[0].is_ok(), "probe succeeds");
        assert_eq!(s.breaker_state(), RecoveryState::Closed);
        // The session serves healthy batches again.
        let healthy = s.submit_batch(&mixed_batch());
        assert_eq!(healthy.admitted, 4);
        assert_eq!(healthy.shed, 0);
        assert!(!healthy.degraded, "{:?}", healthy.responses);
    }

    #[test]
    fn failed_probe_reopens_the_session_breaker() {
        let mut s = session();
        let poison = ServeRequest::CoverageProbe {
            table: "missing".into(),
            attributes: vec!["group".into()],
            threshold: 1,
        };
        let threshold = s.config().breaker_threshold as usize;
        let cooldown = s.config().breaker_cooldown_ticks;
        s.submit_batch(&vec![poison.clone(); threshold]);
        for _ in 0..cooldown - 1 {
            s.submit_batch(std::slice::from_ref(&poison));
        }
        // Probe batch is itself poison: the probe fails and re-opens.
        let r = s.submit_batch(std::slice::from_ref(&poison));
        assert_eq!(r.admitted, 1);
        assert_eq!(s.breaker_state(), RecoveryState::Open);
        // Cooldown restarted: next batch sheds again.
        let r = s.submit_batch(&mixed_batch());
        assert_eq!(r.admitted, 0);
    }

    #[test]
    fn breaker_recovery_replays_bitwise_across_thread_counts() {
        // The whole trip → cooldown → probe → recovery arc is a pure
        // function of the request stream, so replays with different
        // execute-phase thread counts are bitwise identical.
        let run = |threads: Threads| {
            let mut idx = LakeIndex::new(LakeIndexConfig::default());
            idx.register("abc", keyed(&["a", "b", "c"]), 1.0).unwrap();
            idx.register("abx", keyed(&["a", "b", "x"]), 1.0).unwrap();
            let rows: Vec<(&str, f64)> = (0..60)
                .map(|i| (if i % 3 == 0 { "min" } else { "maj" }, i as f64))
                .collect();
            idx.register("pop", grouped(&rows), 1.0).unwrap();
            let mut s = ServeSession::new(
                idx,
                SessionConfig {
                    threads,
                    ..SessionConfig::default()
                },
            );
            let poison = ServeRequest::CoverageProbe {
                table: "missing".into(),
                attributes: vec!["group".into()],
                threshold: 1,
            };
            let mut log = String::new();
            let threshold = s.config().breaker_threshold as usize;
            let cooldown = s.config().breaker_cooldown_ticks;
            log.push_str(&format!("{:?}\n", s.submit_batch(&vec![poison; threshold])));
            for _ in 0..cooldown {
                log.push_str(&format!("{:?}\n", s.submit_batch(&mixed_batch())));
            }
            log.push_str(&format!("{:?} {:?}\n", s.breaker_state(), s.ticks()));
            log
        };
        let serial = run(Threads::fixed(1));
        assert_eq!(serial, run(Threads::fixed(2)));
        assert_eq!(serial, run(Threads::fixed(8)));
    }

    /// One seeded `session_workload` stream: its lake and its batches as
    /// serving requests.
    fn workload_stream(
        seed: u64,
        batches: usize,
    ) -> (Vec<(String, Table)>, Vec<Vec<ServeRequest>>) {
        use rdi_datagen::{session_workload, SessionOp, SessionWorkloadConfig};
        let config = SessionWorkloadConfig {
            num_sessions: 1,
            batches_per_session: batches,
            requests_per_batch_max: 6,
            ..SessionWorkloadConfig::default()
        };
        let w = session_workload(&config, seed);
        let to_request = |op: &SessionOp| match op.clone() {
            SessionOp::Union { query, k } => ServeRequest::UnionTopK { query, k },
            SessionOp::Joinable { query, column, k } => {
                ServeRequest::JoinableTopK { query, column, k }
            }
            SessionOp::Coverage {
                table,
                attributes,
                threshold,
            } => ServeRequest::CoverageProbe {
                table,
                attributes,
                threshold,
            },
            SessionOp::Tailor {
                problem,
                sources,
                max_draws,
            } => ServeRequest::TailorRun {
                problem,
                sources,
                max_draws,
            },
        };
        let stream = w.sessions[0]
            .batches
            .iter()
            .map(|b| b.iter().map(to_request).collect())
            .collect();
        (w.tables, stream)
    }

    fn session_over(tables: &[(String, Table)], threads: Threads) -> ServeSession {
        let mut idx = LakeIndex::new(LakeIndexConfig::default());
        for (id, table) in tables {
            idx.register(id.clone(), table.clone(), 1.0).unwrap();
        }
        ServeSession::new(
            idx,
            SessionConfig {
                threads,
                ..SessionConfig::default()
            },
        )
    }

    #[test]
    fn workload_stream_replays_bitwise_across_thread_counts() {
        // Sixty batches through one session reuse its execute workers
        // batch after batch; every response and decision list (Debug
        // prints each f64 exactly) must match the serial replay.
        let (tables, stream) = workload_stream(0x5eed, 60);
        let run = |threads: Threads| {
            let mut s = session_over(&tables, threads);
            let reports: Vec<String> = stream
                .iter()
                .map(|b| {
                    let r = s.submit_batch(b);
                    format!("{:?}\n{:?}", r.responses, r.decisions)
                })
                .collect();
            assert!(s.pool.workers() < threads.get().max(2));
            reports
        };
        let serial = run(Threads::fixed(1));
        assert!(serial.iter().any(|r| r.contains("Tailored")));
        for t in [2, 8] {
            let parallel = run(Threads::fixed(t));
            for (b, (want, got)) in serial.iter().zip(&parallel).enumerate() {
                assert_eq!(want, got, "batch {b} at {t} threads");
            }
        }
    }

    #[test]
    fn worker_spans_nest_like_serial_ones() {
        // A root no other test opens keeps concurrent tests' spans out
        // of the global registry's records read here.
        let mut batch = mixed_batch();
        batch.extend(vec![mixed_batch().remove(3); 3]);
        let paths = |threads: Threads| {
            let root = format!("span_probe_{}", threads.get());
            let mut s = ServeSession::new(
                session().into_index(),
                SessionConfig {
                    threads,
                    ..SessionConfig::default()
                },
            );
            {
                let _root = rdi_obs::span(&root);
                s.submit_batch(&batch);
            }
            let prefix = format!("{root}/");
            let mut paths: Vec<String> = rdi_obs::global()
                .span_records()
                .into_iter()
                .filter_map(|r| r.path.strip_prefix(&prefix).map(str::to_string))
                .collect();
            paths.sort();
            paths
        };
        let serial = paths(Threads::serial());
        assert!(serial.contains(&"serve.batch/serve.tailor/tailor".to_string()));
        assert_eq!(paths(Threads::fixed(2)), serial);
        assert_eq!(paths(Threads::fixed(8)), serial);
    }

    #[test]
    fn a_long_session_keeps_few_workers_and_into_index_joins_them() {
        thread_local! {
            /// A clone of the watched `Arc`, dropped when the thread exits.
            static HELD: std::cell::RefCell<Option<std::sync::Arc<()>>> =
                const { std::cell::RefCell::new(None) };
        }
        let t = 3;
        let mut s = session_over(
            &[("abc".into(), keyed(&["a", "b", "c"]))],
            Threads::fixed(t),
        );
        let batch = vec![
            ServeRequest::UnionTopK {
                query: keyed(&["a", "b"]),
                k: 1,
            };
            t
        ];
        for _ in 0..1_000 {
            assert_eq!(s.submit_batch(&batch).admitted, t);
        }
        assert_eq!(s.pool.workers(), t - 1);
        // Jobs that wait for each other run on the caller and on every
        // worker at once; each worker keeps a clone until it exits.
        let watched = std::sync::Arc::new(());
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(t));
        let caller = std::thread::current().id();
        let w = std::sync::Arc::clone(&watched);
        s.pool.map(vec![(); t], move |()| {
            barrier.wait();
            if std::thread::current().id() != caller {
                HELD.with(|held| *held.borrow_mut() = Some(std::sync::Arc::clone(&w)));
            }
        });
        assert!(std::sync::Arc::strong_count(&watched) > t - 1);
        let _index = s.into_index();
        assert_eq!(std::sync::Arc::strong_count(&watched), 1);
    }

    /// The replay's "builds no sketch" counter check lives in
    /// `tests/maintenance_counters.rs`: the counter is process-global,
    /// and parallel tests here build sketches.
    #[test]
    fn warm_replay_is_bitwise_identical() {
        let mut s = session();
        let batch = mixed_batch();
        let cold = s.submit_batch(&batch);
        // Re-serve the same stream over the warm index: same arrival
        // indices, so even the randomized tailor run replays exactly.
        let mut warm_session = ServeSession::new(s.into_index(), SessionConfig::default());
        let warm = warm_session.submit_batch(&batch);
        assert_eq!(cold.responses, warm.responses);
    }
}
