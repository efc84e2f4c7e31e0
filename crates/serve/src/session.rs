//! Batched request execution with bounded admission and load shedding.
//!
//! A [`ServeSession`] owns a [`LakeIndex`] and answers batches of
//! [`ServeRequest`]s in three deterministic phases:
//!
//! 1. **Admission** (serial, arrival order): each request either enters
//!    the bounded queue or is shed with a typed error —
//!    [`ServeError::QuotaExceeded`] past its tenant's token bucket,
//!    [`ServeError::QueueFull`] past its tenant's queue share,
//!    [`ServeError::CircuitOpen`] once its tenant's breaker has
//!    tripped. Shedding *degrades the batch to partial results*; it
//!    never panics and never blocks.
//! 2. **Warm** (serial, arrival order): every admitted request is
//!    validated and its sketches are built or fetched from the cache —
//!    the only cache-mutating phase, so hit/miss/eviction accounting is
//!    a pure function of the request stream.
//! 3. **Execute** (parallel over `rdi-par`): plans run as pure
//!    functions of `(plan, seed)`, each request drawing from its own
//!    RNG stream `stream_seed(session seed, arrival index)`. Results
//!    are spliced back in arrival order, so a batch is **bitwise
//!    identical** to submitting the same requests one at a time — for
//!    any `RDI_THREADS`.
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
use rdi_par::{par_map, Threads};

use crate::admit::{lay_out, AdmitConfig, Admitter, TaggedRequest, TenantId};
use crate::error::ServeError;
use crate::index::{execute, LakeIndex, Prepared};
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
    /// Thread configuration for the execute phase.
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
    /// breakers); `config` still supplies the execute-phase threads and
    /// the session seed.
    pub fn with_admission(index: LakeIndex, config: SessionConfig, admit: AdmitConfig) -> Self {
        ServeSession {
            index,
            admitter: Admitter::new(admit, config.seed),
            config,
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

    /// Tear the session down, keeping the (warm) index. A new session
    /// over the returned index restarts the arrival counter, so
    /// replaying the same request stream yields bitwise-identical
    /// responses — now served from cache.
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
        self.submit_inner(&tenants, &refs)
    }

    /// Answer a batch of tenant-tagged requests; slots keep submission
    /// order across tenants. Same degradation contract as
    /// [`ServeSession::submit_batch`].
    pub fn submit_batch_tagged(&mut self, requests: &[TaggedRequest]) -> BatchReport {
        let tenants: Vec<TenantId> = requests.iter().map(|r| r.tenant.clone()).collect();
        let refs: Vec<&ServeRequest> = requests.iter().map(|r| &r.request).collect();
        self.submit_inner(&tenants, &refs)
    }

    fn submit_inner(&mut self, tenants: &[TenantId], requests: &[&ServeRequest]) -> BatchReport {
        let _span = rdi_obs::span("serve.batch");
        // Phase 1: admission, serial in arrival order, through the
        // shared admitter (one tick per batch; quota > queue > breaker
        // shed precedence; per-request execute seeds on the owning
        // tenant's stream).
        let verdicts = self.admitter.admit_batch(tenants);
        let layout = lay_out(verdicts);
        let mut responses = layout.responses;
        let admitted = layout.admitted;
        let shed = layout.shed;

        // Phase 2: warm, serial in arrival order — the only phase that
        // touches the cache.
        let mut jobs: Vec<(usize, u64, Prepared)> = Vec::with_capacity(admitted.len());
        for &(pos, seed) in &admitted {
            match self.index.prepare(requests[pos]) {
                Ok(plan) => jobs.push((pos, seed, plan)),
                Err(e) => responses[pos] = Some(Err(e)),
            }
        }

        // Decision audit: the admitter's reserved-slot ranking, then
        // any cache evictions the warm pass forced.
        let mut decisions = self.admitter.drain_decisions();
        decisions.extend(self.index.drain_decisions());

        // Phase 3: execute in parallel; results splice back in input
        // order (rdi-par contract), each job on its own RNG stream.
        let results = par_map(self.config.threads.min_len(2), &jobs, |(_, seed, plan)| {
            execute(plan, *seed)
        });
        for ((pos, _, _), (result, job_decisions)) in jobs.into_iter().zip(results) {
            responses[pos] = Some(result);
            decisions.extend(job_decisions);
        }

        // Post phase: feed each tenant's breaker its own outcomes in
        // arrival order (sheds never count); a half-open probe's
        // outcome lands here too.
        let failed = self.admitter.note_outcomes(tenants, &responses);

        let responses: Vec<Result<ServeResponse, ServeError>> = responses
            .into_iter()
            .map(|r| match r {
                Some(r) => r,
                // every slot is filled by exactly one of the phases above
                None => Err(ServeError::EmptyQuery("request slot never resolved".into())),
            })
            .collect();
        let degraded = shed > 0 || failed > 0;
        BatchReport {
            admitted: admitted.len(),
            responses,
            shed,
            degraded,
            decisions,
        }
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

    #[test]
    fn warm_replay_is_bitwise_identical_and_builds_nothing() {
        let mut s = session();
        let batch = mixed_batch();
        let cold = s.submit_batch(&batch);
        // Re-serve the same stream over the warm index: same arrival
        // indices, so even the randomized tailor run replays exactly.
        let mut warm_session = ServeSession::new(s.into_index(), SessionConfig::default());
        let built = rdi_obs::counter("discovery.sketches_built").get();
        let warm = warm_session.submit_batch(&batch);
        assert_eq!(
            rdi_obs::counter("discovery.sketches_built").get(),
            built,
            "warm replay rebuilds no sketches"
        );
        assert_eq!(cold.responses, warm.responses);
    }
}
