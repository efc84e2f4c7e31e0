//! E22: multi-tenant fairness-aware admission under adversarial load
//! (`rdi-serve::admit` × `rdi-datagen::tenants`).
//!
//! Runs the shared admission layer against two adversarial rosters and
//! proves the tentpole invariants **by exact counter arithmetic** on
//! the per-tenant `serve.tenant.{t}.*` families:
//!
//! * **No starvation** — with capacity 8 split among three honest
//!   tenants (2 requests/window each) and one flooder (24/window, same
//!   weight), every honest tenant is admitted its full demand every
//!   single window while the flooder is capped at exactly its fair
//!   share — and, because the flooder *receives* that share, it never
//!   banks aging credit it could use to crowd the honest tenants out.
//! * **Bounded blast radius** — victims sharing a session with a
//!   flooder, a poisoner (every request deterministically fails, so
//!   only *its* breaker trips), and a quota-limited tenant see zero
//!   sheds, keep their breakers closed, and produce **bitwise
//!   identical** responses to a run with every adversary removed —
//!   same admission config, same victim traffic, adversaries gone.
//! * **Typed sheds, per contract** — the flooder sheds only
//!   `QueueFull`, the quota tenant only `QuotaExceeded`, the poisoner
//!   `QueueFull` before its breaker trips and `CircuitOpen` after, and
//!   sheds never feed any breaker.
//! * **Path parity** — the actor-hosted session replays the entire
//!   adversarial stream bitwise identical to the serial session, with
//!   the same per-tenant breaker end states.
//!
//! Single-threaded by default (`RDI_THREADS=1` unless overridden) so
//! stdout is byte-stable for the golden replay in CI; the root
//! `admit_determinism` proptests sweep thread counts.

use std::collections::BTreeMap;

use rdi_actor::{Runtime, RuntimeConfig};
use rdi_bench::{digest, emit_metrics_snapshot, print_table};
use rdi_datagen::tenants::{
    tenant_workload, TenantBehavior, TenantSpec, TenantWorkload, TenantWorkloadConfig,
};
use rdi_datagen::SessionOp;
use rdi_fault::RecoveryState;
use rdi_serve::{
    render_answer, AdmitConfig, BatchReport, LakeActorGroup, LakeIndex, LakeIndexConfig,
    ServeRequest, ServeSession, SessionActor, SessionConfig, SessionMsg, TaggedRequest, TenantId,
    TenantPolicy,
};

const SEED: u64 = 2208;
const CAPACITY: usize = 8;
const WINDOWS: usize = 6;

fn counter(name: &str) -> u64 {
    rdi_obs::counter(name).get()
}

/// Map a serve-agnostic workload op onto the serving request type.
fn to_request(op: &SessionOp) -> ServeRequest {
    match op {
        SessionOp::Union { query, k } => ServeRequest::UnionTopK {
            query: query.clone(),
            k: *k,
        },
        SessionOp::Joinable { query, column, k } => ServeRequest::JoinableTopK {
            query: query.clone(),
            column: column.clone(),
            k: *k,
        },
        SessionOp::Coverage {
            table,
            attributes,
            threshold,
        } => ServeRequest::CoverageProbe {
            table: table.clone(),
            attributes: attributes.clone(),
            threshold: *threshold,
        },
        SessionOp::Tailor {
            problem,
            sources,
            max_draws,
        } => ServeRequest::TailorRun {
            problem: problem.clone(),
            sources: sources.clone(),
            max_draws: *max_draws,
        },
    }
}

fn session_config() -> SessionConfig {
    SessionConfig {
        seed: 7,
        ..SessionConfig::default()
    }
}

/// Admission knobs for a roster: capacity 8, per-tenant breakers that
/// trip after 3 consecutive failures and cool down past the horizon.
fn admit_config(specs: &[TenantSpec]) -> AdmitConfig {
    let mut admit = AdmitConfig::from_session(&session_config());
    admit.queue_capacity = CAPACITY;
    admit.breaker_threshold = 3;
    admit.breaker_cooldown_ticks = 4;
    admit.with_tenants(
        specs
            .iter()
            .map(|s| {
                (
                    TenantId::new(&s.name),
                    TenantPolicy::limited(s.weight, s.quota_per_tick, s.burst),
                )
            })
            .collect(),
    )
}

/// Register the workload's lake tables into a fresh sharded index.
fn fresh_index(w: &TenantWorkload) -> LakeIndex {
    let mut index = LakeIndex::new(LakeIndexConfig::default());
    for (i, (id, t)) in w.tables.iter().enumerate() {
        index
            .register(id.clone(), t.clone(), 1.0 + i as f64 * 0.25)
            .unwrap();
    }
    index
}

/// One submitted batch per window, requests tagged with their tenants.
fn tagged_windows(w: &TenantWorkload) -> Vec<Vec<TaggedRequest>> {
    w.windows
        .iter()
        .map(|window| {
            window
                .iter()
                .map(|(t, op)| to_request(op).tagged(TenantId::new(t.clone())))
                .collect()
        })
        .collect()
}

/// Per-tenant deltas of the `serve.tenant.{t}.*` counter families over
/// one closure — the exact arithmetic the invariants are stated in.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct TenantDelta {
    requests: u64,
    admitted: u64,
    shed_quota: u64,
    shed_queue: u64,
    shed_breaker: u64,
    failed: u64,
}

fn tenant_deltas<T>(names: &[&str], run: impl FnOnce() -> T) -> (T, BTreeMap<String, TenantDelta>) {
    let read = |n: &str| TenantDelta {
        requests: counter(&format!("serve.tenant.{n}.requests")),
        admitted: counter(&format!("serve.tenant.{n}.admitted")),
        shed_quota: counter(&format!("serve.tenant.{n}.shed_quota")),
        shed_queue: counter(&format!("serve.tenant.{n}.shed_queue")),
        shed_breaker: counter(&format!("serve.tenant.{n}.shed_breaker")),
        failed: counter(&format!("serve.tenant.{n}.failed")),
    };
    let before: Vec<TenantDelta> = names.iter().map(|n| read(n)).collect();
    let out = run();
    let deltas = names
        .iter()
        .zip(before)
        .map(|(n, b)| {
            let a = read(n);
            (
                n.to_string(),
                TenantDelta {
                    requests: a.requests - b.requests,
                    admitted: a.admitted - b.admitted,
                    shed_quota: a.shed_quota - b.shed_quota,
                    shed_queue: a.shed_queue - b.shed_queue,
                    shed_breaker: a.shed_breaker - b.shed_breaker,
                    failed: a.failed - b.failed,
                },
            )
        })
        .collect();
    (out, deltas)
}

/// All of one tenant's rendered answers across a run's reports,
/// in arrival order.
fn tenant_answers(
    windows: &[Vec<TaggedRequest>],
    reports: &[BatchReport],
    tenant: &str,
) -> Vec<String> {
    windows
        .iter()
        .zip(reports)
        .flat_map(|(reqs, report)| {
            reqs.iter()
                .zip(&report.responses)
                .filter(|(r, _)| r.tenant.name() == tenant)
                .map(|(_, resp)| render_answer(resp))
        })
        .collect()
}

/// Scenario 1 — a same-weight flooder against three honest tenants:
/// the queue share caps the flood at its fair slice, window after
/// window, with no aging leakage.
fn flood_scenario() {
    let honest = ["alice", "bob", "carol"];
    let specs = vec![
        TenantSpec::honest("alice", 0, 1, 2),
        TenantSpec::honest("bob", 1, 1, 2),
        TenantSpec::honest("carol", 2, 1, 2),
        TenantSpec::flooder("mallory", 8, 1, 24),
    ];
    let workload = tenant_workload(
        &TenantWorkloadConfig {
            windows: WINDOWS,
            tenants: specs.clone(),
            ..TenantWorkloadConfig::default()
        },
        SEED,
    );
    let windows = tagged_windows(&workload);
    let mut session = ServeSession::with_admission(
        fresh_index(&workload),
        session_config(),
        admit_config(&specs),
    );

    let names = ["alice", "bob", "carol", "mallory"];
    let mut rows = Vec::new();
    for (wi, batch) in windows.iter().enumerate() {
        let (report, d) = tenant_deltas(&names, || session.submit_batch_tagged(batch));
        // Exact arithmetic, every window: base share is capacity·w/Σw
        // = 2; honest demand 2 is fully admitted, the flood's 24
        // requests are capped at the same 2, and only the flood sheds.
        for t in honest {
            assert_eq!(d[t].admitted, 2, "window {wi}: {t} starved: {:?}", d[t]);
            assert_eq!(d[t].shed_queue + d[t].shed_quota + d[t].shed_breaker, 0);
        }
        assert_eq!(
            d["mallory"].admitted, 2,
            "window {wi}: flood over its share"
        );
        assert_eq!(d["mallory"].shed_queue, 22, "window {wi}");
        assert_eq!(report.admitted, CAPACITY, "window {wi} fills the queue");
        let aging = session.admitter().aging(&TenantId::new("mallory"));
        assert_eq!(aging, 0, "served share must never bank aging credit");
        rows.push(vec![
            wi.to_string(),
            d["alice"].admitted.to_string(),
            d["bob"].admitted.to_string(),
            d["carol"].admitted.to_string(),
            d["mallory"].admitted.to_string(),
            d["mallory"].shed_queue.to_string(),
            aging.to_string(),
        ]);
    }
    print_table(
        "flood: per-window admitted deltas (capacity 8, equal weights)",
        &[
            "window",
            "alice",
            "bob",
            "carol",
            "mallory",
            "mallory_shed_queue",
            "mallory_aging",
        ],
        &rows,
    );
}

/// The isolation roster: two weighted victims, one quota-limited
/// tenant, one flooder, one poisoner.
fn isolation_specs() -> Vec<TenantSpec> {
    vec![
        TenantSpec::honest("alice", 0, 2, 2),
        TenantSpec::honest("bob", 1, 2, 2),
        TenantSpec::flooder("mallory", 8, 1, 16),
        TenantSpec::poisoner("petya", 9, 1, 2),
        TenantSpec::honest("quinn", 2, 1, 2).with_quota(1, 1),
    ]
}

fn isolation_workload(specs: &[TenantSpec]) -> TenantWorkload {
    tenant_workload(
        &TenantWorkloadConfig {
            windows: WINDOWS,
            tenants: specs.to_vec(),
            ..TenantWorkloadConfig::default()
        },
        SEED,
    )
}

fn run_serial(
    workload: &TenantWorkload,
    admit: AdmitConfig,
) -> (Vec<BatchReport>, ServeSession, Vec<Vec<TaggedRequest>>) {
    let windows = tagged_windows(workload);
    let mut session = ServeSession::with_admission(fresh_index(workload), session_config(), admit);
    let reports = windows
        .iter()
        .map(|b| session.submit_batch_tagged(b))
        .collect();
    (reports, session, windows)
}

/// Scenario 2 — bounded blast radius: victims are bitwise unaffected
/// by a flood, a poison stream, and a quota-capped neighbour; each
/// adversary is shed strictly against its own contract; and the actor
/// path replays the whole thing bitwise.
fn isolation_scenario() {
    let specs = isolation_specs();
    let names = ["alice", "bob", "mallory", "petya", "quinn"];
    let adversarial = isolation_workload(&specs);
    let ((reports, session, windows), totals) =
        tenant_deltas(&names, || run_serial(&adversarial, admit_config(&specs)));

    // Exact arithmetic over all 6 windows. Victims (weight 2, base
    // share 2) are fully served; quinn's 1-token bucket admits one of
    // its two requests per window and quota-sheds the other; mallory's
    // 16 requests are capped at its reserved slot + the one leftover
    // slot; petya lands one deterministic failure per window until its
    // breaker trips after window 3, then sheds `CircuitOpen` only.
    for t in ["alice", "bob"] {
        assert_eq!(totals[t].requests, 12, "{t}");
        assert_eq!(totals[t].admitted, 12, "victim starved: {:?}", totals[t]);
        assert_eq!(totals[t].failed, 0, "{t}");
    }
    assert_eq!(totals["quinn"].admitted, 6);
    assert_eq!(totals["quinn"].shed_quota, 6);
    assert_eq!(totals["mallory"].admitted, 12);
    assert_eq!(totals["mallory"].shed_queue, 84);
    assert_eq!(totals["petya"].admitted, 3);
    assert_eq!(totals["petya"].failed, 3, "poison fails deterministically");
    assert_eq!(totals["petya"].shed_queue, 3);
    assert_eq!(totals["petya"].shed_breaker, 6, "3 windows × 2 requests");
    let admitter = session.admitter();
    assert!(admitter.breaker_is_open(&TenantId::new("petya")));
    for t in ["alice", "bob", "mallory", "quinn"] {
        assert_eq!(
            admitter.breaker_state(&TenantId::new(t)),
            RecoveryState::Closed,
            "{t}'s breaker must be untouched by petya's poison"
        );
    }
    let rows: Vec<Vec<String>> = names
        .iter()
        .map(|t| {
            let d = &totals[*t];
            vec![
                (*t).to_string(),
                d.requests.to_string(),
                d.admitted.to_string(),
                d.shed_quota.to_string(),
                d.shed_queue.to_string(),
                d.shed_breaker.to_string(),
                d.failed.to_string(),
                format!("{:?}", admitter.breaker_state(&TenantId::new(*t))),
            ]
        })
        .collect();
    print_table(
        "isolation: per-tenant totals over 6 windows (typed sheds per contract)",
        &[
            "tenant",
            "requests",
            "admitted",
            "shed_quota",
            "shed_queue",
            "shed_breaker",
            "failed",
            "breaker",
        ],
        &rows,
    );

    // Adversary-free baseline: same admission config, same victim
    // streams (each tenant draws from its own explicit RNG stream, so
    // removing the adversaries does not shift a single victim byte).
    let victims_only: Vec<TenantSpec> = specs
        .iter()
        .filter(|s| s.behavior == TenantBehavior::Honest && s.quota_per_tick == u64::MAX)
        .cloned()
        .collect();
    let baseline_workload = isolation_workload(&victims_only);
    let (baseline_reports, _, baseline_windows) =
        run_serial(&baseline_workload, admit_config(&specs));
    let mut rows = Vec::new();
    for victim in ["alice", "bob"] {
        let with = tenant_answers(&windows, &reports, victim);
        let without = tenant_answers(&baseline_windows, &baseline_reports, victim);
        assert_eq!(with.len(), 12);
        assert_eq!(
            with, without,
            "{victim}'s responses must be bitwise identical without the adversaries"
        );
        rows.push(vec![
            victim.to_string(),
            format!("{:016x}", digest(&with.join(";"))),
            format!("{:016x}", digest(&without.join(";"))),
            "true".to_string(),
        ]);
    }
    print_table(
        "isolation: victim responses with vs without adversaries",
        &["victim", "digest_with", "digest_without", "bitwise_equal"],
        &rows,
    );

    // Actor-path parity: the hosted session runs the same adversarial
    // stream through the same shared admitter and must match the
    // serial run bitwise — including every tenant's breaker end state.
    let mut rt = Runtime::new(RuntimeConfig::default());
    let group = LakeActorGroup::host(&mut rt, fresh_index(&adversarial));
    let addr = group.spawn_session_with_admission(
        &mut rt,
        "tenants",
        session_config(),
        admit_config(&specs),
    );
    for batch in &windows {
        addr.send(SessionMsg::SubmitTagged(batch.clone())).unwrap();
    }
    rt.run_until_idle();
    let actor = rt.actor::<SessionActor>(addr.id()).unwrap();
    assert_eq!(actor.completed().len(), reports.len());
    for (got, want) in actor.completed().iter().zip(&reports) {
        assert_eq!(got.admitted, want.admitted);
        assert_eq!(got.shed, want.shed);
        assert_eq!(got.responses, want.responses, "actor != serial");
    }
    for t in names {
        assert_eq!(
            actor.admitter().breaker_state(&TenantId::new(t)),
            session.admitter().breaker_state(&TenantId::new(t)),
            "{t}"
        );
    }
    print_table(
        "actor parity: hosted session vs serial session",
        &[
            "windows",
            "responses_identical",
            "petya_breaker_serial",
            "petya_breaker_actor",
        ],
        &[vec![
            reports.len().to_string(),
            "true".to_string(),
            format!(
                "{:?}",
                session.admitter().breaker_state(&TenantId::new("petya"))
            ),
            format!(
                "{:?}",
                actor.admitter().breaker_state(&TenantId::new("petya"))
            ),
        ]],
    );
}

fn main() {
    // Golden-stability: outcomes are bitwise identical for any
    // RDI_THREADS, but stdout also embeds global counters, so pin the
    // thread count unless the caller overrides it.
    if std::env::var_os("RDI_THREADS").is_none() {
        std::env::set_var("RDI_THREADS", "1");
    }

    let flood_roster = 4usize;
    let iso_roster = isolation_specs().len();
    print_table(
        "E22 workload",
        &[
            "scenarios",
            "windows_each",
            "flood_roster",
            "isolation_roster",
        ],
        &[vec![
            "2".to_string(),
            WINDOWS.to_string(),
            flood_roster.to_string(),
            iso_roster.to_string(),
        ]],
    );

    flood_scenario();
    isolation_scenario();

    emit_metrics_snapshot();
}
