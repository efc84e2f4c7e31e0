//! E21: actor-hosted concurrent serving (`rdi-actor` × `rdi-serve`).
//!
//! Hosts one sharded [`LakeIndex`] as an actor group (one actor per
//! shard plus a maintenance actor) and runs **four concurrent client
//! sessions** against it — interleaved batches, shared shards, seeded
//! virtual-time scheduling — then proves the concurrency is free of
//! observable nondeterminism:
//!
//! * every session's responses are **bitwise identical** to a plain
//!   serial [`ServeSession`] replaying the same request stream over
//!   its own copy of the lake — concurrency changes cache warmth,
//!   never answers;
//! * re-running the experiment with the same scheduler seed replays
//!   the append-only event log **byte for byte** (and a different
//!   scheduler seed reorders messages without changing any response);
//! * reassembling the shards into an inline index and re-hosting it
//!   warm replays the whole workload while building **zero** new
//!   sketches (`discovery.sketches_built` delta is 0);
//! * the maintenance actor routes [`TableDelta`] traffic to owning
//!   shards and surfaces typed per-delta errors; and
//! * a session whose stream turns hostile walks the full breaker arc —
//!   trip → shed → half-open probe → recovery — with each transition
//!   counted (`serve.breaker_trips` / `_probes` / `_recoveries`).
//!
//! Single-threaded by default (`RDI_THREADS=1` unless overridden) so
//! stdout is byte-stable for the golden replay in CI; the root
//! `actor_determinism` proptest sweeps thread counts.

use rdi_actor::{Runtime, RuntimeConfig};
use rdi_bench::{digest, emit_metrics_snapshot, print_table};
use rdi_datagen::sessions::{session_workload, SessionOp, SessionWorkload, SessionWorkloadConfig};
use rdi_fault::RecoveryState;
use rdi_serve::{
    render_answer, LakeActorGroup, LakeIndex, LakeIndexConfig, MaintActor, MaintMsg, ServeRequest,
    ServeSession, SessionActor, SessionConfig, SessionMsg,
};
use rdi_table::{Table, TableDelta};

const SEED: u64 = 2107;

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

fn session_config(s: usize) -> SessionConfig {
    SessionConfig {
        seed: 100 + s as u64,
        ..SessionConfig::default()
    }
}

/// Register the workload's lake tables into a fresh sharded index.
/// Costs vary per table so tailoring draw policies stay honest.
fn fresh_index(w: &SessionWorkload) -> LakeIndex {
    let mut index = LakeIndex::new(LakeIndexConfig::default());
    for (i, (id, t)) in w.tables.iter().enumerate() {
        index
            .register(id.clone(), t.clone(), 1.0 + i as f64 * 0.25)
            .unwrap();
    }
    index
}

/// One hosted run's observable outcome.
struct HostedRun {
    /// Per-session rendered answers ([`render_answer`]), flattened.
    answers: Vec<Vec<String>>,
    /// Per-session (batches, requests, admitted, shed, degraded).
    tallies: Vec<(usize, usize, usize, usize, usize)>,
    /// Rendered append-only event log.
    log: String,
    steps: u64,
    delivered: u64,
    /// The shards reassembled into an inline index after the run.
    index: LakeIndex,
}

/// Host `index` as an actor group, run every session's batches
/// interleaved round-robin, and collect per-session outcomes.
fn run_hosted(w: &SessionWorkload, index: LakeIndex, scheduler_seed: u64) -> HostedRun {
    let mut rt = Runtime::new(RuntimeConfig {
        seed: scheduler_seed,
        ..RuntimeConfig::default()
    });
    let delivered_before = counter("actor.messages_delivered");
    let group = LakeActorGroup::host(&mut rt, index);
    let addrs: Vec<_> = w
        .sessions
        .iter()
        .enumerate()
        .map(|(s, script)| group.spawn_session(&mut rt, &script.name, session_config(s)))
        .collect();
    let rounds = w
        .sessions
        .iter()
        .map(|s| s.batches.len())
        .max()
        .unwrap_or(0);
    for round in 0..rounds {
        for (s, script) in w.sessions.iter().enumerate() {
            if let Some(batch) = script.batches.get(round) {
                addrs[s]
                    .send(SessionMsg::Submit(batch.iter().map(to_request).collect()))
                    .unwrap();
            }
        }
    }
    let steps = rt.run_until_idle();
    assert_eq!(rt.delivery_errors(), 0, "no dead letters expected");

    let mut answers = Vec::new();
    let mut tallies = Vec::new();
    for (s, addr) in addrs.iter().enumerate() {
        let actor = rt.actor::<SessionActor>(addr.id()).unwrap();
        let reports = actor.completed();
        assert_eq!(
            reports.len(),
            w.sessions[s].batches.len(),
            "session {s} must finish every batch"
        );
        let fps: Vec<String> = reports
            .iter()
            .flat_map(|r| r.responses.iter().map(render_answer))
            .collect();
        let (mut adm, mut shed, mut deg, mut reqs) = (0, 0, 0, 0);
        for r in reports {
            adm += r.admitted;
            shed += r.shed;
            deg += usize::from(r.degraded);
            reqs += r.responses.len();
        }
        tallies.push((reports.len(), reqs, adm, shed, deg));
        answers.push(fps);
    }
    let log = rt.event_log().render();
    let delivered = counter("actor.messages_delivered") - delivered_before;
    let index = group.reassemble(&mut rt).unwrap();
    HostedRun {
        answers,
        tallies,
        log,
        steps,
        delivered,
        index,
    }
}

/// Serial reference: each session replays its stream alone over its
/// own copy of the lake — the equivalence oracle for the hosted runs.
fn run_serial(w: &SessionWorkload) -> Vec<Vec<String>> {
    w.sessions
        .iter()
        .enumerate()
        .map(|(s, script)| {
            let mut session = ServeSession::new(fresh_index(w), session_config(s));
            let mut fps = Vec::new();
            for batch in &script.batches {
                let reqs: Vec<ServeRequest> = batch.iter().map(to_request).collect();
                let report = session.submit_batch(&reqs);
                fps.extend(report.responses.iter().map(render_answer));
            }
            fps
        })
        .collect()
}

/// Walk one hostile session through the full breaker arc: trip on
/// consecutive failures, shed while open, half-open probe after the
/// cooldown, recovery on probe success.
fn breaker_arc(w: &SessionWorkload) -> Vec<Vec<String>> {
    let mut rt = Runtime::new(RuntimeConfig::default());
    let group = LakeActorGroup::host(&mut rt, fresh_index(w));
    let addr = group.spawn_session(
        &mut rt,
        "hostile",
        SessionConfig {
            breaker_threshold: 2,
            breaker_cooldown_ticks: 2,
            seed: 9,
            ..SessionConfig::default()
        },
    );
    let ghost = |n: usize| ServeRequest::CoverageProbe {
        table: format!("ghost{n:02}"),
        attributes: vec!["group".to_string()],
        threshold: 1,
    };
    let healthy = ServeRequest::CoverageProbe {
        table: "lake00".to_string(),
        attributes: vec!["group".to_string()],
        threshold: 1,
    };
    let (t0, p0, r0, s0) = (
        counter("serve.breaker_trips"),
        counter("serve.breaker_probes"),
        counter("serve.breaker_recoveries"),
        counter("serve.shed"),
    );
    // tick 1: two unknown-table failures → breaker trips open.
    addr.send(SessionMsg::Submit(vec![ghost(0), ghost(1)]))
        .unwrap();
    // tick 2: still inside the cooldown → the whole batch sheds.
    addr.send(SessionMsg::Submit(vec![healthy.clone()]))
        .unwrap();
    // tick 3: cooldown elapsed → exactly one half-open probe; its
    // success closes the breaker (counted as a recovery).
    addr.send(SessionMsg::Submit(vec![healthy.clone()]))
        .unwrap();
    // tick 4: closed again — normal admission.
    addr.send(SessionMsg::Submit(vec![healthy])).unwrap();
    rt.run_until_idle();

    let actor = rt.actor::<SessionActor>(addr.id()).unwrap();
    assert_eq!(actor.breaker_state(), RecoveryState::Closed);
    let reports = actor.completed();
    assert_eq!(reports.len(), 4);
    assert_eq!(reports[1].shed, 1, "open breaker must shed the batch");
    assert!(reports[2].responses[0].is_ok(), "probe must succeed");
    assert!(reports[3].responses[0].is_ok(), "closed breaker admits");
    let trips = counter("serve.breaker_trips") - t0;
    let probes = counter("serve.breaker_probes") - p0;
    let recoveries = counter("serve.breaker_recoveries") - r0;
    let shed = counter("serve.shed") - s0;
    assert_eq!((trips, probes, recoveries), (1, 1, 1));
    vec![vec![
        trips.to_string(),
        shed.to_string(),
        probes.to_string(),
        recoveries.to_string(),
        "Closed".to_string(),
    ]]
}

fn main() {
    // Golden-stability: the experiment is bitwise identical for any
    // RDI_THREADS (that is half of what it proves), but stdout also
    // embeds global counters, so pin the thread count unless the
    // caller overrides it.
    if std::env::var_os("RDI_THREADS").is_none() {
        std::env::set_var("RDI_THREADS", "1");
    }

    let workload = session_workload(&SessionWorkloadConfig::default(), SEED);
    let total_reqs: usize = workload
        .sessions
        .iter()
        .flat_map(|s| s.batches.iter())
        .map(|b| b.len())
        .sum();
    print_table(
        "E21 workload",
        &["tables", "sessions", "batches", "requests"],
        &[vec![
            workload.tables.len().to_string(),
            workload.sessions.len().to_string(),
            workload
                .sessions
                .iter()
                .map(|s| s.batches.len())
                .sum::<usize>()
                .to_string(),
            total_reqs.to_string(),
        ]],
    );

    // --- cold hosted run: 4 concurrent sessions over shared shards ---
    let cold = run_hosted(&workload, fresh_index(&workload), 0);
    let serial = run_serial(&workload);
    let rows: Vec<Vec<String>> = workload
        .sessions
        .iter()
        .enumerate()
        .map(|(s, script)| {
            let (batches, reqs, adm, shed, deg) = cold.tallies[s];
            assert_eq!(
                cold.answers[s], serial[s],
                "session {} hosted != serial",
                script.name
            );
            vec![
                script.name.clone(),
                batches.to_string(),
                reqs.to_string(),
                adm.to_string(),
                shed.to_string(),
                deg.to_string(),
                format!("{:016x}", digest(&cold.answers[s].join(";"))),
                "true".to_string(),
            ]
        })
        .collect();
    print_table(
        "concurrent sessions vs serial oracle",
        &[
            "session",
            "batches",
            "requests",
            "admitted",
            "shed",
            "degraded",
            "response_digest",
            "bitwise_equal_serial",
        ],
        &rows,
    );

    // --- replay: same scheduler seed ⇒ byte-identical event log;
    //     different seed ⇒ different schedule, same responses ---
    let replay = run_hosted(&workload, fresh_index(&workload), 0);
    assert_eq!(cold.log, replay.log, "same seed must replay the log");
    assert_eq!(cold.answers, replay.answers);
    let reseeded = run_hosted(&workload, fresh_index(&workload), 1);
    assert_eq!(
        cold.answers, reseeded.answers,
        "scheduler seed must never change responses"
    );
    print_table(
        "deterministic replay",
        &[
            "log_lines",
            "log_digest",
            "steps",
            "delivered",
            "replay_log_identical",
            "reseeded_log_identical",
            "reseeded_responses_identical",
        ],
        &[vec![
            cold.log.lines().count().to_string(),
            format!("{:016x}", digest(&cold.log)),
            cold.steps.to_string(),
            cold.delivered.to_string(),
            "true".to_string(),
            (reseeded.log == cold.log).to_string(),
            "true".to_string(),
        ]],
    );

    // --- warm replay: reassemble the shards, re-host, re-run —
    //     zero new sketches, identical responses ---
    let built_before = counter("discovery.sketches_built");
    let warm = run_hosted(&workload, cold.index, 0);
    let built_delta = counter("discovery.sketches_built") - built_before;
    assert_eq!(built_delta, 0, "warm replay must build zero sketches");
    assert_eq!(
        warm.answers, cold.answers,
        "warm replay must be bitwise identical"
    );
    print_table(
        "warm replay over reassembled index",
        &["sketches_built_delta", "responses_identical"],
        &[vec![built_delta.to_string(), "true".to_string()]],
    );

    // --- maintenance: deltas route to owning shards, errors are typed ---
    let mut rt = Runtime::new(RuntimeConfig::default());
    let group = LakeActorGroup::host(&mut rt, warm.index);
    let extra: Table = workload.tables[0].1.clone();
    group
        .maint()
        .send(MaintMsg::Delta {
            id: "lake00".to_string(),
            delta: TableDelta::Append(extra.clone()),
        })
        .unwrap();
    group
        .maint()
        .send(MaintMsg::Upsert {
            id: "fresh".to_string(),
            table: extra,
            cost: 2.0,
        })
        .unwrap();
    group
        .maint()
        .send(MaintMsg::Delta {
            id: "ghost99".to_string(),
            delta: TableDelta::Drop,
        })
        .unwrap();
    rt.run_until_idle();
    let maint = rt.actor::<MaintActor>(group.maint().id()).unwrap();
    assert_eq!(maint.applied(), 2);
    assert_eq!(maint.errors().len(), 1, "ghost drop must surface an error");
    print_table(
        "maintenance actor",
        &["deltas_applied", "rows_applied", "typed_errors"],
        &[vec![
            maint.applied().to_string(),
            maint.rows_applied().to_string(),
            maint.errors().len().to_string(),
        ]],
    );

    // --- breaker arc under actor hosting ---
    print_table(
        "breaker arc (trip → shed → probe → recovery)",
        &["trips", "shed", "probes", "recoveries", "final_state"],
        &breaker_arc(&workload),
    );

    emit_metrics_snapshot();
}
