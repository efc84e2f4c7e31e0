//! Property tests for the actor-hosted serving determinism contract
//! (`rdi-actor` × `rdi-serve`):
//!
//! 1. hosting N concurrent sessions over one shared sharded
//!    [`LakeActorGroup`] is **bitwise replayable**: for a fixed
//!    scheduler seed, every response, the rendered event log, and the
//!    `actor.*` / `serve.cache.*` counter deltas are identical for any
//!    `RDI_THREADS` — cohort delivery parallelism is invisible;
//! 2. the scheduler seed only permutes message interleavings: a
//!    different seed over the same per-session request streams yields
//!    **bitwise identical responses** (cache warmth and log order may
//!    legitimately differ — races change who warms a shared sketch
//!    first, never what a sketch says).
//!
//! Deliberately a single `#[test]` in its own integration-test file:
//! the file gets its own process, so the `RDI_THREADS` mutation cannot
//! leak into concurrently running tests.

use proptest::prelude::*;
use rdi_par::THREADS_ENV;
use responsible_data_integration::actor::{Runtime, RuntimeConfig};
use responsible_data_integration::datagen::sessions::{
    session_workload, SessionOp, SessionWorkload, SessionWorkloadConfig,
};
use responsible_data_integration::obs;
use responsible_data_integration::serve::{
    render_answer, LakeActorGroup, LakeIndex, LakeIndexConfig, ServeRequest, SessionActor,
    SessionConfig, SessionMsg,
};

fn workload(seed: u64) -> SessionWorkload {
    let config = SessionWorkloadConfig {
        num_tables: 4,
        rows_per_table: 40,
        key_pool: 120,
        num_sessions: 4,
        batches_per_session: 2,
        requests_per_batch_max: 3,
        ..SessionWorkloadConfig::default()
    };
    session_workload(&config, seed)
}

fn fresh_index(w: &SessionWorkload) -> LakeIndex {
    let mut index = LakeIndex::new(LakeIndexConfig::default());
    for (i, (id, t)) in w.tables.iter().enumerate() {
        index
            .register(id.clone(), t.clone(), 1.0 + i as f64 * 0.25)
            .unwrap();
    }
    index
}

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

const DELTA_COUNTERS: [&str; 4] = [
    "actor.messages_delivered",
    "actor.scheduler_steps",
    "serve.cache.hits",
    "serve.cache.misses",
];

/// Host the workload, run every batch interleaved round-robin, and
/// return (per-session rendered answers, rendered event log,
/// `actor.*`/`serve.cache.*` counter deltas).
fn run_hosted(w: &SessionWorkload, scheduler_seed: u64) -> (Vec<Vec<String>>, String, [u64; 4]) {
    let before: Vec<u64> = DELTA_COUNTERS
        .iter()
        .map(|n| obs::counter(n).get())
        .collect();
    let mut rt = Runtime::new(RuntimeConfig {
        seed: scheduler_seed,
        ..RuntimeConfig::default()
    });
    let group = LakeActorGroup::host(&mut rt, fresh_index(w));
    let addrs: Vec<_> = w
        .sessions
        .iter()
        .enumerate()
        .map(|(s, script)| {
            let config = SessionConfig {
                seed: 100 + s as u64,
                ..SessionConfig::default()
            };
            group.spawn_session(&mut rt, &script.name, config)
        })
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
    rt.run_until_idle();
    assert_eq!(rt.delivery_errors(), 0);

    let fps = addrs
        .iter()
        .map(|addr| {
            let actor = rt.actor::<SessionActor>(addr.id()).unwrap();
            assert_eq!(actor.completed().len(), rounds);
            actor
                .completed()
                .iter()
                .flat_map(|r| r.responses.iter().map(render_answer))
                .collect()
        })
        .collect();
    let mut deltas = [0u64; 4];
    for (i, name) in DELTA_COUNTERS.iter().enumerate() {
        deltas[i] = obs::counter(name).get() - before[i];
    }
    (fps, rt.event_log().render(), deltas)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn actor_hosting_is_bitwise_deterministic(
        workload_seed in 0u64..1_000_000,
        scheduler_seed in 0u64..1_000,
    ) {
        let w = workload(workload_seed);

        std::env::set_var(THREADS_ENV, "1");
        let (reference, ref_log, ref_deltas) = run_hosted(&w, scheduler_seed);

        for threads in ["1", "2", "8"] {
            std::env::set_var(THREADS_ENV, threads);
            let (fps, log, deltas) = run_hosted(&w, scheduler_seed);
            prop_assert_eq!(
                &fps, &reference,
                "responses changed under RDI_THREADS={}", threads
            );
            prop_assert_eq!(
                &log, &ref_log,
                "event log changed under RDI_THREADS={}", threads
            );
            prop_assert_eq!(
                deltas, ref_deltas,
                "counter deltas changed under RDI_THREADS={}", threads
            );
        }

        // A different scheduler seed reorders the interleaving but
        // must never change any session's responses.
        std::env::set_var(THREADS_ENV, "1");
        let (reseeded, _, _) = run_hosted(&w, scheduler_seed ^ 0x9e37_79b9);
        prop_assert_eq!(&reseeded, &reference, "scheduler seed leaked into responses");

        std::env::remove_var(THREADS_ENV);
    }
}
