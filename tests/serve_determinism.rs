//! Property tests for the rdi-serve determinism contract:
//!
//! 1. a batch is **bitwise identical** (scores compared via `to_bits`)
//!    to submitting the same requests one at a time, for any
//!    `RDI_THREADS` — per-request RNG streams are keyed by arrival
//!    index, not by schedule;
//! 2. replaying the stream over the warm index (fresh session, same
//!    arrival indices) reproduces every response bit for bit while
//!    building **zero** new sketches; and
//! 3. degenerate requests (`k = 0`) come back as the same typed error
//!    in every schedule, spliced into their slot without disturbing
//!    their neighbours.
//!
//! Deliberately a single `#[test]` in its own integration-test file:
//! the file gets its own process, so the `RDI_THREADS` mutation cannot
//! leak into concurrently running tests.

use proptest::prelude::*;
use rdi_par::THREADS_ENV;
use responsible_data_integration::obs;
use responsible_data_integration::prelude::*;
use responsible_data_integration::serve::{render_answer, ServeRequest as Req};

fn keyed_table(seed: u64, rows: usize) -> Table {
    let schema = Schema::new(vec![Field::new("key", DataType::Str)]);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Table::new(schema);
    for _ in 0..rows {
        t.push_row(vec![Value::str(format!("k{}", rng.gen_range(0..200)))])
            .unwrap();
    }
    t
}

fn grouped_table(seed: u64, rows: usize) -> Table {
    let schema = Schema::new(vec![
        Field::new("group", DataType::Str).with_role(Role::Sensitive),
        Field::new("x", DataType::Float),
    ]);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Table::new(schema);
    for _ in 0..rows {
        let g = if rng.gen::<f64>() < 0.3 { "min" } else { "maj" };
        t.push_row(vec![Value::str(g), Value::Float(rng.gen::<f64>())])
            .unwrap();
    }
    t
}

fn scenario_index(seed: u64) -> LakeIndex {
    let mut idx = LakeIndex::default();
    for i in 0..4u64 {
        idx.register(
            format!("cand_{i}"),
            keyed_table(seed.wrapping_add(i), 120),
            1.0,
        )
        .unwrap();
    }
    idx.register("pop", grouped_table(seed.wrapping_add(99), 400), 1.5)
        .unwrap();
    idx
}

fn batch(seed: u64) -> Vec<Req> {
    let problem = DtProblem::exact_counts(
        GroupSpec::new(vec!["group"]),
        vec![
            (GroupKey(vec![Value::str("maj")]), 20),
            (GroupKey(vec![Value::str("min")]), 20),
        ],
    );
    vec![
        Req::UnionTopK {
            query: keyed_table(seed.wrapping_add(7), 80),
            k: 3,
        },
        Req::JoinableTopK {
            query: keyed_table(seed.wrapping_add(8), 80),
            column: "key".into(),
            k: 3,
        },
        // degenerate on purpose: must come back as the same typed error
        // in every schedule without disturbing its neighbours
        Req::UnionTopK {
            query: keyed_table(seed.wrapping_add(7), 80),
            k: 0,
        },
        Req::CoverageProbe {
            table: "pop".into(),
            attributes: vec!["group".into()],
            threshold: 50,
        },
        Req::TailorRun {
            problem,
            sources: vec!["pop".into()],
            max_draws: 10_000,
        },
    ]
}

fn config(seed: u64) -> SessionConfig {
    SessionConfig {
        seed,
        ..SessionConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn batched_serving_is_bitwise_deterministic(
        seed in 0u64..1_000_000,
        session_seed in 0u64..1_000,
    ) {
        let reqs = batch(seed);

        // Reference: strictly serial, one request per batch.
        std::env::set_var(THREADS_ENV, "1");
        let mut one = ServeSession::new(scenario_index(seed), config(session_seed));
        let mut reference = Vec::new();
        for r in &reqs {
            let mut rep = one.submit_batch(std::slice::from_ref(r));
            reference.push(render_answer(&rep.responses.remove(0)));
        }

        for threads in ["1", "2", "8"] {
            std::env::set_var(THREADS_ENV, threads);

            // Cold: whole batch at once over a fresh index.
            let mut session = ServeSession::new(scenario_index(seed), config(session_seed));
            let cold = session.submit_batch(&reqs);
            let cold_fp: Vec<String> = cold.responses.iter().map(render_answer).collect();
            prop_assert_eq!(
                &cold_fp, &reference,
                "batched != one-at-a-time under RDI_THREADS={}", threads
            );

            // Warm: replay the stream over the warm index. A fresh
            // session restarts the arrival counter, so even the
            // randomized tailor run re-executes on the same RNG stream.
            let built = obs::counter("discovery.sketches_built").get();
            let mut warm_session = ServeSession::new(session.into_index(), config(session_seed));
            let warm = warm_session.submit_batch(&reqs);
            prop_assert_eq!(
                obs::counter("discovery.sketches_built").get(),
                built,
                "warm replay must build zero sketches"
            );
            let warm_fp: Vec<String> = warm.responses.iter().map(render_answer).collect();
            prop_assert_eq!(
                &warm_fp, &reference,
                "cache-warm != cache-cold under RDI_THREADS={}", threads
            );
        }
        std::env::remove_var(THREADS_ENV);
    }
}
