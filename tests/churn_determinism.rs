//! Property tests for the sharded lake index under churn:
//!
//! replaying one seeded churn workload (registers, appends, deletes,
//! drops — `rdi_datagen::churn`) over a fresh [`LakeIndex`] with a
//! deliberately tiny cache budget must produce, for any `RDI_THREADS`:
//!
//! 1. **bitwise identical responses** for every interleaved query
//!    batch (scores compared via `to_bits`);
//! 2. **identical shard assignment** — `shard_of` is a pure function
//!    of the id bytes, so per-shard table counts match too; and
//! 3. **identical cache-eviction order** — the exact per-run deltas of
//!    `serve.cache.{hits,misses,evictions,evicted_bytes}` and the
//!    final `(cached sketches, cached bytes)` agree, which
//!    they only can if every run evicted the same entries in the same
//!    order under the same byte budget.
//!
//! Deliberately a single `#[test]` in its own integration-test file:
//! the file gets its own process, so the `RDI_THREADS` mutation cannot
//! leak into concurrently running tests and exact global-counter
//! deltas are race-free.

use proptest::prelude::*;
use rdi_par::THREADS_ENV;
use responsible_data_integration::datagen::churn::{churn_workload, ChurnConfig, ChurnEvent};
use responsible_data_integration::obs;
use responsible_data_integration::prelude::*;
use responsible_data_integration::serve::ServeRequest as Req;

/// Small sketches + a tiny byte budget so the workload *must* evict,
/// and a low debt threshold so the rebuild policy is exercised.
fn index_config() -> LakeIndexConfig {
    LakeIndexConfig {
        minhash_k: 32,
        cache_capacity_bytes: 4096,
        shard_count: 4,
        deletion_debt_threshold: 16,
    }
}

fn query_table(seed: u64) -> Table {
    let schema = Schema::new(vec![Field::new("key", DataType::Str)]);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Table::new(schema);
    for _ in 0..60 {
        t.push_row(vec![Value::str(format!("k{:05}", rng.gen_range(0..500)))])
            .unwrap();
    }
    t
}

/// Bit-exact encoding of one response (only union/join answers appear
/// in this stream; anything else would be a bug worth seeing verbatim).
fn fingerprint(r: &Result<ServeResponse, ServeError>) -> String {
    match r {
        Ok(ServeResponse::UnionTopK(v)) | Ok(ServeResponse::JoinableTopK(v)) => v
            .iter()
            .map(|(id, s)| format!("{id}:{:016x}", s.to_bits()))
            .collect::<Vec<_>>()
            .join(","),
        other => format!("{other:?}"),
    }
}

/// Everything one replay observed; two replays are interchangeable iff
/// their traces are equal.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Trace {
    responses: Vec<String>,
    shard_assignment: Vec<(String, usize)>,
    shard_tables: Vec<usize>,
    cached_sketches: usize,
    cache_bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    evicted_bytes: u64,
    rows_applied: u64,
    incremental_updates: u64,
    rebuilds: u64,
}

fn counter_snapshot() -> [u64; 7] {
    [
        obs::counter("serve.cache.hits").get(),
        obs::counter("serve.cache.misses").get(),
        obs::counter("serve.cache.evictions").get(),
        obs::counter("serve.cache.evicted_bytes").get(),
        obs::counter("serve.delta.rows_applied").get(),
        obs::counter("sketch.incremental_updates").get(),
        obs::counter("sketch.rebuilds").get(),
    ]
}

fn run_trial(seed: u64) -> Trace {
    let workload = churn_workload(
        &ChurnConfig {
            num_tables: 6,
            events: 40,
            initial_rows: 80,
            ..ChurnConfig::default()
        },
        seed,
    );
    let before = counter_snapshot();

    let mut index = LakeIndex::new(index_config());
    for (id, t) in &workload.tables {
        index.register(id.clone(), t.clone(), 1.0).unwrap();
    }
    let mut session = ServeSession::new(
        index,
        SessionConfig {
            seed,
            ..SessionConfig::default()
        },
    );

    let mut responses = Vec::new();
    for (i, ev) in workload.events.iter().enumerate() {
        match ev {
            ChurnEvent::Register { id, table, cost } => {
                session
                    .index_mut()
                    .register(id.clone(), table.clone(), *cost)
                    .unwrap();
            }
            ChurnEvent::Delta { id, delta } => {
                session.index_mut().apply_delta(id, delta).unwrap();
            }
        }
        // Interleave query batches so registered sketches are
        // (re)materialized, and query sketches cached and evicted,
        // while the lake churns.
        if i % 4 == 0 {
            let q = query_table(seed.wrapping_add(i as u64));
            let report = session.submit_batch(&[
                Req::UnionTopK {
                    query: q.clone(),
                    k: 3,
                },
                Req::JoinableTopK {
                    query: q,
                    column: "key".into(),
                    k: 3,
                },
            ]);
            responses.extend(report.responses.iter().map(fingerprint));
        }
    }

    let after = counter_snapshot();
    let index = session.into_index();
    let shard_assignment = index
        .table_ids()
        .into_iter()
        .map(|id| (id.to_string(), index.shard_of(id)))
        .collect();
    Trace {
        responses,
        shard_assignment,
        shard_tables: index.shard_table_counts(),
        cached_sketches: index.cached_sketches(),
        cache_bytes: index.cache_bytes(),
        hits: after[0] - before[0],
        misses: after[1] - before[1],
        evictions: after[2] - before[2],
        evicted_bytes: after[3] - before[3],
        rows_applied: after[4] - before[4],
        incremental_updates: after[5] - before[5],
        rebuilds: after[6] - before[6],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn churn_replay_is_bitwise_deterministic_across_thread_counts(
        seed in 0u64..1_000_000,
    ) {
        std::env::set_var(THREADS_ENV, "1");
        let reference = run_trial(seed);

        // The workload must actually exercise what we claim is
        // deterministic — otherwise the equalities below are vacuous.
        prop_assert!(reference.evictions > 0, "budget never filled: {reference:?}");
        prop_assert!(reference.evicted_bytes > 0);
        prop_assert!(reference.rows_applied > 0);
        prop_assert!(reference.incremental_updates > 0);
        prop_assert!(
            reference.shard_tables.iter().filter(|&&c| c > 0).count() > 1,
            "all tables hashed into one shard: {:?}",
            reference.shard_tables
        );

        for threads in ["2", "8"] {
            std::env::set_var(THREADS_ENV, threads);
            let trace = run_trial(seed);
            prop_assert_eq!(
                &trace, &reference,
                "churn replay diverged under RDI_THREADS={}", threads
            );
        }
        std::env::remove_var(THREADS_ENV);
    }
}
