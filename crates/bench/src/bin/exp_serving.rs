//! E19: batched, cache-backed query serving (`rdi-serve`).
//!
//! Builds a synthetic lake plus a skewed source federation, registers
//! everything in a persistent [`LakeIndex`], and serves a mixed batch
//! of union-search, joinability, coverage, and tailoring requests
//! through a [`ServeSession`]. Because the CI machine is single-CPU,
//! cache effectiveness is proven by **counters, not wall-clock**:
//!
//! * the served union ranking is byte-identical to the uncached
//!   `UnionSearchIndex` path (scores equal to the bit);
//! * replaying the same request stream over the warm index builds
//!   **zero** new sketches (`discovery.sketches_built` unchanged) and
//!   returns bitwise-identical responses — including the randomized
//!   tailoring run, which replays on the same per-arrival RNG stream;
//! * overload and poison requests degrade to typed partial results
//!   (queue shedding, breaker trip) — the batch never panics;
//! * under a deliberately small byte budget, a stream of distinct
//!   ad-hoc queries makes the query-sketch caches evict LRU entries and
//!   account every released byte (`serve.cache.evictions` /
//!   `serve.cache.evicted_bytes`) instead of overflowing. Registered
//!   tables' sketches live in their maintained stores, outside that
//!   budget.

use rdi_bench::{emit_metrics_snapshot, f1, f3, print_table};
use rdi_datagen::{skewed_sources, LakeConfig, PopulationSpec, SourceConfig, SyntheticLake};
use rdi_discovery::{TableSignature, UnionSearchIndex};
use rdi_par::Threads;
use rdi_serve::{
    LakeIndex, LakeIndexConfig, ServeError, ServeRequest, ServeResponse, ServeSession,
    SessionConfig,
};
use rdi_table::{GroupKey, GroupSpec, Value};
use rdi_tailor::DtProblem;

const SEED: u64 = 1905;

fn counter(name: &str) -> u64 {
    rdi_obs::counter(name).get()
}

fn build_index() -> (LakeIndex, rdi_table::Table) {
    let lake = SyntheticLake::generate_par(
        &LakeConfig {
            num_candidates: 24,
            query_keys: 500,
            candidate_rows: 600,
            joinable_fraction: 0.4,
        },
        SEED,
        Threads::auto(),
    );
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(SEED);
    let federation = skewed_sources(
        &PopulationSpec::two_group(0.2),
        &SourceConfig {
            num_sources: 3,
            rows_per_source: 2_000,
            concentration: 1.0,
            costs: vec![1.0, 1.5, 2.0],
        },
        &mut rng,
    );

    let mut index = LakeIndex::new(LakeIndexConfig::default());
    for c in &lake.candidates {
        index.register(&c.name, c.table.clone(), 1.0).unwrap();
    }
    for (i, g) in federation.into_iter().enumerate() {
        index.register(format!("fed_{i}"), g.table, g.cost).unwrap();
    }
    (index, lake.query)
}

fn mixed_batch(query: &rdi_table::Table) -> Vec<ServeRequest> {
    let problem = DtProblem::exact_counts(
        GroupSpec::new(vec!["group"]),
        vec![
            (GroupKey(vec![Value::str("maj")]), 50),
            (GroupKey(vec![Value::str("min")]), 50),
        ],
    );
    vec![
        ServeRequest::UnionTopK {
            query: query.clone(),
            k: 5,
        },
        ServeRequest::JoinableTopK {
            query: query.clone(),
            column: "key".into(),
            k: 5,
        },
        ServeRequest::CoverageProbe {
            table: "fed_0".into(),
            attributes: vec!["group".into()],
            threshold: 50,
        },
        ServeRequest::TailorRun {
            problem,
            sources: vec!["fed_0".into(), "fed_1".into(), "fed_2".into()],
            max_draws: 50_000,
        },
    ]
}

fn summarize(r: &Result<ServeResponse, ServeError>) -> String {
    match r {
        Ok(ServeResponse::UnionTopK(v)) => {
            format!("top hit {} ({})", v[0].0, f3(v[0].1))
        }
        Ok(ServeResponse::JoinableTopK(v)) => {
            format!("top hit {} (containment {})", v[0].0, f3(v[0].1))
        }
        Ok(ServeResponse::Coverage(c)) => format!(
            "{} MUPs, uncovered fraction {}",
            c.mups.len(),
            f3(c.uncovered_fraction)
        ),
        Ok(ServeResponse::Tailored(t)) => format!(
            "{} rows, cost {}, degraded {}",
            t.rows,
            f1(t.total_cost),
            t.degraded
        ),
        Err(e) => format!("error: {e}"),
    }
}

fn main() {
    // Span tick totals under RDI_FAKE_CLOCK depend on thread
    // interleaving; pin serial execution when the caller hasn't chosen
    // so the golden stays byte-stable. Answers are thread-invariant
    // regardless (tests/serve_determinism.rs sweeps 1/2/8 threads).
    if std::env::var_os("RDI_THREADS").is_none() {
        std::env::set_var("RDI_THREADS", "1");
    }

    let (index, query) = build_index();
    let n_tables = index.len();
    let batch = mixed_batch(&query);

    // --- 1. cold batch: every sketch is built exactly once ---
    let built_0 = counter("discovery.sketches_built");
    let (hits_0, misses_0) = (counter("serve.cache.hits"), counter("serve.cache.misses"));
    let mut session = ServeSession::new(index, SessionConfig::default());
    let cold = session.submit_batch(&batch);
    assert!(!cold.degraded, "cold batch must answer every request");
    let built_cold = counter("discovery.sketches_built") - built_0;

    print_table(
        &format!("E19: mixed batch over {n_tables} registered tables (cold cache)"),
        &["request", "answer"],
        &batch
            .iter()
            .zip(&cold.responses)
            .map(|(req, resp)| vec![req.kind().to_string(), summarize(resp)])
            .collect::<Vec<_>>(),
    );

    // --- 2. served union ranking == uncached UnionSearchIndex path ---
    let k = session.index().config().minhash_k;
    let mut reference = UnionSearchIndex::new();
    for id in session.index().table_ids() {
        let t = session.index().table(id).unwrap();
        reference.insert(TableSignature::build(id, t, k).unwrap());
    }
    let qsig = TableSignature::build("<query>", &query, k).unwrap();
    let want = reference.top_k(&qsig, 5);
    let got = match &cold.responses[0] {
        Ok(ServeResponse::UnionTopK(v)) => v.clone(),
        other => panic!("expected union response, got {other:?}"),
    };
    assert_eq!(got.len(), want.len());
    for ((gi, gs), (wi, ws)) in got.iter().zip(&want) {
        assert_eq!(gi, wi, "same ranking as the uncached path");
        assert_eq!(gs.to_bits(), ws.to_bits(), "scores byte-identical");
    }
    println!("\nunion ranking vs uncached UnionSearchIndex: byte-identical = true");

    // --- 3. warm replay: same responses, zero sketches built ---
    let built_1 = counter("discovery.sketches_built");
    let hits_cold = counter("serve.cache.hits") - hits_0;
    let misses_cold = counter("serve.cache.misses") - misses_0;
    // A fresh session over the warm index restarts the arrival counter,
    // so the replay consumes the same per-request RNG streams.
    let mut warm_session = ServeSession::new(session.into_index(), SessionConfig::default());
    let warm = warm_session.submit_batch(&batch);
    let built_warm = counter("discovery.sketches_built") - built_1;
    let hits_warm = counter("serve.cache.hits") - hits_0 - hits_cold;
    assert_eq!(built_warm, 0, "warm replay must build zero sketches");
    assert_eq!(
        cold.responses, warm.responses,
        "warm replay must be bitwise identical (tailor run included)"
    );
    print_table(
        "E19b: cache effectiveness (counters, not wall-clock)",
        &[
            "run",
            "sketches built",
            "cache hits",
            "cache misses",
            "responses == cold",
        ],
        &[
            vec![
                "cold".into(),
                built_cold.to_string(),
                hits_cold.to_string(),
                misses_cold.to_string(),
                "—".into(),
            ],
            vec![
                "warm".into(),
                built_warm.to_string(),
                hits_warm.to_string(),
                "0".to_string(),
                "yes".into(),
            ],
        ],
    );
    println!(
        "\ncache: {} sketches cached, {} accounted bytes",
        warm_session.index().cached_sketches(),
        warm_session.index().cache_bytes()
    );

    // --- 4. degradation: queue shedding and the session breaker ---
    let mut shed_session = ServeSession::new(
        warm_session.into_index(),
        SessionConfig {
            queue_capacity: 2,
            ..SessionConfig::default()
        },
    );
    let flood: Vec<ServeRequest> = std::iter::repeat_with(|| ServeRequest::UnionTopK {
        query: query.clone(),
        k: 3,
    })
    .take(6)
    .collect();
    let overload = shed_session.submit_batch(&flood);
    assert_eq!(overload.admitted, 2);
    assert_eq!(overload.shed, 4);
    assert!(overload.responses[..2].iter().all(|r| r.is_ok()));
    assert!(overload.responses[2..]
        .iter()
        .all(|r| matches!(r, Err(ServeError::QueueFull { .. }))));

    // Breaker demo on a default-capacity session (the tiny shedding
    // queue above would shed most of the poison before it could trip).
    let mut breaker_session =
        ServeSession::new(shed_session.into_index(), SessionConfig::default());
    let poison = ServeRequest::CoverageProbe {
        table: "no_such_table".into(),
        attributes: vec![],
        threshold: 1,
    };
    let threshold = breaker_session.config().breaker_threshold as usize;
    let poisoned = breaker_session.submit_batch(&vec![poison; threshold]);
    assert!(poisoned.degraded);
    assert!(breaker_session.breaker_open());
    let after_trip = breaker_session.submit_batch(&flood[..2]);
    assert!(after_trip
        .responses
        .iter()
        .all(|r| matches!(r, Err(ServeError::CircuitOpen { .. }))));
    print_table(
        "E19c: graceful degradation (partial results, never panics)",
        &["batch", "submitted", "admitted", "shed", "failed"],
        &[
            vec![
                "overload (capacity 2)".into(),
                flood.len().to_string(),
                overload.admitted.to_string(),
                overload.shed.to_string(),
                "0".into(),
            ],
            vec![
                "poison (unknown table)".into(),
                threshold.to_string(),
                poisoned.admitted.to_string(),
                poisoned.shed.to_string(),
                threshold.to_string(),
            ],
            vec![
                "after breaker trip".into(),
                "2".into(),
                after_trip.admitted.to_string(),
                after_trip.shed.to_string(),
                "0".into(),
            ],
        ],
    );
    println!(
        "\nbreaker open = {}, every shed request got a typed error",
        breaker_session.breaker_open()
    );

    // --- 5. byte-budget pressure: caches evict, and account for it ---
    // Four distinct queries (the first 500, 400, 300 and 200 query
    // rows) through a 2 KiB per-shard slice: each query's union
    // signature and join profile evict the sketch before them.
    let budget = 16 << 10;
    let ev_0 = counter("serve.cache.evictions");
    let evb_0 = counter("serve.cache.evicted_bytes");
    let big = breaker_session.into_index();
    let mut small = LakeIndex::new(LakeIndexConfig {
        cache_capacity_bytes: budget,
        ..LakeIndexConfig::default()
    });
    for id in big.table_ids() {
        small
            .register(id, big.table(id).unwrap().clone(), 1.0)
            .unwrap();
    }
    for rows in [500, 400, 300, 200] {
        let q = query.take(&(0..rows).collect::<Vec<_>>());
        small.union_top_k(&q, 5).unwrap();
        small.joinable_top_k(&q, "key", 5).unwrap();
    }
    let evictions = counter("serve.cache.evictions") - ev_0;
    let evicted_bytes = counter("serve.cache.evicted_bytes") - evb_0;
    assert!(evictions > 0, "a {budget}-byte budget must evict");
    assert!(evicted_bytes > 0, "evictions must account their bytes");
    assert!(
        small.cache_bytes() <= budget,
        "resident bytes within the global budget"
    );
    print_table(
        "E19d: eviction under a 16 KiB budget (counters, not wall-clock)",
        &["measure", "value"],
        &[
            vec!["serve.cache.evictions".into(), evictions.to_string()],
            vec![
                "serve.cache.evicted_bytes".into(),
                evicted_bytes.to_string(),
            ],
            vec![
                "resident bytes / budget".into(),
                format!("{} / {budget}", small.cache_bytes()),
            ],
        ],
    );

    emit_metrics_snapshot();
}
