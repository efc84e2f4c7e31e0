//! Exact counter deltas of lake-index maintenance: a warm query builds
//! no sketch, neither does an append delta nor the warm re-query after
//! it, nor a session replaying a batch over a warm index, nor a read
//! after an upsert of equal content, while a read after an upsert of
//! changed content builds each column once; deletions rebuild only once
//! their debt crosses the threshold; and the query-cache budget moves
//! no sketch count. The counters are
//! process-global, so these checks live in their own test binary with
//! no other test running beside them; the answer checks of the same
//! scenarios stay with the index's and the session's unit tests.

use rdi_actor::{Runtime, RuntimeConfig};
use rdi_serve::{
    LakeActorGroup, LakeIndex, LakeIndexConfig, ServeRequest, ServeSession, SessionActor,
    SessionConfig, SessionMsg,
};
use rdi_table::{DataType, Field, Schema, Table, TableDelta, Value};

fn str_table(col: &str, vals: &[&str]) -> Table {
    let schema = Schema::new(vec![Field::new(col, DataType::Str)]);
    let mut t = Table::new(schema);
    for v in vals {
        t.push_row(vec![Value::str(*v)]).unwrap();
    }
    t
}

fn index_with(tables: &[(&str, &[&str])]) -> LakeIndex {
    let mut idx = LakeIndex::default();
    for (id, vals) in tables {
        idx.register(*id, str_table("key", vals), 1.0).unwrap();
    }
    idx
}

fn repeat_queries_build_no_new_sketches() {
    let mut idx = index_with(&[("t1", &["a", "b", "c"]), ("t2", &["x", "y", "z"])]);
    let q = str_table("key", &["a", "b"]);
    let built = rdi_obs::counter("discovery.sketches_built");
    idx.union_top_k(&q, 2).unwrap();
    let after_first = built.get();
    idx.union_top_k(&q, 2).unwrap();
    assert_eq!(built.get(), after_first, "warm query builds nothing");
}

fn append_delta_builds_no_sketches() {
    let mut idx = index_with(&[
        ("t1", &["a", "b", "c"]),
        ("t2", &["x", "y", "z"]),
        ("t3", &["a", "x", "q"]),
    ]);
    let q = str_table("key", &["a", "b", "x"]);
    // warm both sketch kinds so maintenance has something to do
    idx.union_top_k(&q, 3).unwrap();
    idx.joinable_top_k(&q, "key", 3).unwrap();

    let delta = TableDelta::Append(str_table("key", &["b", "w"]));
    let built = rdi_obs::counter("discovery.sketches_built");
    let before = built.get();
    assert_eq!(idx.apply_delta("t1", &delta).unwrap(), 2);
    idx.union_top_k(&q, 3).unwrap();
    idx.joinable_top_k(&q, "key", 3).unwrap();
    assert_eq!(
        built.get(),
        before,
        "delta maintenance and warm re-query build zero sketches"
    );
}

fn delete_delta_rebuilds_only_past_debt() {
    let config = LakeIndexConfig {
        deletion_debt_threshold: 2,
        ..LakeIndexConfig::default()
    };
    let mut idx = LakeIndex::new(config);
    idx.register("t1", str_table("key", &["a", "b", "c", "d", "e", "f"]), 1.0)
        .unwrap();
    idx.register("t2", str_table("key", &["a", "x"]), 1.0)
        .unwrap();
    let q = str_table("key", &["a", "b", "c"]);
    idx.union_top_k(&q, 2).unwrap();

    // 2 deleted rows: at the threshold, still incremental
    let rebuilds = rdi_obs::counter("sketch.rebuilds");
    let before = rebuilds.get();
    assert_eq!(
        idx.apply_delta("t1", &TableDelta::Delete(vec![4, 5]))
            .unwrap(),
        2
    );
    assert_eq!(rebuilds.get(), before, "below/at threshold: no rebuild");

    // one more deleted row crosses the threshold → counted rebuild
    assert_eq!(
        idx.apply_delta("t1", &TableDelta::Delete(vec![3])).unwrap(),
        1
    );
    assert!(rebuilds.get() > before, "debt crossed: rebuild counted");
}

fn warm_session_replay_builds_no_sketches() {
    let batch = vec![
        ServeRequest::UnionTopK {
            query: str_table("key", &["a", "b", "c"]),
            k: 2,
        },
        ServeRequest::JoinableTopK {
            query: str_table("key", &["a", "b"]),
            column: "key".into(),
            k: 2,
        },
    ];
    let idx = index_with(&[("abc", &["a", "b", "c"]), ("abx", &["a", "b", "x"])]);
    let mut cold = ServeSession::new(idx, SessionConfig::default());
    cold.submit_batch(&batch);
    let mut warm = ServeSession::new(cold.into_index(), SessionConfig::default());
    let built = rdi_obs::counter("discovery.sketches_built");
    let before = built.get();
    warm.submit_batch(&batch);
    assert_eq!(built.get(), before, "warm replay rebuilds no sketches");
}

fn upsert_keeps_the_store_only_for_equal_content() {
    let mut idx = index_with(&[("t1", &["a", "b"]), ("t2", &["x", "y"])]);
    let q = str_table("key", &["a"]);
    idx.union_top_k(&q, 2).unwrap();
    let built = rdi_obs::counter("discovery.sketches_built");

    // changed content: the next union builds t1's one column again
    idx.upsert("t1", str_table("key", &["a", "b", "c"]), 1.0)
        .unwrap();
    let before = built.get();
    let changed = idx.union_top_k(&q, 2).unwrap();
    assert_eq!(built.get(), before + 1, "one column of t1 rebuilt");

    // equal content: the store stays and nothing is built
    idx.upsert("t1", str_table("key", &["a", "b", "c"]), 2.0)
        .unwrap();
    let before = built.get();
    assert_eq!(idx.union_top_k(&q, 2).unwrap(), changed);
    assert_eq!(built.get(), before, "equal content builds nothing");
}

/// Three tables over a query cache of `budget` bytes.
fn budget_index(budget: usize) -> LakeIndex {
    let mut idx = LakeIndex::new(LakeIndexConfig {
        cache_capacity_bytes: budget,
        ..LakeIndexConfig::default()
    });
    for (id, vals) in [
        ("abc", ["a", "b", "c"]),
        ("abx", ["a", "b", "x"]),
        ("xyz", ["x", "y", "z"]),
    ] {
        idx.register(id, str_table("key", &vals), 1.0).unwrap();
    }
    idx
}

/// One batch per distinct query, each a union and a join.
fn distinct_query_batches() -> Vec<Vec<ServeRequest>> {
    [&["a", "b"][..], &["x", "y"], &["c"], &["a", "x", "z"]]
        .into_iter()
        .map(|q| {
            let query = str_table("key", q);
            vec![
                ServeRequest::UnionTopK {
                    query: query.clone(),
                    k: 3,
                },
                ServeRequest::JoinableTopK {
                    query,
                    column: "key".into(),
                    k: 3,
                },
            ]
        })
        .collect()
}

/// The same stream of distinct queries over the same lake with a
/// zero-byte and a default query cache, on the serial and on the actor
/// path: equal answers, equal sketch builds. (A repeated query is the
/// one thing a smaller budget can make rebuild: its own sketches.)
fn query_cache_budget_moves_no_sketch_count() {
    let built = rdi_obs::counter("discovery.sketches_built");
    let default_budget = LakeIndexConfig::default().cache_capacity_bytes;
    let serial = |budget: usize| {
        let mut session = ServeSession::new(budget_index(budget), SessionConfig::default());
        let before = built.get();
        let answers: Vec<_> = distinct_query_batches()
            .iter()
            .map(|b| session.submit_batch(b).responses)
            .collect();
        (answers, built.get() - before)
    };
    let actor = |budget: usize| {
        let mut rt = Runtime::new(RuntimeConfig::default());
        let group = LakeActorGroup::host(&mut rt, budget_index(budget));
        let session = group.spawn_session(&mut rt, "s0", SessionConfig::default());
        let before = built.get();
        for b in distinct_query_batches() {
            session.send(SessionMsg::Submit(b)).unwrap();
        }
        rt.run_until_idle();
        let answers: Vec<_> = rt
            .actor::<SessionActor>(session.id())
            .unwrap()
            .completed()
            .iter()
            .map(|r| r.responses.clone())
            .collect();
        (answers, built.get() - before)
    };
    let zero = serial(0);
    assert!(zero.1 > 0, "the stream builds sketches");
    assert_eq!(zero, serial(default_budget), "serial path");
    assert_eq!(actor(0), zero, "actor path, zero budget");
    assert_eq!(actor(default_budget), zero, "actor path, default budget");
}

#[test]
fn maintenance_counter_deltas_are_exact() {
    repeat_queries_build_no_new_sketches();
    append_delta_builds_no_sketches();
    delete_delta_rebuilds_only_past_debt();
    warm_session_replay_builds_no_sketches();
    upsert_keeps_the_store_only_for_equal_content();
    query_cache_budget_moves_no_sketch_count();
}
