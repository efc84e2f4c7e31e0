//! Exact counter deltas of lake-index maintenance: a warm query builds
//! no sketch, neither does an append delta nor the warm re-query after
//! it, nor a session replaying a batch over a warm index, and deletions
//! rebuild only once their debt crosses the threshold. The counters are
//! process-global, so these checks live in their own test binary with
//! no other test running beside them; the answer checks of the same
//! scenarios stay with the index's and the session's unit tests.

use rdi_serve::{LakeIndex, LakeIndexConfig, ServeRequest, ServeSession, SessionConfig};
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

#[test]
fn maintenance_counter_deltas_are_exact() {
    repeat_queries_build_no_new_sketches();
    append_delta_builds_no_sketches();
    delete_delta_rebuilds_only_past_debt();
    warm_session_replay_builds_no_sketches();
}
