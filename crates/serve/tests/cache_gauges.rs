//! The cache-size gauges read what the caches hold: after a batch on
//! either serving path, after a delta and after a one-shot query,
//! `serve.cache.bytes` is the bytes every shard's cache holds together,
//! and the `serve.shard.{i}.cache_bytes` gauges add up to it. The
//! gauges are process-global, so these checks live in their own test
//! binary with no other test running beside them.

use rdi_actor::{Runtime, RuntimeConfig};
use rdi_serve::{
    LakeActorGroup, LakeIndex, LakeIndexConfig, ServeRequest, ServeSession, SessionConfig,
    SessionMsg,
};
use rdi_table::{DataType, Field, Schema, Table, TableDelta, Value};

const SHARDS: usize = 8;

fn str_table(vals: &[String]) -> Table {
    let schema = Schema::new(vec![Field::new("key", DataType::Str)]);
    let mut t = Table::new(schema);
    for v in vals {
        t.push_row(vec![Value::str(v.as_str())]).unwrap();
    }
    t
}

/// Twelve tables over eight shards, so several shards cache sketches.
fn index() -> LakeIndex {
    let mut idx = LakeIndex::new(LakeIndexConfig {
        shard_count: SHARDS,
        ..LakeIndexConfig::default()
    });
    for i in 0..12 {
        let vals: Vec<String> = (0..3 + i).map(|v| format!("v{}", v * (i + 1))).collect();
        idx.register(format!("t{i:02}"), str_table(&vals), 1.0)
            .unwrap();
    }
    idx
}

fn batch() -> Vec<ServeRequest> {
    let query = str_table(&["v1".into(), "v2".into(), "v6".into()]);
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
}

fn gauge(name: &str) -> f64 {
    rdi_obs::gauge(name).get()
}

/// The total gauge is `held`, the shard gauges add up to it, and more
/// than one shard holds bytes (so no single shard's bytes is the sum).
fn assert_gauges_hold(held: usize, at: &str) {
    assert_eq!(gauge("serve.cache.bytes"), held as f64, "{at}");
    let shards: Vec<f64> = (0..SHARDS)
        .map(|i| gauge(&format!("serve.shard.{i}.cache_bytes")))
        .collect();
    assert_eq!(shards.iter().sum::<f64>(), held as f64, "{at}: {shards:?}");
    assert!(
        shards.iter().filter(|&&b| b > 0.0).count() > 1,
        "{at}: {shards:?}"
    );
}

#[test]
fn cache_gauges_read_what_the_caches_hold() {
    // serial session
    let mut session = ServeSession::new(index(), SessionConfig::default());
    session.submit_batch(&batch());
    assert_gauges_hold(session.index().cache_bytes(), "serial batch");

    // a delta that drops a table evicts its sketches
    let idx = session.index_mut();
    idx.apply_delta("t03", &TableDelta::Drop).unwrap();
    let held = idx.cache_bytes();
    assert_gauges_hold(held, "after a drop delta");

    // a one-shot query warms the caches outside any batch
    let idx = session.index_mut();
    idx.union_top_k(&str_table(&["v9".into(), "v10".into()]), 2)
        .unwrap();
    let held = idx.cache_bytes();
    assert_gauges_hold(held, "after a one-shot query");

    // actor path: every shard replies to the batch's union request
    let mut rt = Runtime::new(RuntimeConfig::default());
    let group = LakeActorGroup::host(&mut rt, index());
    let addr = group.spawn_session(&mut rt, "session", SessionConfig::default());
    addr.send(SessionMsg::Submit(batch())).unwrap();
    rt.run_until_idle();
    let hosted = group.reassemble(&mut rt).unwrap();
    assert_gauges_hold(hosted.cache_bytes(), "actor batch");
}
