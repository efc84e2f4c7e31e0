//! The memory gauges read what the caches and the maintained stores
//! hold: after a batch on either serving path, after a delta and after
//! a one-shot query, `serve.cache.bytes` is the bytes every shard's
//! query cache holds together and `serve.maint.bytes` the footprint of
//! every registered table's maintained store, and the per-shard
//! `serve.shard.{i}.cache_bytes` and `serve.shard.{i}.maint_bytes`
//! gauges add up to them. The gauges are process-global, so these
//! checks live in their own test binary with no other test running
//! beside them.

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

/// Twelve tables over eight shards, so several shards maintain sketches.
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

/// The total gauges read what `index` holds and the shard gauges add up
/// to them. Only the query-owner shard caches sketches, while more than
/// one shard maintains them (so no single shard's bytes is the sum).
fn assert_gauges_hold(index: &LakeIndex, at: &str) {
    let shards = |kind: &str| -> Vec<f64> {
        (0..SHARDS)
            .map(|i| gauge(&format!("serve.shard.{i}.{kind}_bytes")))
            .collect()
    };
    let (cache, maint) = (index.cache_bytes(), index.maint_bytes());
    assert!(cache > 0 && maint > 0, "{at}");
    assert_eq!(gauge("serve.cache.bytes"), cache as f64, "{at}");
    assert_eq!(gauge("serve.maint.bytes"), maint as f64, "{at}");
    let cached = shards("cache");
    assert_eq!(cached.iter().sum::<f64>(), cache as f64, "{at}: {cached:?}");
    assert_eq!(
        cached.iter().filter(|&&b| b > 0.0).count(),
        1,
        "{at}: {cached:?}"
    );
    let maintained = shards("maint");
    assert_eq!(
        maintained.iter().sum::<f64>(),
        maint as f64,
        "{at}: {maintained:?}"
    );
    assert!(
        maintained.iter().filter(|&&b| b > 0.0).count() > 1,
        "{at}: {maintained:?}"
    );
}

#[test]
fn cache_gauges_read_what_the_caches_hold() {
    // serial session
    let mut session = ServeSession::new(index(), SessionConfig::default());
    session.submit_batch(&batch());
    assert_gauges_hold(session.index(), "serial batch");

    // a delta that drops a table drops its store
    let before = session.index().maint_bytes();
    session
        .index_mut()
        .apply_delta("t03", &TableDelta::Drop)
        .unwrap();
    assert!(session.index().maint_bytes() < before);
    assert_gauges_hold(session.index(), "after a drop delta");

    // a one-shot query warms the caches outside any batch
    session
        .index_mut()
        .union_top_k(&str_table(&["v9".into(), "v10".into()]), 2)
        .unwrap();
    assert_gauges_hold(session.index(), "after a one-shot query");

    // actor path: every shard replies to the batch's union request
    let mut rt = Runtime::new(RuntimeConfig::default());
    let group = LakeActorGroup::host(&mut rt, index());
    let addr = group.spawn_session(&mut rt, "session", SessionConfig::default());
    addr.send(SessionMsg::Submit(batch())).unwrap();
    rt.run_until_idle();
    let hosted = group.reassemble(&mut rt).unwrap();
    assert_gauges_hold(&hosted, "actor batch");
}
