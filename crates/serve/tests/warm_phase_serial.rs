//! The warm phase runs on the calling thread: sketching an ad-hoc query
//! table dispatches no parallel run, however many threads
//! `RDI_THREADS` allows. The dispatch counters and the variable are
//! process-global, so this check lives in its own test binary with no
//! other test running beside it.

use rdi_discovery::{TableSignature, UnionSearchIndex};
use rdi_par::{Threads, THREADS_ENV};
use rdi_serve::{CacheKey, LakeIndex};
use rdi_table::{DataType, Field, Schema, Table, Value};

fn three_columns(rows: &[[&str; 3]]) -> Table {
    let schema = Schema::new(vec![
        Field::new("city", DataType::Str),
        Field::new("country", DataType::Str),
        Field::new("zone", DataType::Str),
    ]);
    let mut t = Table::new(schema);
    for row in rows {
        t.push_row(row.iter().map(|v| Value::str(*v)).collect())
            .unwrap();
    }
    t
}

#[test]
fn query_sketching_spawns_no_threads_and_keeps_the_answer() {
    std::env::set_var(THREADS_ENV, "8");
    let lake: Vec<(&str, Table)> = vec![
        (
            "twin",
            three_columns(&[["oslo", "no", "cet"], ["lima", "pe", "pet"]]),
        ),
        (
            "half",
            three_columns(&[["oslo", "no", "cet"], ["kyiv", "ua", "eet"]]),
        ),
        (
            "none",
            three_columns(&[["apia", "ws", "wst"], ["suva", "fj", "fjt"]]),
        ),
    ];
    let mut idx = LakeIndex::default();
    for (id, t) in &lake {
        idx.register(*id, t.clone(), 1.0).unwrap();
    }
    let query = three_columns(&[
        ["oslo", "no", "cet"],
        ["lima", "pe", "pet"],
        ["rome", "it", "cet"],
    ]);

    let parallel_runs = rdi_obs::counter("par.parallel_runs");
    let before = parallel_runs.get();
    let got = idx.union_top_k(&query, 3).unwrap();
    assert_eq!(
        parallel_runs.get() - before,
        0,
        "the warm phase dispatched a parallel run"
    );

    // Reference: the query signature built on 8 threads.
    let k = idx.config().minhash_k;
    let mut reference = UnionSearchIndex::new();
    for (id, t) in &lake {
        reference.insert(TableSignature::build_with(*id, t, k, Threads::serial()).unwrap());
    }
    let qsig =
        TableSignature::build_with(CacheKey::QUERY_OWNER, &query, k, Threads::fixed(8)).unwrap();
    let want = reference.top_k_with(&qsig, 3, Threads::serial());
    std::env::remove_var(THREADS_ENV);

    assert_eq!(got.len(), want.len());
    for ((got_id, got_score), (want_id, want_score)) in got.iter().zip(&want) {
        assert_eq!(got_id, want_id);
        assert_eq!(got_score.to_bits(), want_score.to_bits(), "{got_id}");
    }
}
