//! The warm and execute phases run on the calling thread: sketching an
//! ad-hoc query table dispatches no parallel run, however many threads
//! `RDI_THREADS` allows, and neither does a serial session's batch whose
//! kernels all stay under their serial cut-offs, whatever its
//! `SessionConfig::threads`. The dispatch counters and the variable are
//! process-global, so this check lives in its own test binary with no
//! other test running beside it.

use rdi_discovery::{TableSignature, UnionSearchIndex};
use rdi_par::{Threads, THREADS_ENV};
use rdi_serve::{CacheKey, LakeIndex, ServeRequest, ServeSession, SessionConfig};
use rdi_table::{DataType, Field, GroupKey, GroupSpec, Role, Schema, Table, Value};
use rdi_tailor::DtProblem;

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

    // One batch of every request kind on a session configured for 8
    // threads: its plans run in place, one after another.
    let schema = Schema::new(vec![
        Field::new("group", DataType::Str).with_role(Role::Sensitive),
        Field::new("city", DataType::Str),
    ]);
    let mut pop = Table::new(schema);
    for (g, c) in [
        ("min", "oslo"),
        ("maj", "lima"),
        ("maj", "kyiv"),
        ("min", "rome"),
    ] {
        pop.push_row(vec![Value::str(g), Value::str(c)]).unwrap();
    }
    idx.register("pop", pop, 1.0).unwrap();
    let mut session = ServeSession::new(
        idx,
        SessionConfig {
            threads: Threads::fixed(8),
            ..SessionConfig::default()
        },
    );
    let problem = DtProblem::exact_counts(
        GroupSpec::new(vec!["group"]),
        vec![
            (GroupKey(vec![Value::str("maj")]), 1),
            (GroupKey(vec![Value::str("min")]), 1),
        ],
    );
    let batch = [
        ServeRequest::UnionTopK {
            query: query.clone(),
            k: 2,
        },
        ServeRequest::JoinableTopK {
            query: query.clone(),
            column: "city".into(),
            k: 2,
        },
        ServeRequest::CoverageProbe {
            table: "pop".into(),
            attributes: vec!["group".into(), "city".into()],
            threshold: 2,
        },
        ServeRequest::TailorRun {
            problem,
            sources: vec!["pop".into()],
            max_draws: 50,
        },
    ];
    let tasks_dispatched = rdi_obs::counter("par.tasks_dispatched");
    let (runs_before, tasks_before) = (parallel_runs.get(), tasks_dispatched.get());
    let report = session.submit_batch(&batch);
    let (runs, tasks) = (
        parallel_runs.get() - runs_before,
        tasks_dispatched.get() - tasks_before,
    );
    std::env::remove_var(THREADS_ENV);
    assert_eq!(report.admitted, batch.len());
    assert!(report.responses.iter().all(Result::is_ok), "{report:?}");
    assert_eq!(runs, 0, "the session's batch dispatched a parallel run");
    assert_eq!(tasks, 0, "the session's batch dispatched parallel tasks");

    assert_eq!(got.len(), want.len());
    for ((got_id, got_score), (want_id, want_score)) in got.iter().zip(&want) {
        assert_eq!(got_id, want_id);
        assert_eq!(got_score.to_bits(), want_score.to_bits(), "{got_id}");
    }
}
