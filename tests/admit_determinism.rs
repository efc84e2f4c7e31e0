//! Property tests for the multi-tenant admission contract
//! (`rdi-serve::admit`):
//!
//! 1. admission decisions — verdict per request, per-tenant token
//!    levels, aging credits, and breaker arcs — are a pure function of
//!    the tagged request stream: replays under `RDI_THREADS` 1/2/8
//!    (which the lake's registration and the kernels read) are
//!    **bitwise identical**, batch report for batch report;
//! 2. the edge cases hold under random contention: a zero-quota tenant
//!    sheds every request as `QuotaExceeded` without its breaker ever
//!    learning about them, and a tenant whose quota dwarfs the queue is
//!    still bounded by the queue capacity every window;
//! 3. aging never exceeds its cap, and idle windows (randomly generated
//!    zero-demand windows) never reset banked credit — only being
//!    served does.
//!
//! Deliberately a single `#[test]` in its own integration-test file:
//! the file gets its own process, so the `RDI_THREADS` mutation cannot
//! leak into concurrently running tests.

use proptest::prelude::*;
use rdi_par::THREADS_ENV;
use responsible_data_integration::serve::{
    AdmitConfig, LakeIndex, LakeIndexConfig, ServeError, ServeRequest, ServeSession, SessionConfig,
    TaggedRequest, TenantId, TenantPolicy,
};
use responsible_data_integration::table::{DataType, Field, Role, Schema, Table, Value};

const HONEST: [&str; 3] = ["h0", "h1", "h2"];
const AGING_CAP: u64 = 8;

fn lake() -> LakeIndex {
    let schema = Schema::new(vec![
        Field::new("group", DataType::Str).with_role(Role::Sensitive),
        Field::new("x", DataType::Float),
    ]);
    let mut t = Table::new(schema);
    for i in 0..30 {
        t.push_row(vec![
            Value::str(if i % 3 == 0 { "min" } else { "maj" }),
            Value::Float(i as f64),
        ])
        .unwrap();
    }
    let mut idx = LakeIndex::new(LakeIndexConfig::default());
    idx.register("pop", t, 1.0).unwrap();
    idx
}

fn probe(table: &str) -> ServeRequest {
    ServeRequest::CoverageProbe {
        table: table.to_string(),
        attributes: vec!["group".to_string()],
        threshold: 2,
    }
}

/// One window's tagged batch: honest tenants by generated demand,
/// round-robin interleaved, then the zero-quota tenant (poison ghost
/// requests that must never execute) and the over-quota flooder.
fn window_batch(capacity: usize, demand: &[usize]) -> Vec<TaggedRequest> {
    let mut batch = Vec::new();
    let widest = demand.iter().copied().max().unwrap_or(0);
    for pos in 0..widest {
        for (name, d) in HONEST.iter().zip(demand) {
            if pos < *d {
                batch.push(probe("pop").tagged(TenantId::new(*name)));
            }
        }
    }
    batch.push(probe("ghost").tagged(TenantId::new("zed")));
    for _ in 0..capacity + 2 {
        batch.push(probe("pop").tagged(TenantId::new("big")));
    }
    batch
}

/// Run every window and render one deterministic transcript: each
/// batch report plus every tenant's post-window admission state.
/// Equal transcripts ⇔ bitwise-identical admission decisions.
fn run(seed: u64, capacity: usize, windows: &[Vec<usize>]) -> String {
    let config = SessionConfig {
        seed,
        ..SessionConfig::default()
    };
    let mut admit = AdmitConfig::from_session(&config);
    admit.queue_capacity = capacity;
    admit.breaker_threshold = 2;
    admit.breaker_cooldown_ticks = 2;
    let admit = admit.with_tenants(vec![
        (TenantId::new("zed"), TenantPolicy::limited(1, 0, 0)),
        (TenantId::new("big"), TenantPolicy::limited(1, 100, 100)),
    ]);
    let mut session = ServeSession::with_admission(lake(), config, admit);
    let every: Vec<TenantId> = HONEST
        .iter()
        .chain(&["zed", "big"])
        .map(|n| TenantId::new(*n))
        .collect();

    let mut log = String::new();
    for demand in windows {
        let batch = window_batch(capacity, demand);
        let report = session.submit_batch_tagged(&batch);

        // Edge case: the zero-quota tenant sheds everything by quota
        // and its breaker never hears about it — even though its
        // requests would deterministically fail if executed.
        let zed = TenantId::new("zed");
        for (req, resp) in batch.iter().zip(&report.responses) {
            if req.tenant == zed {
                assert!(matches!(resp, Err(ServeError::QuotaExceeded { .. })));
            }
        }
        assert_eq!(session.admitter().breaker_failures(&zed), 0);

        // Edge case: a quota far above the queue is bounded by the
        // queue — the whole batch never over-admits.
        assert!(report.admitted <= capacity, "queue capacity violated");

        for t in &every {
            let a = session.admitter();
            assert!(a.aging(t) <= AGING_CAP, "aging cap violated for {t}");
            log.push_str(&format!(
                "{t}: tokens={:?} aging={} breaker={:?} arrivals={}\n",
                a.tokens(t),
                a.aging(t),
                a.breaker_state(t),
                a.tenant_arrivals(t)
            ));
        }
        log.push_str(&format!("{report:?}\n"));
    }
    log
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn admission_is_thread_count_invariant_under_contention(
        seed in 0u64..1_000_000,
        capacity in 1usize..6,
        // per window, per honest tenant demand; zeros make idle
        // windows, so aging credit must survive them identically
        windows in proptest::collection::vec(
            proptest::collection::vec(0usize..4, 3),
            2..6,
        ),
    ) {
        std::env::set_var(THREADS_ENV, "1");
        let reference = run(seed, capacity, &windows);
        for threads in ["2", "8"] {
            std::env::set_var(THREADS_ENV, threads);
            let replay = run(seed, capacity, &windows);
            std::env::remove_var(THREADS_ENV);
            prop_assert_eq!(
                &replay, &reference,
                "admission decisions changed under RDI_THREADS={}", threads
            );
        }
    }
}
