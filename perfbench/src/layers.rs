//! Per-layer readings of the traced run: exact counter ratios, span self
//! times, and timed calls into each layer's public functions.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use rdi_discovery::{MinHash, TableSignature};
use rdi_par::{par_map, Threads};
use rdi_policy::{Candidate, PolicyId, PolicyParams, RankByScore, Score, SelectionPolicy};
use rdi_serve::{Admitter, ServeSession, SessionConfig};

use crate::common::{same_bits, Outcome, Probe};
use crate::stats::median;

/// Per-layer metric names with their units and direction, in report order.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("serve.session.union_us", "us", "lower"),
    ("serve.session.join_us", "us", "lower"),
    ("serve.session.coverage_us", "us", "lower"),
    ("serve.session.tailor_us", "us", "lower"),
    ("serve.session.candidates_per_req", "count", "lower"),
    ("serve.cache.hit_ratio", "ratio", "higher"),
    ("serve.cache.evictions_per_op", "count", "lower"),
    ("serve.cache.evicted_bytes_per_op", "bytes", "lower"),
    ("serve.index.apply_delta_append_us", "us", "lower"),
    ("serve.index.apply_delta_delete_us", "us", "lower"),
    ("serve.index.upsert_us", "us", "lower"),
    ("sketch.incremental_updates_per_delta", "count", "lower"),
    ("sketch.rebuilds_per_delta", "count", "lower"),
    ("discovery.sketches_built_per_op", "count", "lower"),
    ("discovery.build_us", "us", "lower"),
    ("discovery.query_minhash_us", "us", "lower"),
    ("policy.decisions_per_op", "count", "lower"),
    ("policy.choose_us", "us", "lower"),
    ("par.parallel_runs_per_batch", "count", "lower"),
    ("par.tasks_per_batch", "count", "lower"),
    ("par.dispatch_us", "us", "lower"),
    ("serve.admit.busy_us", "us", "lower"),
    ("serve.admit.shed_quota_per_window", "count", "lower"),
    ("serve.admit.shed_queue_per_window", "count", "lower"),
    ("serve.admit.shed_breaker_per_window", "count", "lower"),
    ("actor.steps_per_window", "count", "lower"),
    ("actor.messages_per_window", "count", "lower"),
    ("actor.step_us", "us", "lower"),
    ("actor.event_log_entries_per_window", "count", "lower"),
    ("serve.actors.overhead_frac", "ratio", "lower"),
    ("obs.span_records_per_batch", "count", "lower"),
    ("trace.self_us.bench", "us", "lower"),
    ("trace.self_us.serve.session", "us", "lower"),
    ("trace.self_us.serve.index", "us", "lower"),
    ("trace.self_us.actor", "us", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("env.steal_frac", "ratio", "lower"),
    ("env.cpu_per_wall", "ratio", "higher"),
];

/// Repetitions of each micro-timed call; the median is reported.
const REPS: usize = 300;

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Derive every per-layer metric from an untraced run, the traced run of
/// the same inputs, and timed calls on the traced run's final state.
/// Returns the metrics and any failed check.
pub fn per_layer(
    base: &Outcome,
    traced: &mut Outcome,
    threads: usize,
) -> Result<(BTreeMap<&'static str, f64>, Vec<String>), String> {
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut errors = Vec::new();
    let c = &traced.counters;
    let ops = traced.attempted;
    let steps = traced.steps();
    let batches = c.get("serve.batches");

    m.insert(
        "serve.session.candidates_per_req",
        ratio(c.get("serve.candidates_scored"), c.get("serve.requests")),
    );
    let (hits, misses) = (c.get("serve.cache.hits"), c.get("serve.cache.misses"));
    m.insert("serve.cache.hit_ratio", ratio(hits, hits + misses));
    m.insert(
        "serve.cache.evictions_per_op",
        ratio(c.get("serve.cache.evictions"), ops),
    );
    m.insert(
        "serve.cache.evicted_bytes_per_op",
        ratio(c.get("serve.cache.evicted_bytes"), ops),
    );
    m.insert(
        "sketch.incremental_updates_per_delta",
        ratio(c.get("sketch.incremental_updates"), traced.deltas),
    );
    m.insert(
        "sketch.rebuilds_per_delta",
        ratio(c.get("sketch.rebuilds"), traced.deltas),
    );
    m.insert(
        "discovery.sketches_built_per_op",
        ratio(c.get("discovery.sketches_built"), ops),
    );
    m.insert(
        "policy.decisions_per_op",
        ratio(c.get("policy.decisions"), ops),
    );
    m.insert(
        "par.parallel_runs_per_batch",
        ratio(c.get("par.parallel_runs"), batches),
    );
    m.insert(
        "par.tasks_per_batch",
        ratio(c.get("par.tasks_dispatched"), batches),
    );
    for (counter, name) in [
        (
            "serve.admit.shed_quota",
            "serve.admit.shed_quota_per_window",
        ),
        (
            "serve.admit.shed_queue",
            "serve.admit.shed_queue_per_window",
        ),
        (
            "serve.admit.shed_breaker",
            "serve.admit.shed_breaker_per_window",
        ),
    ] {
        m.insert(name, ratio(c.get(counter), steps));
    }
    m.insert(
        "actor.steps_per_window",
        ratio(c.get("actor.scheduler_steps"), steps),
    );
    m.insert(
        "actor.messages_per_window",
        ratio(c.get("actor.messages_delivered"), steps),
    );
    m.insert(
        "obs.span_records_per_batch",
        ratio(c.get("obs.span_records"), batches),
    );
    for name in [
        "actor.event_log_entries_per_window",
        "serve.actors.overhead_frac",
    ] {
        m.insert(name, base.layer.get(name).copied().unwrap_or(0.0));
    }

    // Spans recorded around the benchmark's own calls.
    let t = &traced.trace;
    m.insert(
        "serve.index.apply_delta_append_us",
        median(&t.durations_us("serve.index.apply_delta.append")),
    );
    m.insert(
        "serve.index.apply_delta_delete_us",
        median(&t.durations_us("serve.index.apply_delta.delete")),
    );
    m.insert(
        "serve.index.upsert_us",
        median(&t.durations_us("serve.index.upsert")),
    );
    m.insert("actor.step_us", median(&t.durations_us("actor.step")));
    let own = t.self_ns();
    let per_step = |names: &[&str]| -> f64 {
        let ns: u64 = names.iter().map(|n| own.get(n).copied().unwrap_or(0)).sum();
        ns as f64 / 1e3 / steps.max(1) as f64
    };
    m.insert("trace.self_us.bench", per_step(&["step"]));
    m.insert(
        "trace.self_us.serve.session",
        per_step(&["serve.session.submit_batch"]),
    );
    m.insert(
        "trace.self_us.serve.index",
        per_step(&[
            "serve.index.apply_delta.append",
            "serve.index.apply_delta.delete",
            "serve.index.apply_delta.drop",
            "serve.index.upsert",
        ]),
    );
    m.insert(
        "trace.self_us.actor",
        per_step(&["actor.send", "actor.step"]),
    );
    // Tracing overhead: the median, over steps, of each step's traced
    // latency over its untraced one. Both runs replay the same steps, so
    // the pairs differ only by the spans and by noise, which the median
    // discards.
    let ratios: Vec<f64> = traced
        .step_ms
        .iter()
        .flatten()
        .zip(base.step_ms.iter().flatten())
        .map(|(t, b)| t / b)
        .collect();
    m.insert("trace.overhead_frac", median(&ratios) - 1.0);
    m.insert("env.steal_frac", base.steal_frac);
    m.insert("env.cpu_per_wall", base.cpu_per_wall());

    // Timed calls into the layers' public functions.
    let mut probe = std::mem::take(&mut traced.probe);
    errors.extend(time_singles(&mut probe, threads, &mut m)?);
    time_kernels(&probe, threads, &mut m);
    Ok((m, errors))
}

/// Submit each probe request as its own batch and report the median wall
/// time per request kind. Where the workload knows the answers, the
/// one-at-a-time answers must equal the batched ones bitwise.
fn time_singles(
    probe: &mut Probe,
    threads: usize,
    m: &mut BTreeMap<&'static str, f64>,
) -> Result<Vec<String>, String> {
    let index = probe.index.take().ok_or("probe has no index")?;
    let config = SessionConfig {
        threads: Threads::fixed(threads),
        seed: crate::SESSION_SEED,
        ..SessionConfig::default()
    };
    let mut session = ServeSession::new(index, config);
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut mismatches = 0usize;
    for (i, request) in probe.singles.iter().enumerate() {
        let t0 = Instant::now();
        let report = session.submit_batch(std::slice::from_ref(request));
        let us = t0.elapsed().as_secs_f64() * 1e6;
        samples.entry(request.kind()).or_default().push(us);
        if let Some(want) = &probe.singles_expected {
            mismatches += usize::from(
                !want
                    .get(i)
                    .is_some_and(|w| same_bits(&report.responses[0], w)),
            );
        }
    }
    for (kind, name) in [
        ("union_top_k", "serve.session.union_us"),
        ("joinable_top_k", "serve.session.join_us"),
        ("coverage_probe", "serve.session.coverage_us"),
        ("tailor_run", "serve.session.tailor_us"),
    ] {
        m.insert(
            name,
            median(samples.get(kind).map_or(&[][..], Vec::as_slice)),
        );
    }
    Ok(if mismatches > 0 {
        vec![format!(
            "{mismatches} one-at-a-time answers differ from the batched ones"
        )]
    } else {
        Vec::new()
    })
}

fn time_kernels(probe: &Probe, threads: usize, m: &mut BTreeMap<&'static str, f64>) {
    let pinned = Threads::fixed(threads);
    let k = rdi_serve::LakeIndexConfig::default().minhash_k;

    let mut build = Vec::new();
    while build.len() < REPS.min(probe.tables.len() * 8) {
        for (id, table) in &probe.tables {
            let t0 = Instant::now();
            let sig = TableSignature::build_with(id.as_str(), table, k, pinned);
            build.push(t0.elapsed().as_secs_f64() * 1e6);
            black_box(sig.ok());
        }
    }
    m.insert("discovery.build_us", median(&build));

    let minhash: Vec<f64> = probe
        .queries
        .iter()
        .take(REPS)
        .map(|q| {
            let t0 = Instant::now();
            black_box(MinHash::from_column(q, "key", k).ok());
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    m.insert("discovery.query_minhash_us", median(&minhash));

    // Candidate lists the size of the lake, scored like union results.
    let candidates: Vec<Candidate> = probe
        .tables
        .iter()
        .enumerate()
        .map(|(i, (id, _))| Candidate::new(id.clone(), Score::F64((i * 7919 % 1000) as f64 / 1e3)))
        .collect();
    let policy = RankByScore::new(PolicyId::UNION_RANK);
    let params = PolicyParams::new();
    let choose: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            black_box(policy.choose(black_box(&candidates), &params));
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    m.insert("policy.choose_us", median(&choose));

    let items = vec![0u64; probe.batch_len.max(2)];
    let dispatch: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            black_box(par_map(pinned.min_len(2), black_box(&items), |x| {
                black_box(*x)
            }));
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    m.insert("par.dispatch_us", median(&dispatch));

    // A twin admitter fed the workload's tenant sequence. Breaker
    // feedback (`note_outcomes`) is crate-private, so breakers here never
    // see failures and the timing excludes that step.
    let admit = match &probe.admit {
        Some((config, windows)) => {
            let mut twin = Admitter::new(config.clone(), crate::SESSION_SEED);
            windows
                .iter()
                .map(|w| {
                    let t0 = Instant::now();
                    black_box(twin.admit_batch(w));
                    t0.elapsed().as_secs_f64() * 1e6
                })
                .collect()
        }
        None => Vec::new(),
    };
    m.insert("serve.admit.busy_us", median(&admit));
}
