//! E7 (§3.4): sampling over joins.
//!
//! (a) sample-then-join is biased (per-key output distribution diverges
//!     from the join's), accept-reject is uniform;
//! (b) throughput: accept-reject wastes draws as skew grows, the
//!     weighted (Chaudhuri) variant doesn't; wander join trades
//!     per-sample cost for uniformity; the join-index build is the
//!     samplers' setup cost, the full hash join the cost of not
//!     sampling at all;
//! (c) AQP error vs sample size: group-by AVG error shrinks as 1/√n and
//!     is always worst for the smallest group.
//!
//! Every ms column is an [`rdi_bench::time_ms`] reading.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdi_bench::{f1, f3, print_table, time_ms};
use rdi_joinsample::olken::materialize_samples;
use rdi_joinsample::{
    chaudhuri_sample, olken_sample, sample_then_join, ExactChainSampler, JoinIndex, WanderJoin,
};
use rdi_table::{hash_join, DataType, Field, GroupSpec, Role, Schema, Table, Value};

/// left: one row per key 0..n; right: key k has multiplicity ~ Zipf rank.
fn zipf_join(n_keys: usize, skew: f64, rng: &mut StdRng) -> (Table, Table) {
    let lschema = Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("grp", DataType::Str).with_role(Role::Sensitive),
    ]);
    let rschema = Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Float),
    ]);
    let mut left = Table::new(lschema);
    let mut right = Table::new(rschema);
    for k in 0..n_keys {
        let grp = if k % 10 == 0 { "min" } else { "maj" };
        left.push_row(vec![Value::Int(k as i64), Value::str(grp)])
            .unwrap();
        let mult = (10.0 / (1.0 + (k % 50) as f64).powf(skew)).ceil() as usize;
        // value varies strongly *across* keys (and mildly within), so
        // key-clumped samples mis-estimate group averages
        let base = if grp == "min" { 50.0 } else { 10.0 };
        for _ in 0..mult.max(1) {
            right
                .push_row(vec![
                    Value::Int(k as i64),
                    Value::Float(base + (k % 50) as f64 + rng.gen::<f64>()),
                ])
                .unwrap();
        }
    }
    (left, right)
}

/// Std-dev of a slice.
fn std_dev(xs: &[f64]) -> f64 {
    let m = rdi_bench::mean(xs);
    (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len().max(1) as f64).sqrt()
}

fn minority_avg(t: &Table) -> Option<f64> {
    let spec = GroupSpec::new(vec!["grp"]);
    spec.stats(t, "v")
        .ok()?
        .iter()
        .find(|(k, _)| k.0[0] == Value::str("min"))
        .filter(|(_, s)| s.non_null > 0)
        .map(|(_, s)| s.mean)
}

fn main() {
    let mut rng = StdRng::seed_from_u64(3);
    let (left, right) = zipf_join(500, 1.2, &mut rng);
    let truth = hash_join(&left, &right, "k", "k").unwrap();
    println!(
        "join: {} × {} → {} tuples",
        left.num_rows(),
        right.num_rows(),
        truth.num_rows()
    );

    // (a) estimator quality at matched sample size: sample-then-join
    // yields *correlated* tuples (whole key-clusters survive or vanish
    // together), so group-AVG estimates from it have far higher variance
    // than from a same-size uniform independent sample — the seminal
    // observation of [18]. 300 trials each, ~n expected tuples.
    let idx = JoinIndex::build(&right, "k").unwrap();
    let n_target = 60usize;
    let rate = (n_target as f64 / truth.num_rows() as f64).sqrt();
    let true_min_avg = minority_avg(&truth).unwrap();
    let trials = 300;
    let mut naive_estimates = Vec::new();
    let mut naive_sizes = Vec::new();
    let mut uniform_estimates = Vec::new();
    for _ in 0..trials {
        let s = sample_then_join(&left, &right, "k", "k", rate, &mut rng).unwrap();
        naive_sizes.push(s.num_rows() as f64);
        if let Some(a) = minority_avg(&s) {
            naive_estimates.push(a - true_min_avg);
        }
        let samples = chaudhuri_sample(&left, "k", &idx, n_target, &mut rng).unwrap();
        let u = materialize_samples(&left, &right, "k", &samples).unwrap();
        if let Some(a) = minority_avg(&u) {
            uniform_estimates.push(a - true_min_avg);
        }
    }
    print_table(
        "E7a — minority-group AVG estimator at ~60 sampled join tuples (300 trials)",
        &[
            "method",
            "trials w/ minority rows",
            "estimate std-dev",
            "mean sample size",
        ],
        &[
            vec![
                "sample-then-join".into(),
                naive_estimates.len().to_string(),
                f3(std_dev(&naive_estimates)),
                f1(rdi_bench::mean(&naive_sizes)),
            ],
            vec![
                "uniform accept-reject".into(),
                uniform_estimates.len().to_string(),
                f3(std_dev(&uniform_estimates)),
                f1(n_target as f64),
            ],
        ],
    );

    // (b) throughput vs skew: acceptance rate of olken, walks/sample of wander
    let mut rows = Vec::new();
    for skew in [0.0, 0.6, 1.2, 2.0] {
        let (l, r) = zipf_join(500, skew, &mut rng);
        let idx = JoinIndex::build(&r, "k").unwrap();
        // each timed repetition replays the draw from a copy of the
        // RNG, so the stream the later tables see is unchanged
        let at = rng.clone();
        let (_, attempts) = olken_sample(&l, "k", &idx, 5_000, &mut rng).unwrap();
        let olken_ms = time_ms(|| olken_sample(&l, "k", &idx, 5_000, &mut at.clone()));
        let at = rng.clone();
        chaudhuri_sample(&l, "k", &idx, 5_000, &mut rng).unwrap();
        let chaud_ms = time_ms(|| chaudhuri_sample(&l, "k", &idx, 5_000, &mut at.clone()));
        rows.push(vec![
            format!("{skew:.1}"),
            f3(5_000.0 / attempts as f64),
            f1(olken_ms),
            f1(chaud_ms),
            f1(time_ms(|| JoinIndex::build(&r, "k"))),
            f1(time_ms(|| hash_join(&l, &r, "k", "k"))),
        ]);
    }
    print_table(
        "E7b — throughput vs key skew (5000 samples)",
        &[
            "zipf skew",
            "olken acceptance rate",
            "olken ms",
            "chaudhuri ms",
            "index build ms",
            "full hash join ms",
        ],
        &rows,
    );

    // (c) AQP group-AVG error vs sample size + wander join COUNT error
    let spec = GroupSpec::new(vec!["grp"]);
    let true_stats = spec.stats(&truth, "v").unwrap();
    let true_avg = |g: &str| {
        true_stats
            .iter()
            .find(|(k, _)| k.0[0] == Value::str(g))
            .map(|(_, s)| s.mean)
            .unwrap()
    };
    let wj = WanderJoin::new(vec![&left, &right], &[("k", "k")]).unwrap();
    let mut rows = Vec::new();
    for n in [100, 500, 2_000, 10_000] {
        let samples = chaudhuri_sample(&left, "k", &idx, n, &mut rng).unwrap();
        let st = materialize_samples(&left, &right, "k", &samples).unwrap();
        let est = spec.stats(&st, "v").unwrap();
        let err = |g: &str| {
            est.iter()
                .find(|(k, _)| k.0[0] == Value::str(g))
                .map(|(_, s)| ((s.mean - true_avg(g)) / true_avg(g)).abs())
                .unwrap_or(1.0)
        };
        let count_est = wj.count_estimate(n, &mut rng);
        rows.push(vec![
            n.to_string(),
            f3(err("maj")),
            f3(err("min")),
            f3(count_est.relative_error(truth.num_rows() as f64)),
        ]);
    }
    print_table(
        "E7c — relative AQP error vs sample size",
        &[
            "samples",
            "AVG err (majority)",
            "AVG err (minority)",
            "wander COUNT err",
        ],
        &rows,
    );

    // (d) three-table chain: wander join (HT-reweighted, rejection-free
    // but non-uniform) vs the exact-weight sampler (uniform, one DP
    // sweep) — the Zhao et al. framework's two instantiations.
    let mid = {
        let schema = Schema::new(vec![Field::new("k", DataType::Int)]);
        let mut t = Table::new(schema);
        for k in 0..500i64 {
            for _ in 0..(k % 3) + 1 {
                t.push_row(vec![Value::Int(k)]).unwrap();
            }
        }
        t
    };
    let left_k = left.select(&["k"]).unwrap();
    let wj3 = WanderJoin::new(vec![&left_k, &mid, &right], &[("k", "k"), ("k", "k")]).unwrap();
    let exact =
        ExactChainSampler::new(vec![&left_k, &mid, &right], &[("k", "k"), ("k", "k")]).unwrap();
    let truth3 = exact.join_size() as f64;
    let mut rows = Vec::new();
    for n in [500, 2_000, 10_000] {
        let at = rng.clone();
        let w_est = wj3.count_estimate(n, &mut rng);
        let w_ms = time_ms(|| wj3.count_estimate(n, &mut at.clone()));
        let at = rng.clone();
        let samples = exact.sample_n(n, &mut rng);
        let e_ms = time_ms(|| exact.sample_n(n, &mut at.clone()));
        rows.push(vec![
            n.to_string(),
            f3(w_est.relative_error(truth3)),
            f1(w_ms),
            samples.len().to_string(),
            f1(e_ms),
        ]);
    }
    print_table(
        "E7d — 3-table chain: wander join vs exact-weight uniform sampler (true size known exactly by the DP)",
        &["walks/samples", "wander COUNT rel-err", "wander ms", "exact uniform samples", "exact ms"],
        &rows,
    );
    rdi_bench::emit_metrics_snapshot();
}
