//! E18: graceful degradation under deterministic fault injection.
//!
//! Sweeps the per-draw fault rate from 0% to 50% over a fixed skewed
//! federation and runs the resilient executor at each rate. Expected
//! shape: coverage (collected / required) falls *smoothly* as the rate
//! rises — retries absorb moderate fault rates at the price of extra
//! attempts and cost, circuit breakers quarantine sources that fail
//! persistently, and the run always completes (degraded, never
//! panicked). At rate 0.0 the executor is bitwise identical to the
//! legacy fault-oblivious runner, which this harness asserts.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rdi_bench::{emit_metrics_snapshot, f1, f3, print_table};
use rdi_core::run_resilient;
use rdi_fault::{FaultSpec, FaultySource, ResilienceConfig};
use rdi_policy::PolicySet;
use rdi_table::{DataType, Field, GroupKey, GroupSpec, Role, Schema, Table, Value};
use rdi_tailor::{run_tailoring, DtProblem, RandomPolicy, TableSource};

const SEED: u64 = 1804;
const NEED: usize = 300;
const MAX_DRAWS: usize = 100_000;

fn source_table(frac_min: f64, n: usize) -> Table {
    let schema = Schema::new(vec![
        Field::new("g", DataType::Str).with_role(Role::Sensitive)
    ]);
    let mut t = Table::new(schema);
    for i in 0..n {
        let g = if (i as f64) < frac_min * n as f64 {
            "min"
        } else {
            "maj"
        };
        t.push_row(vec![Value::str(g)]).unwrap();
    }
    t
}

fn problem() -> DtProblem {
    DtProblem::exact_counts(
        GroupSpec::new(vec!["g"]),
        vec![
            (GroupKey(vec![Value::str("maj")]), NEED),
            (GroupKey(vec![Value::str("min")]), NEED),
        ],
    )
}

fn bare_sources(p: &DtProblem) -> Vec<TableSource> {
    [0.30, 0.10, 0.05, 0.02]
        .iter()
        .enumerate()
        .map(|(i, &f)| TableSource::new(format!("s{i}"), source_table(f, 4_000), 1.0, p).unwrap())
        .collect()
}

fn main() {
    let p = problem();
    // A breaker threshold of 12 (vs the default 5) keeps flaky-but-alive
    // sources in play at high fault rates; the default is tuned for
    // failures that signal a dead source, not a 50% injection sweep.
    let config = ResilienceConfig {
        breaker_threshold: 12,
        ..ResilienceConfig::default()
    };
    let mut rows = Vec::new();

    // Rate-0 bitwise identity: resilient executor vs legacy runner.
    let identical = {
        let mut legacy = bare_sources(&p);
        let mut pol = RandomPolicy::new(legacy.len());
        let mut rng = StdRng::seed_from_u64(SEED);
        let legacy_out = run_tailoring(&mut legacy, &p, &mut pol, &mut rng, MAX_DRAWS).unwrap();

        let mut wrapped: Vec<FaultySource<TableSource>> = bare_sources(&p)
            .into_iter()
            .map(|s| FaultySource::new(s, FaultSpec::none(), SEED))
            .collect();
        let mut pol = RandomPolicy::new(wrapped.len());
        let mut rng = StdRng::seed_from_u64(SEED);
        let res = run_resilient(
            &mut wrapped,
            &p,
            &mut pol,
            &mut rng,
            MAX_DRAWS,
            &config,
            &PolicySet::new(),
        )
        .unwrap();
        res.tailor.collected == legacy_out.collected
            && res.tailor.draws == legacy_out.draws
            && res.tailor.total_cost == legacy_out.total_cost
            && res.tailor.per_source_draws == legacy_out.per_source_draws
    };
    assert!(
        identical,
        "rate 0.0 must be bitwise identical to the legacy runner"
    );
    println!("rate 0.0 vs legacy runner: bitwise identical = {identical}");

    for pct in [0u32, 10, 20, 30, 40, 50] {
        let rate = f64::from(pct) / 100.0;
        let mut sources: Vec<FaultySource<TableSource>> = bare_sources(&p)
            .into_iter()
            .enumerate()
            .map(|(i, s)| FaultySource::new(s, FaultSpec::uniform(rate), SEED + i as u64))
            .collect();
        let mut pol = RandomPolicy::new(sources.len());
        let mut rng = StdRng::seed_from_u64(SEED);
        let res = run_resilient(
            &mut sources,
            &p,
            &mut pol,
            &mut rng,
            MAX_DRAWS,
            &config,
            &PolicySet::new(),
        )
        .expect("resilient run must not error on source faults");

        // requirement coverage: progress toward each group's `lo`,
        // surplus above it doesn't count
        let covered: usize = res.tailor.per_group.iter().map(|&c| c.min(NEED)).sum();
        let coverage = covered as f64 / (2 * NEED) as f64;
        let attempts: u64 = res.health.iter().map(|h| h.attempts).sum();
        let retries: u64 = res.health.iter().map(|h| h.retries).sum();
        let abandoned: u64 = res.health.iter().map(|h| h.abandoned_draws).sum();
        rows.push(vec![
            format!("{pct}%"),
            f3(coverage),
            res.tailor.draws.to_string(),
            attempts.to_string(),
            retries.to_string(),
            abandoned.to_string(),
            res.quarantined().len().to_string(),
            f1(res.tailor.total_cost),
            res.backoff_ticks.to_string(),
            if res.degraded { "yes" } else { "no" }.to_string(),
        ]);
    }

    print_table(
        "E18: coverage under injected faults (need 2×300 rows, 4 sources, seed fixed)",
        &[
            "fault rate",
            "coverage",
            "draws",
            "attempts",
            "retries",
            "abandoned",
            "quarantined",
            "cost",
            "backoff ticks",
            "degraded",
        ],
        &rows,
    );

    // Transient faults must be fully absorbed: coverage stays at 1.0
    // while cost scales like 1/(1-rate).
    let coverages: Vec<f64> = rows.iter().map(|r| r[1].parse().unwrap()).collect();
    let costs: Vec<f64> = rows.iter().map(|r| r[7].parse().unwrap()).collect();
    for (c, r) in coverages.iter().zip(&rows) {
        assert!(
            (*c - 1.0).abs() < 1e-9,
            "retries must absorb transient faults at {}: coverage {c}",
            r[0]
        );
    }
    assert!(
        costs.last().unwrap() > costs.first().unwrap(),
        "absorbing faults must cost attempts"
    );
    println!(
        "\ntransient faults absorbed at every rate (coverage 1.000 throughout); cost rose {} → {}",
        f1(costs[0]),
        f1(*costs.last().unwrap())
    );

    // Sweep 2: permanently dead sources under a fixed draw budget — the
    // regime where degradation, not retries, is the right answer.
    let budget = 6_000;
    let dead_cfg = ResilienceConfig::default();
    let mut dead_rows = Vec::new();
    for dead in 0..=4usize {
        let mut sources: Vec<FaultySource<TableSource>> = bare_sources(&p)
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                let spec = if i < dead {
                    FaultSpec::dead()
                } else {
                    FaultSpec::none()
                };
                FaultySource::new(s, spec, SEED + i as u64)
            })
            .collect();
        let mut pol = RandomPolicy::new(sources.len());
        let mut rng = StdRng::seed_from_u64(SEED);
        let res = run_resilient(
            &mut sources,
            &p,
            &mut pol,
            &mut rng,
            budget,
            &dead_cfg,
            &PolicySet::new(),
        )
        .expect("resilient run must not error on dead sources");
        let covered: usize = res.tailor.per_group.iter().map(|&c| c.min(NEED)).sum();
        dead_rows.push(vec![
            dead.to_string(),
            f3(covered as f64 / (2 * NEED) as f64),
            res.tailor.draws.to_string(),
            res.quarantined().len().to_string(),
            if res.degraded { "yes" } else { "no" }.to_string(),
        ]);
    }
    print_table(
        "E18b: dead sources under a 6k-draw budget (breaker threshold 5)",
        &[
            "dead sources",
            "coverage",
            "draws",
            "quarantined",
            "degraded",
        ],
        &dead_rows,
    );
    let dead_cov: Vec<f64> = dead_rows.iter().map(|r| r[1].parse().unwrap()).collect();
    assert!((dead_cov[0] - 1.0).abs() < 1e-9);
    for w in dead_cov.windows(2) {
        assert!(
            w[1] <= w[0] + 1e-9,
            "coverage must fall monotonically as sources die: {dead_cov:?}"
        );
    }
    for (d, r) in dead_rows.iter().enumerate() {
        assert_eq!(
            r[3],
            d.to_string(),
            "every dead source must be quarantined, no live one may be"
        );
    }
    println!(
        "\ncoverage falls smoothly {} as sources die — every dead source quarantined, run always completes",
        dead_cov
            .iter()
            .map(|c| f3(*c))
            .collect::<Vec<_>>()
            .join(" → ")
    );

    emit_metrics_snapshot();
}
