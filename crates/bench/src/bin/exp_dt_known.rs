//! E5 (§4.2): distribution tailoring with known source distributions.
//!
//! Expected shape (VLDB 2021): RatioColl tracks the exact DP oracle and
//! beats Random/RoundRobin, with the gap growing as the minority gets
//! rarer; the win holds for both equal and proportional requirements.
//! E5d times one run of each policy with [`rdi_bench::time_ms`].

use rand::rngs::StdRng;
use rand::SeedableRng;
use rdi_bench::{f1, f3, mean, print_table, time_ms};
use rdi_table::{DataType, Field, GroupKey, GroupSpec, Role, Schema, Table, Value};
use rdi_tailor::prelude::*;
use rdi_tailor::OracleDp;

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

fn problem(n_min: usize, n_maj: usize) -> DtProblem {
    DtProblem::exact_counts(
        GroupSpec::new(vec!["g"]),
        vec![
            (GroupKey(vec![Value::str("maj")]), n_maj),
            (GroupKey(vec![Value::str("min")]), n_min),
        ],
    )
}

/// Builds a fresh policy over a run's sources.
type MakePolicy = dyn Fn(&[TableSource]) -> Box<dyn Policy>;

fn avg_cost(mk_policy: &MakePolicy, p: &DtProblem, fracs: &[f64], runs: usize, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut costs = Vec::with_capacity(runs);
    for _ in 0..runs {
        let mut sources: Vec<TableSource> = fracs
            .iter()
            .enumerate()
            .map(|(i, &f)| {
                TableSource::new(format!("s{i}"), source_table(f, 2_000), 1.0, p).unwrap()
            })
            .collect();
        let mut policy = mk_policy(&sources);
        let out = run_tailoring(&mut sources, p, policy.as_mut(), &mut rng, 10_000_000).unwrap();
        assert!(out.satisfied);
        costs.push(out.total_cost);
    }
    mean(&costs)
}

fn main() {
    let runs = 25;
    // Sources: one balanced-ish, one minority-poor, one minority-rich at
    // rate `r` (the sweep variable).
    let mut rows = Vec::new();
    for minority_rate in [0.2, 0.1, 0.05, 0.02, 0.01] {
        let fracs = vec![minority_rate, 0.001, minority_rate * 2.0];
        let p = problem(50, 50);
        let ratio = avg_cost(
            &|s| Box::new(RatioColl::from_sources(s)),
            &p,
            &fracs,
            runs,
            10,
        );
        let oracle = avg_cost(
            &|s| Box::new(OracleDp::from_sources(s)),
            &p,
            &fracs,
            runs,
            11,
        );
        let random = avg_cost(
            &|s| Box::new(RandomPolicy::new(s.len())),
            &p,
            &fracs,
            runs,
            12,
        );
        let rrobin = avg_cost(
            &|s| Box::new(RoundRobin::new(s.len())),
            &p,
            &fracs,
            runs,
            13,
        );
        rows.push(vec![
            format!("{:.0}%", minority_rate * 100.0),
            f1(oracle),
            f1(ratio),
            f1(random),
            f1(rrobin),
            format!("{:.1}×", random / ratio),
        ]);
    }
    print_table(
        "E5a — mean cost to collect 50+50, equal requirement (25 runs)",
        &[
            "best source minority rate",
            "OracleDP",
            "RatioColl",
            "Random",
            "RoundRobin",
            "random/ratio",
        ],
        &rows,
    );

    // proportional requirement: 90 maj / 10 min
    let mut rows = Vec::new();
    for minority_rate in [0.2, 0.05, 0.01] {
        let fracs = vec![minority_rate, 0.001, minority_rate * 2.0];
        let p = problem(10, 90);
        let ratio = avg_cost(
            &|s| Box::new(RatioColl::from_sources(s)),
            &p,
            &fracs,
            runs,
            20,
        );
        let random = avg_cost(
            &|s| Box::new(RandomPolicy::new(s.len())),
            &p,
            &fracs,
            runs,
            21,
        );
        rows.push(vec![
            format!("{:.0}%", minority_rate * 100.0),
            f1(ratio),
            f1(random),
            format!("{:.1}×", random / ratio),
        ]);
    }
    print_table(
        "E5b — proportional requirement (90 maj / 10 min)",
        &[
            "best source minority rate",
            "RatioColl",
            "Random",
            "random/ratio",
        ],
        &rows,
    );

    // cost-aware: the minority-rich source is expensive
    let p = problem(50, 50);
    let mut rng = StdRng::seed_from_u64(30);
    let mut rows = Vec::new();
    for expensive in [1.0, 2.0, 5.0, 10.0] {
        let mut costs_ratio = Vec::new();
        for _ in 0..runs {
            let mut sources = vec![
                TableSource::new("cheap", source_table(0.05, 2_000), 1.0, &p).unwrap(),
                TableSource::new("rich", source_table(0.5, 2_000), expensive, &p).unwrap(),
            ];
            let mut policy = RatioColl::from_sources(&sources);
            let out = run_tailoring(&mut sources, &p, &mut policy, &mut rng, 10_000_000).unwrap();
            costs_ratio.push(out.total_cost);
        }
        let mut dp = OracleDp::new(vec![1.0, expensive], vec![vec![0.95, 0.05], vec![0.5, 0.5]]);
        rows.push(vec![
            format!("{expensive:.0}"),
            f1(mean(&costs_ratio)),
            f1(dp.expected_cost(&[50, 50])),
        ]);
    }
    print_table(
        "E5c — cost-aware selection: rich-but-expensive source",
        &[
            "rich source cost",
            "RatioColl mean cost",
            "OracleDP expected",
        ],
        &rows,
    );

    // wall time of one run per policy, on E5a's sources at a 5%
    // minority rate; the sources are built once and cloned per run
    let p = problem(50, 50);
    let sources: Vec<TableSource> = [0.05, 0.001, 0.10]
        .iter()
        .enumerate()
        .map(|(i, &f)| TableSource::new(format!("s{i}"), source_table(f, 2_000), 1.0, &p).unwrap())
        .collect();
    let policies: [(&str, &MakePolicy); 5] = [
        ("OracleDP", &|s| Box::new(OracleDp::from_sources(s))),
        ("RatioColl", &|s| Box::new(RatioColl::from_sources(s))),
        ("UcbColl (E6's learner)", &|s| {
            Box::new(UcbColl::from_sources(s, 2, 1.4))
        }),
        ("Random", &|s| Box::new(RandomPolicy::new(s.len()))),
        ("RoundRobin", &|s| Box::new(RoundRobin::new(s.len()))),
    ];
    let rows: Vec<Vec<String>> = policies
        .iter()
        .map(|(name, mk)| {
            let run = || {
                let mut sources = sources.clone();
                let mut policy = mk(&sources);
                let mut rng = StdRng::seed_from_u64(40);
                run_tailoring(&mut sources, &p, policy.as_mut(), &mut rng, 10_000_000).unwrap()
            };
            vec![name.to_string(), f1(run().total_cost), f3(time_ms(run))]
        })
        .collect();
    print_table(
        "E5d — wall time of one tailoring run (50+50, best source minority rate 5%)",
        &["policy", "cost of the run", "ms per run"],
        &rows,
    );
    rdi_bench::emit_metrics_snapshot();
}
