//! E2 (§2.2): MUP discovery — counts and pruning vs dimensionality and
//! threshold (shape of Asudeh et al., ICDE 2019).
//!
//! Expected shape: MUP count grows with dimension and threshold;
//! Pattern-Breaker evaluates far fewer lattice nodes than the naive
//! full-lattice scan, with the advantage growing with dimension.
//! The PB and naive ms columns are [`rdi_bench::time_ms`] readings.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdi_bench::{f1, print_table, time_ms};
use rdi_coverage::CoverageAnalyzer;
use rdi_table::{DataType, Field, Schema, Table, Value};

/// d binary/ternary attributes with Zipf-ish skew so some combinations
/// are rare.
fn skewed_table(n: usize, d: usize, rng: &mut StdRng) -> Table {
    let fields = (0..d)
        .map(|i| Field::new(format!("a{i}"), DataType::Str))
        .collect();
    let mut t = Table::new(Schema::new(fields));
    for _ in 0..n {
        let row: Vec<Value> = (0..d)
            .map(|_| {
                let u: f64 = rng.gen();
                // 3 categories, heavily skewed
                let c = if u < 0.70 {
                    "0"
                } else if u < 0.95 {
                    "1"
                } else {
                    "2"
                };
                Value::str(c)
            })
            .collect();
        t.push_row(row).unwrap();
    }
    t
}

fn main() {
    let mut rng = StdRng::seed_from_u64(2);
    let n = 5_000;

    // (a) vs dimension at fixed τ
    let mut rows = Vec::new();
    for d in 2..=7 {
        let t = skewed_table(n, d, &mut rng);
        let attrs: Vec<String> = (0..d).map(|i| format!("a{i}")).collect();
        let attrs_ref: Vec<&str> = attrs.iter().map(String::as_str).collect();
        let an = CoverageAnalyzer::new(&t, &attrs_ref, 25).unwrap();
        let (mups, pb) = an.mups_pattern_breaker();
        let (dd_mups, dd) = an.mups_deep_diver();
        let (naive_mups, nv) = an.mups_naive();
        assert_eq!(mups, naive_mups, "algorithms must agree");
        assert_eq!(mups, dd_mups, "deep diver must agree");
        rows.push(vec![
            d.to_string(),
            mups.len().to_string(),
            pb.nodes_evaluated.to_string(),
            nv.nodes_evaluated.to_string(),
            f1(time_ms(|| an.mups_pattern_breaker())),
            f1(time_ms(|| an.mups_naive())),
            format!("{}/{}", pb.peak_frontier, dd.peak_frontier),
        ]);
    }
    print_table(
        "E2a — MUPs and work vs dimension (n=5000, τ=25)",
        &[
            "d",
            "MUPs",
            "PB nodes",
            "naive nodes",
            "PB ms",
            "naive ms",
            "frontier BFS/DFS",
        ],
        &rows,
    );

    // (b) vs threshold at fixed dimension
    let t = skewed_table(n, 5, &mut rng);
    let attrs: Vec<&str> = vec!["a0", "a1", "a2", "a3", "a4"];
    let mut rows = Vec::new();
    for tau in [1, 5, 25, 100, 400] {
        let an = CoverageAnalyzer::new(&t, &attrs, tau).unwrap();
        let (mups, pb) = an.mups_pattern_breaker();
        let frac = an.uncovered_assignment_fraction(&mups);
        rows.push(vec![
            tau.to_string(),
            mups.len().to_string(),
            pb.nodes_evaluated.to_string(),
            format!("{:.1}%", frac * 100.0),
        ]);
    }
    print_table(
        "E2b — MUPs vs threshold τ (d=5)",
        &["τ", "MUPs", "PB nodes", "uncovered value-combinations"],
        &rows,
    );
    rdi_bench::emit_metrics_snapshot();
}
