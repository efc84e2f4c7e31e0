//! E10 (§5): fairness-aware range queries.
//!
//! Expected shape (Shetiya et al., ICDE 2022): tighter disparity bounds
//! cost similarity, the greedy heuristic closely tracks the exact
//! optimum at a fraction of the runtime, and exact runtime grows
//! quadratically with n while greedy stays near-linear. Runtimes are
//! [`rdi_bench::time_ms`] readings.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdi_bench::{f3, print_table, time_ms};
use rdi_fairquery::{RangeQuery2d, RangeQueryEngine};

/// Women cluster young, men spread wide — the imbalanced-query workload.
fn engine(n: usize, rng: &mut StdRng) -> RangeQueryEngine {
    let pts: Vec<(f64, bool)> = (0..n)
        .map(|_| {
            if rng.gen::<f64>() < 0.5 {
                (22.0 + rng.gen::<f64>() * 20.0, true)
            } else {
                (30.0 + rng.gen::<f64>() * 30.0, false)
            }
        })
        .collect();
    RangeQueryEngine::from_points(pts)
}

fn main() {
    let mut rng = StdRng::seed_from_u64(6);

    // (a) similarity vs disparity bound
    let e = engine(2_000, &mut rng);
    let (lo, hi) = (35.0, 55.0);
    println!("original disparity of 35 ≤ x ≤ 55: {}", e.disparity(lo, hi));
    let mut rows = Vec::new();
    for eps in [400, 200, 100, 50, 20, 5, 0] {
        let exact = e.fair_range_exact(lo, hi, eps);
        let greedy = e.fair_range_greedy(lo, hi, eps);
        rows.push(vec![
            eps.to_string(),
            f3(exact.similarity),
            f3(greedy.similarity),
            exact.disparity.to_string(),
            exact.selected.to_string(),
        ]);
    }
    print_table(
        "E10a — similarity of fairest range vs disparity bound ε (n=2000)",
        &[
            "ε",
            "exact similarity",
            "greedy similarity",
            "achieved disparity",
            "rows selected",
        ],
        &rows,
    );

    // (b) runtime scaling
    let mut rows = Vec::new();
    for n in [250, 500, 1_000, 2_000, 4_000] {
        let e = engine(n, &mut rng);
        let ex = e.fair_range_exact(lo, hi, 10);
        let gr = e.fair_range_greedy(lo, hi, 10);
        let exact_ms = time_ms(|| e.fair_range_exact(lo, hi, 10));
        let greedy_us = time_ms(|| e.fair_range_greedy(lo, hi, 10)) * 1e3;
        rows.push(vec![
            n.to_string(),
            format!("{exact_ms:.1}ms"),
            format!("{greedy_us:.0}µs"),
            f3(gr.similarity / ex.similarity.max(1e-9)),
        ]);
    }
    print_table(
        "E10b — runtime: exact O(n²) vs greedy (ε=10)",
        &["n", "exact", "greedy", "greedy/exact similarity"],
        &rows,
    );

    // (c) the 2-D generalization: age × experience, quantized endpoint grid
    let pts: Vec<(f64, f64, bool)> = (0..4_000)
        .map(|_| {
            if rng.gen::<f64>() < 0.5 {
                (22.0 + rng.gen::<f64>() * 20.0, rng.gen::<f64>() * 8.0, true)
            } else {
                (
                    30.0 + rng.gen::<f64>() * 30.0,
                    rng.gen::<f64>() * 25.0,
                    false,
                )
            }
        })
        .collect();
    let mut rows = Vec::new();
    for grid in [6usize, 10, 14] {
        let e2 = RangeQuery2d::from_points(&pts, grid);
        let orig = e2.disparity(35.0, 55.0, 5.0, 20.0);
        let fb = e2.fair_box(35.0, 55.0, 5.0, 20.0, 20);
        let ms = time_ms(|| e2.fair_box(35.0, 55.0, 5.0, 20.0, 20));
        rows.push(vec![
            grid.to_string(),
            orig.to_string(),
            fb.disparity.to_string(),
            f3(fb.similarity),
            format!("{:.0}µs", ms * 1e3),
        ]);
    }
    print_table(
        "E10c — 2-D fair boxes (n=4000, ε=20): finer grids buy similarity with O(g⁴) time",
        &[
            "grid g",
            "original disparity",
            "achieved",
            "similarity",
            "search time",
        ],
        &rows,
    );
    rdi_bench::emit_metrics_snapshot();
}
