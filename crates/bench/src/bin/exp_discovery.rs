//! E8 (§3.1): discovery sketches vs exact search.
//!
//! (a) LSH Ensemble containment search: precision/recall vs the exact
//!     overlap index at several containment thresholds (Zhu et al. shape:
//!     high recall, precision recovered by post-filtering), timed
//!     against a flat MinHash LSH tuned to τ and the exact overlap scan;
//! (b) correlation sketches: join-correlation estimation error shrinks
//!     with sketch size (Santos et al. shape);
//! (c) navigation over a medoid organization of the lake.
//!
//! Query, sketch-build, organize and navigate times are
//! [`rdi_bench::time_ms`] readings. The organize time includes cloning
//! the 40 signatures it consumes.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rdi_bench::{f3, mean, print_table, time_ms};
use rdi_datagen::{LakeConfig, SyntheticLake};
use rdi_discovery::{
    CorrelationSketch, LshEnsemble, MinHash, MinHashLsh, Navigator, OverlapIndex, TableSignature,
};

/// A millisecond reading as whole microseconds.
fn us(ms: f64) -> String {
    format!("{:.0}µs", ms * 1e3)
}

fn main() {
    let mut rng = StdRng::seed_from_u64(4);
    let lake = SyntheticLake::generate(
        &LakeConfig {
            num_candidates: 120,
            query_keys: 2_000,
            candidate_rows: 4_000,
            joinable_fraction: 0.4,
        },
        &mut rng,
    );

    // (a) containment search P/R vs threshold
    let k = 128;
    // the exact inverted index doubles as the source of distinct sizes
    let mut exact = OverlapIndex::new();
    let sigs: Vec<(MinHash, usize)> = lake
        .candidates
        .iter()
        .map(|c| {
            let id = exact.insert(c.name.clone(), &c.table, "key").unwrap();
            (
                MinHash::from_column(&c.table, "key", k).unwrap(),
                exact.size(id),
            )
        })
        .collect();
    let qsig = MinHash::from_column(&lake.query, "key", k).unwrap();
    let qsize = lake.query.num_rows();

    let mut rows = Vec::new();
    for threshold in [0.3, 0.5, 0.7, 0.9] {
        let mut ens = LshEnsemble::new(k, threshold, 8, 1_000_000);
        // the single-band-scheme baseline the ensemble refines
        let mut flat = MinHashLsh::tuned(k, threshold);
        for (i, (s, size)) in sigs.iter().enumerate() {
            ens.insert(i, s.clone(), *size);
            flat.insert(s.clone());
        }
        ens.build(qsize);
        let hits = ens.query(&qsig, qsize);
        let truth: Vec<usize> = lake
            .candidates
            .iter()
            .enumerate()
            .filter(|(_, c)| c.containment >= threshold)
            .map(|(i, _)| i)
            .collect();
        let tp = hits.iter().filter(|h| truth.contains(h)).count() as f64;
        rows.push(vec![
            format!("{threshold:.1}"),
            truth.len().to_string(),
            hits.len().to_string(),
            f3(tp / truth.len().max(1) as f64),
            f3(tp / hits.len().max(1) as f64),
            us(time_ms(|| ens.query(&qsig, qsize))),
            us(time_ms(|| flat.query(&qsig))),
            us(time_ms(|| exact.overlaps(&lake.query, "key").unwrap())),
        ]);
    }
    print_table(
        "E8a — LSH-Ensemble containment search (120 candidates)",
        &[
            "containment τ",
            "true ≥τ",
            "returned",
            "recall",
            "precision",
            "ensemble query",
            "flat LSH query",
            "exact overlap query",
        ],
        &rows,
    );

    // (b) correlation-sketch error vs sketch size
    let joinable: Vec<_> = lake
        .candidates
        .iter()
        .filter(|c| c.containment >= 0.4)
        .collect();
    let mut rows = Vec::new();
    for k in [32, 64, 128, 256, 512] {
        let qs = CorrelationSketch::build(&lake.query, "key", "target", k).unwrap();
        let mut errs = Vec::new();
        for c in &joinable {
            let cs = CorrelationSketch::build(&c.table, "key", "feat", k).unwrap();
            if let Some(est) = cs.correlation(&qs) {
                errs.push((est - c.correlation).abs());
            }
        }
        rows.push(vec![
            k.to_string(),
            errs.len().to_string(),
            f3(mean(&errs)),
            f3(errs.iter().cloned().fold(0.0, f64::max)),
            us(time_ms(|| {
                CorrelationSketch::build(&lake.query, "key", "target", k).unwrap()
            })),
        ]);
    }
    print_table(
        "E8b — correlation-sketch |error| vs sketch size (planted join-correlations)",
        &[
            "sketch k",
            "estimable candidates",
            "mean abs error",
            "max abs error",
            "query sketch build",
        ],
        &rows,
    );

    // (c) navigation: medoid-guided descent touches a fraction of the
    // lake yet reaches a strongly-joinable table
    let n_org = 40;
    let sigs: Vec<TableSignature> = lake
        .candidates
        .iter()
        .take(n_org)
        .map(|c| TableSignature::build(c.name.clone(), &c.table, 64).unwrap())
        .collect();
    let build_ms = time_ms(|| Navigator::build(sigs.clone()));
    let nav = Navigator::build(sigs);
    let qsig = TableSignature::build("q", &lake.query, 64).unwrap();
    let (reached, comparisons) = nav.navigate(&qsig);
    let reached_name = nav.signature(reached).name.clone();
    let reached_containment = lake
        .candidates
        .iter()
        .find(|c| c.name == reached_name)
        .map(|c| c.containment)
        .unwrap_or(0.0);
    let best_containment = lake
        .candidates
        .iter()
        .take(n_org)
        .map(|c| c.containment)
        .fold(0.0f64, f64::max);
    print_table(
        "E8c — navigation over a 40-table organization",
        &[
            "organize time",
            "navigate time",
            "medoids compared",
            "lake size",
            "reached containment",
            "best in lake",
        ],
        &[vec![
            format!("{build_ms:.2}ms"),
            us(time_ms(|| nav.navigate(&qsig))),
            comparisons.to_string(),
            n_org.to_string(),
            f3(reached_containment),
            f3(best_containment),
        ]],
    );
    rdi_bench::emit_metrics_snapshot();
}
