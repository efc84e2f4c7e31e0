//! Association measures between attributes.
//!
//! The *Unbiased and Informative Features* requirement (tutorial §2.3) asks
//! for features **highly associated with the target** and **minimally
//! associated with sensitive attributes**. This module provides the
//! measures used to score that trade-off, for numeric–numeric
//! ([`pearson`], [`spearman`]), categorical–categorical ([`cramers_v`]),
//! and mixed ([`mutual_information`] with equi-width binning) pairs, plus
//! a convenience dispatcher over table columns ([`table_association`]).

use std::collections::BTreeMap;

use rdi_table::{DataType, Table};

/// Pearson correlation coefficient of paired samples.
///
/// Returns 0 for fewer than two pairs or when either side has zero
/// variance (no linear association measurable).
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "paired samples required");
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let nf = n as f64;
    let mx = xs.iter().sum::<f64>() / nf;
    let my = ys.iter().sum::<f64>() / nf;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx).powi(2);
        syy += (y - my).powi(2);
    }
    if sxx == 0.0 || syy == 0.0 {
        return 0.0;
    }
    (sxy / (sxx.sqrt() * syy.sqrt())).clamp(-1.0, 1.0)
}

/// Average ranks, with ties receiving their midrank.
fn ranks(xs: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
    let mut out = vec![0.0; xs.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && xs[idx[j + 1]] == xs[idx[i]] {
            j += 1;
        }
        let midrank = (i + j) as f64 / 2.0 + 1.0;
        for k in i..=j {
            out[idx[k]] = midrank;
        }
        i = j + 1;
    }
    out
}

/// Spearman rank correlation (Pearson over midranks).
pub fn spearman(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "paired samples required");
    pearson(&ranks(xs), &ranks(ys))
}

/// Cramér's V between two categorical variables given as label vectors.
///
/// `V ∈ [0, 1]`; 0 for independent, 1 for a perfect association. Returns 0
/// when either variable is constant.
pub fn cramers_v<A, B>(xs: &[A], ys: &[B]) -> f64
where
    A: Ord + Clone,
    B: Ord + Clone,
{
    assert_eq!(xs.len(), ys.len(), "paired samples required");
    let n = xs.len();
    if n == 0 {
        return 0.0;
    }
    // BTreeMaps so the χ² accumulation below visits cells in sorted key
    // order — f64 addition is not associative, so iteration order is
    // part of the bitwise-determinism contract (lint rule R1).
    let mut joint: BTreeMap<(A, B), f64> = BTreeMap::new();
    let mut px: BTreeMap<A, f64> = BTreeMap::new();
    let mut py: BTreeMap<B, f64> = BTreeMap::new();
    for (x, y) in xs.iter().zip(ys) {
        *joint.entry((x.clone(), y.clone())).or_insert(0.0) += 1.0;
        *px.entry(x.clone()).or_insert(0.0) += 1.0;
        *py.entry(y.clone()).or_insert(0.0) += 1.0;
    }
    let r = px.len();
    let c = py.len();
    if r < 2 || c < 2 {
        return 0.0;
    }
    let nf = n as f64;
    let mut chi2 = 0.0;
    for (x, nx) in &px {
        for (y, ny) in &py {
            let expected = nx * ny / nf;
            let observed = joint.get(&(x.clone(), y.clone())).copied().unwrap_or(0.0);
            chi2 += (observed - expected).powi(2) / expected;
        }
    }
    let denom = nf * ((r - 1).min(c - 1)) as f64;
    (chi2 / denom).sqrt().clamp(0.0, 1.0)
}

/// Mutual information (nats) between two variables after discretizing each
/// numeric side into `bins` equi-width bins. Categorical sides use their
/// natural categories.
///
/// `MI ≥ 0`; 0 means (empirically) independent.
pub fn mutual_information(xs: &[f64], ys: &[f64], bins: usize) -> f64 {
    assert_eq!(xs.len(), ys.len(), "paired samples required");
    assert!(bins >= 1);
    let bx = discretize(xs, bins);
    let by = discretize(ys, bins);
    mutual_information_labels(&bx, &by)
}

/// Mutual information between two label vectors.
pub fn mutual_information_labels<A, B>(xs: &[A], ys: &[B]) -> f64
where
    A: Ord + Clone,
    B: Ord + Clone,
{
    assert_eq!(xs.len(), ys.len());
    let n = xs.len();
    if n == 0 {
        return 0.0;
    }
    let nf = n as f64;
    // Sorted iteration keeps the MI sum bitwise-deterministic (R1).
    let mut joint: BTreeMap<(A, B), f64> = BTreeMap::new();
    let mut px: BTreeMap<A, f64> = BTreeMap::new();
    let mut py: BTreeMap<B, f64> = BTreeMap::new();
    for (x, y) in xs.iter().zip(ys) {
        *joint.entry((x.clone(), y.clone())).or_insert(0.0) += 1.0;
        *px.entry(x.clone()).or_insert(0.0) += 1.0;
        *py.entry(y.clone()).or_insert(0.0) += 1.0;
    }
    let mut mi = 0.0;
    for ((x, y), nxy) in &joint {
        let pxy = nxy / nf;
        let p_x = px[x] / nf;
        let p_y = py[y] / nf;
        mi += pxy * (pxy / (p_x * p_y)).ln();
    }
    mi.max(0.0)
}

/// Equi-width binning of a numeric vector into `bins` integer labels.
pub fn discretize(xs: &[f64], bins: usize) -> Vec<usize> {
    let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if !lo.is_finite() || !hi.is_finite() || lo == hi {
        return vec![0; xs.len()];
    }
    let width = (hi - lo) / bins as f64;
    xs.iter()
        .map(|x| (((x - lo) / width) as usize).min(bins - 1))
        .collect()
}

/// Association between two table columns, choosing a measure by type:
/// numeric–numeric → |Pearson|; categorical–categorical → Cramér's V;
/// mixed → normalized mutual information proxy (both sides discretized to
/// ≤ 10 bins, MI scaled to `[0,1]` via `MI / min(H(X), H(Y))`).
///
/// Always in `[0, 1]` so scores are comparable across type combinations.
/// Rows where either cell is null are skipped.
pub fn table_association(table: &Table, a: &str, b: &str) -> rdi_table::Result<f64> {
    let fa = table.schema().field(a)?;
    let fb = table.schema().field(b)?;
    let ca = table.column(a)?;
    let cb = table.column(b)?;
    let numeric = |dt: DataType| matches!(dt, DataType::Int | DataType::Float | DataType::Bool);

    if numeric(fa.dtype) && numeric(fb.dtype) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..table.num_rows() {
            if let (Some(x), Some(y)) = (ca.value(i).as_f64(), cb.value(i).as_f64()) {
                xs.push(x);
                ys.push(y);
            }
        }
        return Ok(pearson(&xs, &ys).abs());
    }

    // At least one side categorical: work with label vectors.
    let labels = |col: &rdi_table::Column, dt: DataType| -> Vec<Option<String>> {
        (0..table.num_rows())
            .map(|i| {
                let v = col.value(i);
                if v.is_null() {
                    None
                } else if numeric(dt) {
                    // discretized later via numeric path
                    Some(v.to_string())
                } else {
                    Some(v.to_string())
                }
            })
            .collect()
    };

    if !numeric(fa.dtype) && !numeric(fb.dtype) {
        let la = labels(ca, fa.dtype);
        let lb = labels(cb, fb.dtype);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for (x, y) in la.into_iter().zip(lb) {
            if let (Some(x), Some(y)) = (x, y) {
                xs.push(x);
                ys.push(y);
            }
        }
        return Ok(cramers_v(&xs, &ys));
    }

    // Mixed: discretize the numeric side, keep categories on the other.
    let (num_col, cat_col) = if numeric(fa.dtype) {
        (ca, cb)
    } else {
        (cb, ca)
    };
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for i in 0..table.num_rows() {
        let x = num_col.value(i).as_f64();
        let y = cat_col.value(i);
        if let (Some(x), false) = (x, y.is_null()) {
            xs.push(x);
            ys.push(y.to_string());
        }
    }
    if xs.is_empty() {
        return Ok(0.0);
    }
    let bx = discretize(&xs, 10);
    let mi = mutual_information_labels(&bx, &ys);
    let hx = entropy(&bx);
    let hy = entropy(&ys);
    let h = hx.min(hy);
    Ok(if h > 0.0 {
        (mi / h).clamp(0.0, 1.0)
    } else {
        0.0
    })
}

/// Shannon entropy (nats) of a label vector: [`counts_entropy`] of its
/// label counts in label order.
pub fn entropy<A: Ord + Clone>(xs: &[A]) -> f64 {
    let mut counts: BTreeMap<A, f64> = BTreeMap::new();
    for x in xs {
        *counts.entry(x.clone()).or_insert(0.0) += 1.0;
    }
    counts_entropy(&counts.into_values().collect::<Vec<_>>())
}

/// Shannon entropy (nats) of the distribution with these per-label
/// counts, summed in the order given (0 when there are none).
pub fn counts_entropy(counts: &[f64]) -> f64 {
    let n: f64 = counts.iter().sum();
    if n == 0.0 {
        return 0.0;
    }
    -counts
        .iter()
        .map(|c| {
            let p = c / n;
            p * p.ln()
        })
        .sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rdi_table::{Field, Schema, Value};

    #[test]
    fn pearson_perfect_linear() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x - 7.0).collect();
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = xs.iter().map(|x| -x).collect();
        assert!((pearson(&xs, &neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_constant_is_zero() {
        let xs = vec![1.0, 1.0, 1.0];
        let ys = vec![1.0, 2.0, 3.0];
        assert_eq!(pearson(&xs, &ys), 0.0);
    }

    #[test]
    fn spearman_captures_monotone_nonlinear() {
        let xs: Vec<f64> = (1..40).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x.exp().min(1e300)).collect();
        assert!((spearman(&xs, &ys) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ranks_handle_ties() {
        let r = ranks(&[10.0, 20.0, 20.0, 30.0]);
        assert_eq!(r, vec![1.0, 2.5, 2.5, 4.0]);
    }

    #[test]
    fn cramers_v_extremes() {
        // perfect association
        let xs = vec!["a", "a", "b", "b"];
        let ys = vec!["p", "p", "q", "q"];
        assert!((cramers_v(&xs, &ys) - 1.0).abs() < 1e-9);
        // independence
        let xs = vec!["a", "a", "b", "b"];
        let ys = vec!["p", "q", "p", "q"];
        assert!(cramers_v(&xs, &ys).abs() < 1e-9);
        // constant variable
        let xs = vec!["a", "a"];
        let ys = vec!["p", "q"];
        assert_eq!(cramers_v(&xs, &ys), 0.0);
    }

    #[test]
    fn mi_independent_vs_dependent() {
        let xs: Vec<f64> = (0..200).map(|i| (i % 2) as f64).collect();
        let same = xs.clone();
        let indep: Vec<f64> = (0..200).map(|i| ((i / 2) % 2) as f64).collect();
        assert!(mutual_information(&xs, &same, 2) > 0.6);
        assert!(mutual_information(&xs, &indep, 2) < 1e-9);
    }

    #[test]
    fn discretize_bins_cover_range() {
        let b = discretize(&[0.0, 5.0, 10.0], 2);
        assert_eq!(b, vec![0, 1, 1]);
        assert_eq!(discretize(&[3.0, 3.0], 4), vec![0, 0]);
    }

    #[test]
    fn table_association_dispatch() {
        let schema = Schema::new(vec![
            Field::new("x", DataType::Float),
            Field::new("y", DataType::Float),
            Field::new("g", DataType::Str),
        ]);
        let mut t = Table::new(schema);
        for i in 0..100 {
            let x = i as f64;
            let g = if i % 2 == 0 { "even" } else { "odd" };
            t.push_row(vec![Value::Float(x), Value::Float(2.0 * x), Value::str(g)])
                .unwrap();
        }
        let nn = table_association(&t, "x", "y").unwrap();
        assert!((nn - 1.0).abs() < 1e-9);
        // x is uncorrelated with parity labels at 10 equi-width bins
        let mixed = table_association(&t, "x", "g").unwrap();
        assert!(mixed < 0.1, "mixed={mixed}");
    }

    #[test]
    fn entropy_uniform_is_log_k() {
        let xs = vec![0, 1, 2, 3];
        assert!((entropy(&xs) - (4.0f64).ln()).abs() < 1e-12);
        assert_eq!(entropy(&[1, 1, 1]), 0.0);
    }

    proptest! {
        #[test]
        fn pearson_bounded(xs in prop::collection::vec(-100.0f64..100.0, 2..50),
                           ys in prop::collection::vec(-100.0f64..100.0, 2..50)) {
            let k = xs.len().min(ys.len());
            let r = pearson(&xs[..k], &ys[..k]);
            prop_assert!((-1.0..=1.0).contains(&r));
        }

        #[test]
        fn mi_nonnegative_and_symmetric(pairs in prop::collection::vec((0u8..4, 0u8..4), 1..100)) {
            let xs: Vec<u8> = pairs.iter().map(|p| p.0).collect();
            let ys: Vec<u8> = pairs.iter().map(|p| p.1).collect();
            let a = mutual_information_labels(&xs, &ys);
            let b = mutual_information_labels(&ys, &xs);
            prop_assert!(a >= 0.0);
            prop_assert!((a - b).abs() < 1e-9);
            // MI ≤ min entropy
            prop_assert!(a <= entropy(&xs).min(entropy(&ys)) + 1e-9);
        }

        /// Sorted (BTreeMap) accumulation makes every association measure
        /// *bitwise* invariant under row permutation: the f64 sums visit
        /// identical cells in identical order regardless of how the input
        /// rows were ordered. Guards the R1 (hash-collection) conversion.
        #[test]
        fn association_bitwise_invariant_under_row_order(
            pairs in prop::collection::vec((0u8..4, 0u8..4), 2..100),
            rot in 0usize..100,
        ) {
            let xs: Vec<u8> = pairs.iter().map(|p| p.0).collect();
            let ys: Vec<u8> = pairs.iter().map(|p| p.1).collect();
            let k = rot % pairs.len();
            let mut xr = xs.clone();
            let mut yr = ys.clone();
            xr.rotate_left(k);
            yr.rotate_left(k);
            prop_assert_eq!(cramers_v(&xs, &ys).to_bits(), cramers_v(&xr, &yr).to_bits());
            prop_assert_eq!(
                mutual_information_labels(&xs, &ys).to_bits(),
                mutual_information_labels(&xr, &yr).to_bits()
            );
            prop_assert_eq!(entropy(&xs).to_bits(), entropy(&xr).to_bits());
            // Reversal, a parity-odd permutation rotation cannot express.
            let xv: Vec<u8> = xs.iter().rev().copied().collect();
            let yv: Vec<u8> = ys.iter().rev().copied().collect();
            prop_assert_eq!(cramers_v(&xs, &ys).to_bits(), cramers_v(&xv, &yv).to_bits());
        }

        #[test]
        fn cramers_v_bounded(pairs in prop::collection::vec((0u8..3, 0u8..3), 1..100)) {
            let xs: Vec<u8> = pairs.iter().map(|p| p.0).collect();
            let ys: Vec<u8> = pairs.iter().map(|p| p.1).collect();
            let v = cramers_v(&xs, &ys);
            prop_assert!((0.0..=1.0).contains(&v));
        }
    }
}
