//! Fairness-aware range queries over **two** numeric attributes.
//!
//! The 1-D engine's trick (sorted order + prefix counts) generalizes: we
//! quantize each axis to at most `g` candidate endpoints (quantiles of the
//! data), build 2-D prefix-sum grids per group, and scan the O(g⁴)
//! candidate boxes with O(1) disparity/overlap evaluation each. With the
//! default g=12 that is ~10⁴ boxes — interactive, while staying exact
//! *with respect to the quantized endpoint set*.

use rdi_table::{GroupSpec, Table, TableError};
use serde::Serialize;

/// A proposed fair 2-D box.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FairBox {
    /// x lower bound (inclusive).
    pub x_lo: f64,
    /// x upper bound (inclusive).
    pub x_hi: f64,
    /// y lower bound (inclusive).
    pub y_lo: f64,
    /// y upper bound (inclusive).
    pub y_hi: f64,
    /// |#A − #B| inside the proposed box.
    pub disparity: i64,
    /// |orig ∩ proposed| / |orig ∪ proposed| over selected points.
    pub similarity: f64,
    /// Points selected by the proposed box.
    pub selected: usize,
}

/// 2-D engine over `(x, y, is_group_a)` points.
#[derive(Debug, Clone)]
pub struct RangeQuery2d {
    /// Candidate x endpoints (sorted, deduped, quantized).
    xs: Vec<f64>,
    /// Candidate y endpoints.
    ys: Vec<f64>,
    /// prefix_total[i][j] = # points with x < xs[i] threshold index i and
    /// y index j (standard 2-D prefix sums over the quantized grid).
    prefix_total: Vec<Vec<i64>>,
    /// Same, group A only.
    prefix_a: Vec<Vec<i64>>,
}

impl RangeQuery2d {
    /// Build from points, quantizing each axis to at most `grid`
    /// endpoints (quantiles).
    ///
    /// # Panics
    /// Panics on empty input or `grid < 2`.
    pub fn from_points(points: &[(f64, f64, bool)], grid: usize) -> Self {
        assert!(!points.is_empty(), "need at least one point");
        assert!(grid >= 2);
        let quantize = |mut vals: Vec<f64>| -> Vec<f64> {
            vals.sort_by(f64::total_cmp);
            vals.dedup();
            if vals.len() <= grid {
                return vals;
            }
            let n = vals.len();
            let mut out: Vec<f64> = (0..grid).map(|k| vals[k * (n - 1) / (grid - 1)]).collect();
            out.dedup();
            out
        };
        let xs = quantize(points.iter().map(|p| p.0).collect());
        let ys = quantize(points.iter().map(|p| p.1).collect());
        // cell (i, j) counts points with xs[i] ≤ x < xs[i+1] (last cell
        // open-ended), analogous for y; prefix sums then give any
        // endpoint-aligned box in O(1).
        let nx = xs.len();
        let ny = ys.len();
        let mut cell_total = vec![vec![0i64; ny]; nx];
        let mut cell_a = vec![vec![0i64; ny]; nx];
        for &(x, y, is_a) in points {
            let i = match xs.partition_point(|&v| v <= x) {
                0 => 0,
                k => k - 1,
            };
            let j = match ys.partition_point(|&v| v <= y) {
                0 => 0,
                k => k - 1,
            };
            cell_total[i][j] += 1;
            if is_a {
                cell_a[i][j] += 1;
            }
        }
        let prefix = |cell: &Vec<Vec<i64>>| -> Vec<Vec<i64>> {
            let mut p = vec![vec![0i64; ny + 1]; nx + 1];
            for i in 0..nx {
                for j in 0..ny {
                    p[i + 1][j + 1] = cell[i][j] + p[i][j + 1] + p[i + 1][j] - p[i][j];
                }
            }
            p
        };
        RangeQuery2d {
            prefix_total: prefix(&cell_total),
            prefix_a: prefix(&cell_a),
            xs,
            ys,
        }
    }

    /// Build from a table: two numeric attributes and a binary group.
    pub fn build(
        table: &Table,
        x_attr: &str,
        y_attr: &str,
        spec: &GroupSpec,
        grid: usize,
    ) -> rdi_table::Result<Self> {
        let keys = spec.keys(table)?;
        if keys.len() != 2 {
            return Err(TableError::SchemaMismatch(format!(
                "2-D fair ranges need exactly 2 groups, found {}",
                keys.len()
            )));
        }
        let xcol = table.column(x_attr)?;
        let ycol = table.column(y_attr)?;
        let mut pts = Vec::new();
        for i in 0..table.num_rows() {
            if let (Some(x), Some(y)) = (xcol.value(i).as_f64(), ycol.value(i).as_f64()) {
                pts.push((x, y, spec.key_of(table, i)? == keys[0]));
            }
        }
        if pts.is_empty() {
            return Err(TableError::SchemaMismatch("no numeric points".into()));
        }
        Ok(RangeQuery2d::from_points(&pts, grid))
    }

    /// Count of (total, group A) inside the endpoint-index box
    /// `[i1, i2) × [j1, j2)` over grid cells.
    fn counts(&self, i1: usize, i2: usize, j1: usize, j2: usize) -> (i64, i64) {
        let q = |p: &Vec<Vec<i64>>| p[i2][j2] - p[i1][j2] - p[i2][j1] + p[i1][j1];
        (q(&self.prefix_total), q(&self.prefix_a))
    }

    fn disparity_box(&self, b: (usize, usize, usize, usize)) -> i64 {
        let (t, a) = self.counts(b.0, b.1, b.2, b.3);
        (2 * a - t).abs()
    }

    /// Snap a user box to endpoint indices (cells whose lower corner lies
    /// inside the range).
    fn snap(&self, x_lo: f64, x_hi: f64, y_lo: f64, y_hi: f64) -> (usize, usize, usize, usize) {
        let i1 = self.xs.partition_point(|&v| v < x_lo);
        let i2 = self.xs.partition_point(|&v| v <= x_hi);
        let j1 = self.ys.partition_point(|&v| v < y_lo);
        let j2 = self.ys.partition_point(|&v| v <= y_hi);
        (i1, i2.max(i1), j1, j2.max(j1))
    }

    /// Disparity of a user-supplied box (snapped to the grid).
    pub fn disparity(&self, x_lo: f64, x_hi: f64, y_lo: f64, y_hi: f64) -> i64 {
        self.disparity_box(self.snap(x_lo, x_hi, y_lo, y_hi))
    }

    /// The most similar endpoint-aligned box with disparity ≤ `epsilon`.
    ///
    /// Similarity is Jaccard over selected points, computed exactly from
    /// the prefix grids (box intersections are boxes).
    pub fn fair_box(&self, x_lo: f64, x_hi: f64, y_lo: f64, y_hi: f64, epsilon: i64) -> FairBox {
        let orig = self.snap(x_lo, x_hi, y_lo, y_hi);
        let (orig_count, _) = self.counts(orig.0, orig.1, orig.2, orig.3);
        let nx = self.xs.len();
        let ny = self.ys.len();
        let mut best: Option<((usize, usize, usize, usize), f64)> = None;
        for i1 in 0..=nx {
            for i2 in i1..=nx {
                for j1 in 0..=ny {
                    for j2 in j1..=ny {
                        let b = (i1, i2, j1, j2);
                        if self.disparity_box(b) > epsilon {
                            continue;
                        }
                        // intersection box
                        let ii1 = i1.max(orig.0);
                        let ii2 = i2.min(orig.1);
                        let jj1 = j1.max(orig.2);
                        let jj2 = j2.min(orig.3);
                        let inter = if ii1 < ii2 && jj1 < jj2 {
                            self.counts(ii1, ii2, jj1, jj2).0
                        } else {
                            0
                        };
                        let (cand_count, _) = self.counts(i1, i2, j1, j2);
                        let union = orig_count + cand_count - inter;
                        let sim = if union == 0 {
                            1.0
                        } else {
                            inter as f64 / union as f64
                        };
                        if best.is_none_or(|(_, s)| sim > s) {
                            best = Some((b, sim));
                        }
                    }
                }
            }
        }
        // With ε ≥ 0 the empty box is always feasible; the fallback fires
        // only for a negative ε — degrade to the empty box, not a panic.
        let empty_sim = if orig_count == 0 { 1.0 } else { 0.0 };
        let ((i1, i2, j1, j2), sim) = best.unwrap_or(((0, 0, 0, 0), empty_sim));
        let (selected, a) = self.counts(i1, i2, j1, j2);
        let bound = |endpoints: &[f64], lo_idx: usize, hi_idx: usize| -> (f64, f64) {
            if lo_idx >= hi_idx {
                (f64::INFINITY, f64::NEG_INFINITY)
            } else {
                (
                    endpoints[lo_idx],
                    endpoints.get(hi_idx).copied().unwrap_or(f64::INFINITY),
                )
            }
        };
        let (bx_lo, bx_hi) = bound(&self.xs, i1, i2);
        let (by_lo, by_hi) = bound(&self.ys, j1, j2);
        FairBox {
            x_lo: bx_lo,
            x_hi: bx_hi,
            y_lo: by_lo,
            y_hi: by_hi,
            disparity: (2 * a - selected).abs(),
            similarity: sim,
            selected: selected as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// group A fills the left half plane, B the right; y uniform.
    fn split_cloud() -> Vec<(f64, f64, bool)> {
        let mut pts = Vec::new();
        for i in 0..20 {
            for j in 0..10 {
                let x = i as f64;
                let y = j as f64;
                pts.push((x, y, i < 10));
            }
        }
        pts
    }

    #[test]
    fn disparity_of_unbalanced_box() {
        let e = RangeQuery2d::from_points(&split_cloud(), 30);
        // box covering only the left (A) half
        assert_eq!(e.disparity(0.0, 9.0, 0.0, 9.0), 100);
        // the full plane is balanced
        assert_eq!(e.disparity(0.0, 19.0, 0.0, 9.0), 0);
    }

    #[test]
    fn fair_box_straddles_the_boundary() {
        let e = RangeQuery2d::from_points(&split_cloud(), 30);
        // user asks for the A-heavy left; ε=0 forces a balanced box
        let fb = e.fair_box(0.0, 12.0, 0.0, 9.0, 0);
        assert_eq!(fb.disparity, 0);
        assert!(fb.similarity > 0.5, "sim={}", fb.similarity);
        assert!(fb.x_lo < 10.0 && fb.x_hi >= 10.0, "{fb:?}");
    }

    #[test]
    fn already_fair_box_is_kept() {
        let e = RangeQuery2d::from_points(&split_cloud(), 30);
        let fb = e.fair_box(5.0, 14.0, 2.0, 7.0, 0);
        assert_eq!(fb.disparity, 0);
        assert_eq!(fb.similarity, 1.0);
    }

    #[test]
    fn epsilon_relaxes_the_constraint_monotonically() {
        let e = RangeQuery2d::from_points(&split_cloud(), 30);
        let mut last = 0.0;
        for eps in [0, 20, 60, 200] {
            let fb = e.fair_box(0.0, 12.0, 0.0, 9.0, eps);
            assert!(fb.disparity <= eps);
            assert!(fb.similarity >= last - 1e-12, "eps={eps}");
            last = fb.similarity;
        }
        assert_eq!(last, 1.0); // ε=200 admits the original box
    }

    #[test]
    fn quantization_caps_grid_size() {
        let pts: Vec<(f64, f64, bool)> = (0..5_000)
            .map(|i| (i as f64 * 0.01, (i % 97) as f64, i % 2 == 0))
            .collect();
        let e = RangeQuery2d::from_points(&pts, 8);
        assert!(e.xs.len() <= 8);
        assert!(e.ys.len() <= 8);
        let fb = e.fair_box(0.0, 25.0, 0.0, 50.0, 10);
        assert!(fb.disparity <= 10);
    }

    #[test]
    fn build_from_table_validates_groups() {
        use rdi_table::{DataType, Field, Role, Schema, Value};
        let schema = Schema::new(vec![
            Field::new("g", DataType::Str).with_role(Role::Sensitive),
            Field::new("x", DataType::Float),
            Field::new("y", DataType::Float),
        ]);
        let mut t = Table::new(schema);
        for (g, x, y) in [("a", 1.0, 1.0), ("b", 2.0, 2.0), ("a", 3.0, 0.0)] {
            t.push_row(vec![Value::str(g), Value::Float(x), Value::Float(y)])
                .unwrap();
        }
        let spec = GroupSpec::new(vec!["g"]);
        let e = RangeQuery2d::build(&t, "x", "y", &spec, 8).unwrap();
        assert!(e.disparity(0.0, 3.0, 0.0, 2.0) >= 1);
    }
}
