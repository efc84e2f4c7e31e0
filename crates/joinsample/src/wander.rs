//! Wander join over chain joins (Li, Wu, Yi, Zhao; SIGMOD 2016).
//!
//! A *walk* picks a uniform tuple in the first table, then repeatedly a
//! uniform partner in the next table via the join index. Each successful
//! walk is an **independent but non-uniform** sample of the chain-join
//! result whose sampling probability is known exactly, so the
//! Horvitz–Thompson estimator `Σ f(path)/p(path) / n_walks` is unbiased for
//! any SUM/COUNT aggregate — no uniformity needed (tutorial §3.4).

use rand::Rng;
use rdi_par::{par_run, stream_rng, Threads};
use rdi_table::{Table, TableError, Value};

use crate::estimator::AqpEstimate;
use crate::index::JoinIndex;
use crate::metrics;

/// Walks per independent RNG block in the `_par` estimators. Block
/// boundaries depend only on the walk count, never on the thread
/// count, so parallel estimates are bitwise reproducible.
const WALK_BLOCK: usize = 1024;

/// A successful random walk: one row index per table, and the walk's
/// sampling probability.
#[derive(Debug, Clone, PartialEq)]
pub struct WanderPath {
    /// One row index per chain table.
    pub rows: Vec<usize>,
    /// Exact probability this walk was sampled.
    pub probability: f64,
}

/// Wander-join sampler over a chain `T0 ⋈ T1 ⋈ … ⋈ Tk`.
///
/// `keys[i] = (left_col, right_col)` joins `T_i.left_col = T_{i+1}.right_col`.
pub struct WanderJoin<'a> {
    tables: Vec<&'a Table>,
    /// Key column index in `T_i` (toward the next table).
    out_key: Vec<usize>,
    /// Join index of `T_{i+1}` keyed on its join column.
    indexes: Vec<JoinIndex>,
}

impl<'a> WanderJoin<'a> {
    /// Build over a chain of at least two tables.
    pub fn new(tables: Vec<&'a Table>, keys: &[(&str, &str)]) -> rdi_table::Result<Self> {
        if tables.len() < 2 || keys.len() != tables.len() - 1 {
            return Err(TableError::SchemaMismatch(
                "chain needs n tables and n-1 key pairs".into(),
            ));
        }
        let mut out_key = Vec::new();
        let mut indexes = Vec::new();
        for (i, (lk, rk)) in keys.iter().enumerate() {
            out_key.push(tables[i].schema().index_of(lk)?);
            indexes.push(JoinIndex::build(tables[i + 1], rk)?);
        }
        Ok(WanderJoin {
            tables,
            out_key,
            indexes,
        })
    }

    /// Attempt one walk; `None` when it dead-ends (the dead end still
    /// counts as a trial in the estimators — that's what keeps them
    /// unbiased).
    pub fn walk<R: Rng>(&self, rng: &mut R) -> Option<WanderPath> {
        let t0 = self.tables[0];
        if t0.is_empty() {
            return None;
        }
        let mut rows = Vec::with_capacity(self.tables.len());
        let r0 = rng.gen_range(0..t0.num_rows());
        let mut p = 1.0 / t0.num_rows() as f64;
        rows.push(r0);
        let mut current = r0;
        for i in 0..self.indexes.len() {
            let key = self.tables[i].column_at(self.out_key[i]).value(current);
            if key.is_null() {
                return None;
            }
            let partners = self.indexes[i].rows(&key);
            if partners.is_empty() {
                return None;
            }
            let next = partners[rng.gen_range(0..partners.len())];
            p /= partners.len() as f64;
            rows.push(next);
            current = next;
        }
        Some(WanderPath {
            rows,
            probability: p,
        })
    }

    /// Estimate COUNT(*) of the chain join from `n_walks` walks.
    pub fn count_estimate<R: Rng>(&self, n_walks: usize, rng: &mut R) -> AqpEstimate {
        self.aggregate_estimate(n_walks, rng, |_| 1.0)
    }

    /// Estimate `SUM(f(path))` where `f` reads any value off the path's
    /// rows (e.g. a measure column in the last table).
    pub fn aggregate_estimate<R: Rng>(
        &self,
        n_walks: usize,
        rng: &mut R,
        f: impl Fn(&WanderPath) -> f64,
    ) -> AqpEstimate {
        let (contributions, dead_ends) = self.walks(n_walks, rng, &f);
        metrics::WALKS_ATTEMPTED.add(n_walks as u64);
        metrics::WALKS_DEAD_ENDED.add(dead_ends);
        AqpEstimate::from_contributions(&contributions)
    }

    /// Parallel [`Self::count_estimate`]: walks split into fixed blocks
    /// of `WALK_BLOCK`, each with its own seeded RNG stream, so the
    /// estimate is bitwise identical for any thread count.
    pub fn count_estimate_par(&self, n_walks: usize, seed: u64, threads: Threads) -> AqpEstimate {
        self.aggregate_estimate_par(n_walks, seed, threads, |_| 1.0)
    }

    /// Parallel [`Self::aggregate_estimate`]. The `n_walks` trials are
    /// split into fixed blocks of `WALK_BLOCK` (a function of
    /// `n_walks` alone), each driven by
    /// [`stream_rng`]`(seed, block)`, and blocks run across `threads`.
    /// Per-block contributions are concatenated in block order before
    /// the estimator folds them, so the returned estimate is bitwise
    /// identical for any thread count (including 1).
    ///
    /// The stream differs from [`Self::aggregate_estimate`] with a
    /// single RNG, but every walk is still an independent
    /// Horvitz–Thompson trial, so unbiasedness is unaffected.
    pub fn aggregate_estimate_par(
        &self,
        n_walks: usize,
        seed: u64,
        threads: Threads,
        f: impl Fn(&WanderPath) -> f64 + Sync,
    ) -> AqpEstimate {
        let blocks = n_walks.div_ceil(WALK_BLOCK).max(1);
        let per_block = par_run(threads.min_len(2), blocks, |b| {
            let quota = WALK_BLOCK.min(n_walks - (b * WALK_BLOCK).min(n_walks));
            let (contributions, dead_ends) = self.walks(quota, &mut stream_rng(seed, b as u64), &f);
            // per-block adds are commutative, and each block's tallies are
            // a function of (n_walks, seed) alone — totals match any
            // thread count
            metrics::WALKS_ATTEMPTED.add(quota as u64);
            metrics::WALKS_DEAD_ENDED.add(dead_ends);
            contributions
        });
        AqpEstimate::from_contributions(&per_block.concat())
    }

    /// Run `n` walks on `rng`: each walk's Horvitz–Thompson
    /// contribution `f(path) / p(path)` (0 for a dead end), and the
    /// dead-end count.
    fn walks<R: Rng>(
        &self,
        n: usize,
        rng: &mut R,
        f: &impl Fn(&WanderPath) -> f64,
    ) -> (Vec<f64>, u64) {
        let mut contributions = Vec::with_capacity(n);
        let mut dead_ends = 0u64;
        for _ in 0..n {
            match self.walk(rng) {
                Some(path) => contributions.push(f(&path) / path.probability),
                None => {
                    dead_ends += 1;
                    contributions.push(0.0);
                }
            }
        }
        (contributions, dead_ends)
    }

    /// Value of column `col` in chain table `table_idx` on a path.
    pub fn path_value(
        &self,
        path: &WanderPath,
        table_idx: usize,
        col: &str,
    ) -> rdi_table::Result<Value> {
        self.tables[table_idx].value(path.rows[table_idx], col)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rdi_table::{hash_join, DataType, Field, Schema};

    fn keyed(name: &str, keys: &[i64], vals: Option<&[f64]>) -> Table {
        let mut fields = vec![Field::new("k", DataType::Int)];
        if vals.is_some() {
            fields.push(Field::new("v", DataType::Float));
        }
        let schema = Schema::new(fields);
        let mut t = Table::new(schema);
        for (i, &k) in keys.iter().enumerate() {
            let mut row = vec![Value::Int(k)];
            if let Some(vs) = vals {
                row.push(Value::Float(vs[i]));
            }
            t.push_row(row).unwrap();
        }
        let _ = name;
        t
    }

    #[test]
    fn two_table_count_is_unbiased() {
        let left = keyed("l", &[1, 1, 2, 3, 5], None);
        let right = keyed("r", &[1, 2, 2, 2, 3, 4], None);
        let truth = hash_join(&left, &right, "k", "k").unwrap().num_rows() as f64;
        let wj = WanderJoin::new(vec![&left, &right], &[("k", "k")]).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let est = wj.count_estimate(20_000, &mut rng);
        assert!(
            est.relative_error(truth) < 0.05,
            "est={} truth={truth}",
            est.value
        );
        assert!(est.covers(truth));
    }

    #[test]
    fn three_table_chain_count() {
        let a = keyed("a", &[1, 2, 3, 4], None);
        let b = keyed("b", &[1, 1, 2, 3, 3], None);
        let c = keyed("c", &[1, 2, 2, 3, 3, 3], None);
        // truth via two hash joins
        let ab = hash_join(&a, &b, "k", "k").unwrap();
        let truth = hash_join(&ab, &c, "k", "k").unwrap().num_rows() as f64;
        let wj = WanderJoin::new(vec![&a, &b, &c], &[("k", "k"), ("k", "k")]).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let est = wj.count_estimate(40_000, &mut rng);
        assert!(
            est.relative_error(truth) < 0.08,
            "est={} truth={truth}",
            est.value
        );
    }

    #[test]
    fn sum_aggregate_over_last_table() {
        let left = keyed("l", &[1, 2, 2], None);
        let vals = [10.0, 20.0, 30.0, 40.0];
        let right = keyed("r", &[1, 2, 2, 9], Some(&vals));
        // true SUM(v) over join: key1→10; key2 (two left rows × v=20,30) → 2*(20+30)=100; total 110
        let wj = WanderJoin::new(vec![&left, &right], &[("k", "k")]).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let est = wj.aggregate_estimate(30_000, &mut rng, |p| {
            wj.path_value(p, 1, "v").unwrap().as_f64().unwrap()
        });
        assert!(est.relative_error(110.0) < 0.05, "est={}", est.value);
    }

    #[test]
    fn dead_ends_keep_estimator_unbiased() {
        // left has keys that never join; walks fail but contribute 0
        let left = keyed("l", &[1, 2, 7, 8, 9], None);
        let right = keyed("r", &[1, 2], None);
        let truth = 2.0;
        let wj = WanderJoin::new(vec![&left, &right], &[("k", "k")]).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let est = wj.count_estimate(20_000, &mut rng);
        assert!(est.relative_error(truth) < 0.1, "est={}", est.value);
    }

    #[test]
    fn par_estimates_identical_across_thread_counts() {
        let left = keyed("l", &[1, 1, 2, 3, 5], None);
        let right = keyed("r", &[1, 2, 2, 2, 3, 4], None);
        let wj = WanderJoin::new(vec![&left, &right], &[("k", "k")]).unwrap();
        // spans several WALK_BLOCKs plus a partial tail
        let n = 3 * WALK_BLOCK + 31;
        let baseline = wj.count_estimate_par(n, 42, Threads::fixed(1));
        for threads in [2, 3, 8] {
            let got = wj.count_estimate_par(n, 42, Threads::fixed(threads));
            assert_eq!(
                got.value.to_bits(),
                baseline.value.to_bits(),
                "threads={threads}"
            );
            assert_eq!(
                got.std_err.to_bits(),
                baseline.std_err.to_bits(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn par_count_estimate_is_unbiased() {
        let left = keyed("l", &[1, 1, 2, 3, 5], None);
        let right = keyed("r", &[1, 2, 2, 2, 3, 4], None);
        let truth = hash_join(&left, &right, "k", "k").unwrap().num_rows() as f64;
        let wj = WanderJoin::new(vec![&left, &right], &[("k", "k")]).unwrap();
        let est = wj.count_estimate_par(20_000, 5, Threads::fixed(4));
        assert!(
            est.relative_error(truth) < 0.05,
            "est={} truth={truth}",
            est.value
        );
        assert!(est.covers(truth));
    }

    #[test]
    fn invalid_chain_configs_rejected() {
        let a = keyed("a", &[1], None);
        assert!(WanderJoin::new(vec![&a], &[]).is_err());
        let b = keyed("b", &[1], None);
        assert!(WanderJoin::new(vec![&a, &b], &[]).is_err());
        assert!(WanderJoin::new(vec![&a, &b], &[("nope", "k")]).is_err());
    }
}
