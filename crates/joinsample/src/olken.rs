//! Uniform, independent single-tuple sampling from a two-way join.
//!
//! Two classic strategies (Olken 1993; Chaudhuri, Motwani, Narasayya,
//! SIGMOD 1999):
//!
//! * **Accept-reject** ([`olken_sample`]): draw `r ∈ R` uniformly, draw a
//!   partner `s` uniformly from the rows of `S` joining `r`, accept with
//!   probability `m(r)/M` where `m(r)` is `r`'s multiplicity and `M` the
//!   maximum multiplicity. Needs only the max statistic; wastes rejected
//!   draws.
//! * **Weighted** ([`chaudhuri_sample`]): draw `r` with probability
//!   proportional to `m(r)` (exact frequency knowledge), then a uniform
//!   partner — no rejection.
//!
//! Both return exact uniform i.i.d. samples of `R ⋈ S`.

use rand::Rng;
use rdi_par::{par_run, stream_rng, Threads};
use rdi_table::{Table, TableError, Value};

use crate::index::JoinIndex;
use crate::metrics;

/// One sampled join tuple: row indices into the left and right tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JoinSample {
    /// Row index in the left table.
    pub left: usize,
    /// Row index in the right table.
    pub right: usize,
}

/// Draw `n` uniform independent samples of `left ⋈ right` by
/// accept-reject. Also returns the number of *attempts* (accepted +
/// rejected draws), the cost figure the throughput experiments report.
pub fn olken_sample<R: Rng>(
    left: &Table,
    left_key: &str,
    right_index: &JoinIndex,
    n: usize,
    rng: &mut R,
) -> rdi_table::Result<(Vec<JoinSample>, usize)> {
    let key_idx = left.schema().index_of(left_key)?;
    if left.is_empty() {
        return Err(TableError::SchemaMismatch("empty left table".into()));
    }
    let m_max = right_index.max_multiplicity();
    if m_max == 0 {
        return Err(TableError::SchemaMismatch(
            "right side has no joinable keys".into(),
        ));
    }
    // An empty join would make the accept-reject loop spin forever (every
    // draw rejects); refuse it up front like `chaudhuri_sample` does.
    if right_index.join_size(left, left_key)? == 0 {
        return Err(TableError::SchemaMismatch("join is empty".into()));
    }
    let mut out = Vec::with_capacity(n);
    let mut attempts = 0usize;
    while out.len() < n {
        attempts += 1;
        let r = rng.gen_range(0..left.num_rows());
        let key = left.column_at(key_idx).value(r);
        if key.is_null() {
            continue;
        }
        let partners = right_index.rows(&key);
        if partners.is_empty() {
            continue;
        }
        // accept with probability m(r)/M
        if rng.gen::<f64>() < partners.len() as f64 / m_max as f64 {
            let s = partners[rng.gen_range(0..partners.len())];
            out.push(JoinSample { left: r, right: s });
        }
    }
    // recorded once per call from the final tallies; `olken_sample_par`
    // adds per block, which is commutative across schedules
    metrics::OLKEN_ATTEMPTS.add(attempts as u64);
    metrics::OLKEN_ACCEPTED.add(out.len() as u64);
    Ok((out, attempts))
}

/// Samples per independent RNG block in [`olken_sample_par`]. Block
/// boundaries depend only on `n`, never on the thread count — that is
/// what makes the parallel output bitwise reproducible.
const OLKEN_BLOCK: usize = 256;

/// Parallel [`olken_sample`]: the `n` draws are split into fixed
/// blocks of `OLKEN_BLOCK`, each driven by its own
/// [`stream_rng`]`(seed, block)`, and blocks run across
/// `threads`. Because both the block boundaries and the per-block
/// streams are functions of `(n, seed)` alone, the samples and attempt
/// count are bitwise identical for any thread count (including 1).
///
/// The sequence differs from [`olken_sample`] with a single RNG — this
/// variant defines its own deterministic stream — but each block is an
/// exact uniform i.i.d. sampler, so all statistical guarantees carry
/// over.
pub fn olken_sample_par(
    left: &Table,
    left_key: &str,
    right_index: &JoinIndex,
    n: usize,
    seed: u64,
    threads: Threads,
) -> rdi_table::Result<(Vec<JoinSample>, usize)> {
    let blocks = n.div_ceil(OLKEN_BLOCK).max(1);
    let per_block = par_run(threads.min_len(2), blocks, |b| {
        let quota = OLKEN_BLOCK.min(n - (b * OLKEN_BLOCK).min(n));
        let mut rng = stream_rng(seed, b as u64);
        olken_sample(left, left_key, right_index, quota, &mut rng)
    });
    let mut out = Vec::with_capacity(n);
    let mut attempts = 0usize;
    for r in per_block {
        let (samples, a) = r?;
        out.extend(samples);
        attempts += a;
    }
    Ok((out, attempts))
}

/// Draw `n` uniform independent samples using exact multiplicity
/// knowledge: left rows weighted by their partner count, partner uniform.
pub fn chaudhuri_sample<R: Rng>(
    left: &Table,
    left_key: &str,
    right_index: &JoinIndex,
    n: usize,
    rng: &mut R,
) -> rdi_table::Result<Vec<JoinSample>> {
    let key_idx = left.schema().index_of(left_key)?;
    // Build the weighted alias-free CDF over left rows.
    let mut weights: Vec<f64> = Vec::with_capacity(left.num_rows());
    let mut total = 0.0;
    for i in 0..left.num_rows() {
        let key = left.column_at(key_idx).value(i);
        let w = if key.is_null() {
            0.0
        } else {
            right_index.multiplicity(&key) as f64
        };
        total += w;
        weights.push(total);
    }
    if total == 0.0 {
        return Err(TableError::SchemaMismatch("join is empty".into()));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let u = rng.gen::<f64>() * total;
        // binary search the cumulative weights
        let r = weights
            .partition_point(|&w| w <= u)
            .min(left.num_rows() - 1);
        let key = left.column_at(key_idx).value(r);
        let partners = right_index.rows(&key);
        debug_assert!(!partners.is_empty());
        let s = partners[rng.gen_range(0..partners.len())];
        out.push(JoinSample { left: r, right: s });
    }
    metrics::CHAUDHURI_DRAWS.add(out.len() as u64);
    Ok(out)
}

/// Materialize sampled join tuples as a table (same output schema as
/// [`rdi_table::hash_join`]).
pub fn materialize_samples(
    left: &Table,
    right: &Table,
    right_key: &str,
    samples: &[JoinSample],
) -> rdi_table::Result<Table> {
    let lidx: Vec<usize> = samples.iter().map(|s| s.left).collect();
    let ridx: Vec<usize> = samples.iter().map(|s| s.right).collect();
    // A 1-row-at-a-time join of the gathered sides would lose pairing on
    // duplicate keys, so gather each side and zip columns directly.
    let lg = left.take(&lidx);
    let rg = right.take(&ridx);
    let mut fields = left.schema().fields().to_vec();
    let left_names: Vec<String> = fields.iter().map(|f| f.name.clone()).collect();
    let mut cols: Vec<rdi_table::Column> = (0..lg.num_columns())
        .map(|c| lg.column_at(c).clone())
        .collect();
    for (j, f) in right.schema().fields().iter().enumerate() {
        if f.name == right_key {
            continue;
        }
        let mut f = f.clone();
        if left_names.contains(&f.name) {
            f.name = format!("{}_r", f.name);
        }
        fields.push(f);
        cols.push(rg.column_at(j).clone());
    }
    Table::from_columns(rdi_table::Schema::new(fields), cols)
}

/// Convenience: the exact join size via the index (denominator for
/// uniformity tests).
pub fn exact_join_size(
    left: &Table,
    left_key: &str,
    right_index: &JoinIndex,
) -> rdi_table::Result<usize> {
    right_index.join_size(left, left_key)
}

/// Helper for tests/benches: key value of a sampled tuple.
#[expect(
    clippy::expect_used,
    reason = "test/bench helper — samples come from the sampler over this same table, so the index and column are valid"
)]
pub fn sample_key(left: &Table, left_key: &str, s: &JoinSample) -> Value {
    left.value(s.left, left_key).expect("valid sample")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rdi_table::{DataType, Field, Schema};
    use std::collections::HashMap;

    fn keyed(keys: &[i64]) -> Table {
        let schema = Schema::new(vec![Field::new("k", DataType::Int)]);
        let mut t = Table::new(schema);
        for &k in keys {
            t.push_row(vec![Value::Int(k)]).unwrap();
        }
        t
    }

    /// χ² uniformity check over the join tuples' identities.
    fn assert_uniform(samples: &[JoinSample], join_size: usize, n: usize) {
        let mut counts: HashMap<JoinSample, usize> = HashMap::new();
        for s in samples {
            *counts.entry(*s).or_insert(0) += 1;
        }
        let expected = n as f64 / join_size as f64;
        let mut chi2 = 0.0;
        // include zero cells
        let observed_total: usize = counts.values().sum();
        assert_eq!(observed_total, n);
        let nonzero: f64 = counts
            .values()
            .map(|&c| (c as f64 - expected).powi(2) / expected)
            .sum();
        let zero_cells = join_size - counts.len();
        chi2 += nonzero + zero_cells as f64 * expected;
        // df = join_size - 1; normal approx: mean df, sd sqrt(2 df)
        let df = (join_size - 1) as f64;
        let z = (chi2 - df) / (2.0 * df).sqrt();
        assert!(z.abs() < 4.0, "chi2={chi2} df={df} z={z}");
    }

    #[test]
    fn olken_is_uniform_under_skew() {
        // key multiplicities 1..=10 on the right
        let left = keyed(&(0..10).collect::<Vec<i64>>());
        let mut right_keys = Vec::new();
        for k in 0..10i64 {
            for _ in 0..=k {
                right_keys.push(k);
            }
        }
        let right = keyed(&right_keys);
        let idx = JoinIndex::build(&right, "k").unwrap();
        let join_size = exact_join_size(&left, "k", &idx).unwrap();
        assert_eq!(join_size, 55);
        let mut rng = StdRng::seed_from_u64(7);
        let n = 22_000;
        let (samples, attempts) = olken_sample(&left, "k", &idx, n, &mut rng).unwrap();
        assert!(attempts >= n);
        assert_uniform(&samples, join_size, n);
    }

    #[test]
    fn chaudhuri_is_uniform_under_skew() {
        let left = keyed(&(0..10).collect::<Vec<i64>>());
        let mut right_keys = Vec::new();
        for k in 0..10i64 {
            for _ in 0..=k {
                right_keys.push(k);
            }
        }
        let right = keyed(&right_keys);
        let idx = JoinIndex::build(&right, "k").unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let n = 22_000;
        let samples = chaudhuri_sample(&left, "k", &idx, n, &mut rng).unwrap();
        assert_uniform(&samples, 55, n);
    }

    #[test]
    fn samples_are_valid_join_tuples() {
        let left = keyed(&[1, 2, 3, 99]);
        let right = keyed(&[1, 1, 2, 3, 3, 3]);
        let idx = JoinIndex::build(&right, "k").unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let (samples, _) = olken_sample(&left, "k", &idx, 500, &mut rng).unwrap();
        for s in &samples {
            assert_eq!(
                left.value(s.left, "k").unwrap(),
                right.value(s.right, "k").unwrap()
            );
        }
    }

    #[test]
    fn olken_par_identical_across_thread_counts() {
        let left = keyed(&(0..20).collect::<Vec<i64>>());
        let mut right_keys = Vec::new();
        for k in 0..20i64 {
            for _ in 0..=(k % 5) {
                right_keys.push(k);
            }
        }
        let right = keyed(&right_keys);
        let idx = JoinIndex::build(&right, "k").unwrap();
        // spans several OLKEN_BLOCKs plus a partial tail
        let n = 3 * OLKEN_BLOCK + 17;
        let baseline = olken_sample_par(&left, "k", &idx, n, 42, Threads::fixed(1)).unwrap();
        assert_eq!(baseline.0.len(), n);
        for threads in [2, 3, 8] {
            let got = olken_sample_par(&left, "k", &idx, n, 42, Threads::fixed(threads)).unwrap();
            assert_eq!(got, baseline, "threads={threads}");
        }
        // the parallel stream is still a valid uniform sampler
        for s in &baseline.0 {
            assert_eq!(
                left.value(s.left, "k").unwrap(),
                right.value(s.right, "k").unwrap()
            );
        }
    }

    #[test]
    fn olken_par_is_uniform_under_skew() {
        let left = keyed(&(0..10).collect::<Vec<i64>>());
        let mut right_keys = Vec::new();
        for k in 0..10i64 {
            for _ in 0..=k {
                right_keys.push(k);
            }
        }
        let right = keyed(&right_keys);
        let idx = JoinIndex::build(&right, "k").unwrap();
        let n = 22_000;
        let (samples, attempts) =
            olken_sample_par(&left, "k", &idx, n, 13, Threads::fixed(4)).unwrap();
        assert!(attempts >= n);
        assert_uniform(&samples, 55, n);
    }

    #[test]
    fn empty_join_is_an_error() {
        let left = keyed(&[1]);
        let right = keyed(&[2]);
        let idx = JoinIndex::build(&right, "k").unwrap();
        let mut rng = StdRng::seed_from_u64(10);
        assert!(chaudhuri_sample(&left, "k", &idx, 5, &mut rng).is_err());
        // olken must refuse too rather than loop forever on all-rejects
        assert!(olken_sample(&left, "k", &idx, 5, &mut rng).is_err());
        assert!(olken_sample_par(&left, "k", &idx, 5, 1, Threads::fixed(2)).is_err());
    }

    #[test]
    fn materialize_matches_samples() {
        let left = keyed(&[1, 2]);
        let right = keyed(&[1, 2, 2]);
        let idx = JoinIndex::build(&right, "k").unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let samples = chaudhuri_sample(&left, "k", &idx, 50, &mut rng).unwrap();
        let t = materialize_samples(&left, &right, "k", &samples).unwrap();
        assert_eq!(t.num_rows(), 50);
    }
}
