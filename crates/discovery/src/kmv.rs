//! KMV sketches and correlation sketches.
//!
//! A **KMV** (k-minimum-values) sketch keeps the `k` smallest hash values
//! of a set; the k-th smallest value `u_k` estimates the distinct count as
//! `(k − 1)/u_k`. Because hashing is *coordinated* (same hash function on
//! both sides), the keys surviving into two tables' sketches coincide —
//! which is exactly what **correlation sketches** (Santos, Bessa,
//! Chirigati, Musco, Freire; SIGMOD 2021) exploit: keep, with each
//! sampled join key, the associated numeric values from each table; the
//! intersection of two sketches is a (nearly) uniform sample of the joined
//! pairs, so any correlation measure evaluated on it approximates the true
//! join-correlation.

use std::collections::BTreeMap;

use rdi_table::{Table, Value};

use crate::hash::{hash_value, to_unit};

/// Seed for the shared (coordinated) key-hash function.
const KEY_SEED: u64 = 0x5eed_cafe;

/// A k-minimum-values sketch of a key set, with an optional payload value
/// per retained key.
#[derive(Debug, Clone)]
pub struct KmvSketch {
    k: usize,
    /// (unit-interval hash, key, payload), sorted by hash ascending.
    entries: Vec<(f64, Value, f64)>,
}

impl KmvSketch {
    /// Build over a table's key column, storing the mean of `payload`
    /// column per key (keys may repeat; the correlation-sketch payload is
    /// the per-key aggregate).
    ///
    /// Null and non-numeric payload values are excluded from the
    /// per-key mean — folding them in as `0.0` would drag sparse
    /// columns' payloads toward zero. A key whose payload is *never*
    /// numeric is dropped entirely (it has no feature value to
    /// correlate); without a payload column every non-null key is kept.
    pub fn build(
        table: &Table,
        key: &str,
        payload: Option<&str>,
        k: usize,
    ) -> rdi_table::Result<Self> {
        assert!(k > 0);
        let kidx = table.schema().index_of(key)?;
        let pidx = payload.map(|p| table.schema().index_of(p)).transpose()?;
        // per key: (payload sum over numeric rows, numeric row count);
        // sorted map so the entries vec is built in key order (R1)
        let mut agg: BTreeMap<Value, (f64, usize)> = BTreeMap::new();
        for i in 0..table.num_rows() {
            let kv = table.column_at(kidx).value(i);
            if kv.is_null() {
                continue;
            }
            let e = agg.entry(kv).or_insert((0.0, 0));
            match pidx {
                Some(p) => {
                    if let Some(v) = table.column_at(p).value(i).as_f64() {
                        e.0 += v;
                        e.1 += 1;
                    }
                }
                None => e.1 += 1,
            }
        }
        let mut entries: Vec<(f64, Value, f64)> = agg
            .into_iter()
            .filter_map(|(kv, (sum, n))| {
                if n == 0 {
                    // payload requested but never numeric for this key
                    return None;
                }
                let u = to_unit(hash_value(&kv, KEY_SEED));
                Some((u, kv, sum / n as f64))
            })
            .collect();
        entries.sort_by(|a, b| a.0.total_cmp(&b.0));
        entries.truncate(k);
        rdi_obs::counter("discovery.kmv_sketches_built").inc();
        Ok(KmvSketch { k, entries })
    }

    /// Number of retained keys (≤ k).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff the sketch retains no keys.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The retained `(unit hash, key, mean payload)` entries in
    /// ascending hash order — exposed read-only so harnesses can check
    /// bitwise identity between cold-built and incrementally-maintained
    /// sketches.
    pub fn entries(&self) -> &[(f64, Value, f64)] {
        &self.entries
    }

    /// Estimated number of distinct keys: `(k−1)/u_k` when full, exact
    /// count otherwise.
    pub fn distinct_estimate(&self) -> f64 {
        if self.entries.len() < self.k {
            return self.entries.len() as f64;
        }
        // full sketch with k > 0 ⇒ entries non-empty; 0.0 is unreachable
        let u_k = self.entries.last().map_or(0.0, |e| e.0);
        if u_k <= 0.0 {
            return self.entries.len() as f64;
        }
        (self.k as f64 - 1.0) / u_k
    }

    /// Keys shared by both sketches *within the joint sketch region* —
    /// a coordinated uniform sample of the join keys — with both payloads.
    pub fn intersect<'a>(&'a self, other: &'a KmvSketch) -> Vec<(&'a Value, f64, f64)> {
        // restrict to the common retained-hash region to keep uniformity
        let bound = match (self.entries.last(), other.entries.last()) {
            (Some(a), Some(b)) => a.0.min(b.0),
            _ => return Vec::new(),
        };
        let map: BTreeMap<&Value, f64> = other
            .entries
            .iter()
            .filter(|(u, _, _)| *u <= bound)
            .map(|(_, k, p)| (k, *p))
            .collect();
        self.entries
            .iter()
            .filter(|(u, _, _)| *u <= bound)
            .filter_map(|(_, k, p)| map.get(k).map(|q| (k, *p, *q)))
            .collect()
    }
}

/// One key tracked by an [`UpdatableKmv`]: its coordinated hash, the
/// running payload fold, and row multiplicities.
#[derive(Debug, Clone)]
struct Tracked {
    u: f64,
    key: Value,
    /// Left-fold of numeric payload values in row order — appended rows
    /// extend the same fold a cold build would compute.
    sum: f64,
    /// Rows whose payload was numeric (the mean's denominator).
    numeric_rows: u64,
    /// Total rows carrying this key (entry dropped when it hits 0).
    rows: u64,
}

/// Ordering of tracked entries: by hash, ties by key — identical to the
/// cold build's stable sort over key-ascending aggregation order.
fn entry_order(au: f64, ak: &Value, bu: f64, bk: &Value) -> std::cmp::Ordering {
    au.total_cmp(&bu).then_with(|| ak.cmp(bk))
}

/// A KMV/correlation sketch that absorbs appended rows **exactly** and
/// absorbs deletions under a tracked **deletion debt**.
///
/// Internally the sketch retains the `k + slack` smallest-hash keys and
/// a `horizon`: the smallest hash it has ever discarded. The invariant
/// "every retained hash ≤ horizon ≤ every discarded hash" makes the
/// exposed top-`k` ([`UpdatableKmv::sketch`]) bitwise identical to a
/// cold [`KmvSketch::build`] of the current table under *any append
/// stream*: an appended key below the horizon is inserted (possibly
/// displacing the largest retained entry), one at or beyond it can
/// never reach the top-`k` while at least `k` exposable entries remain.
///
/// Deletions are absorbed, not replayed: a deleted row decrements its
/// key's multiplicity (the key vanishes from the sketch when it hits
/// zero) but the payload mean of a partially-deleted key goes *stale*
/// — a sum cannot be un-folded exactly in floating point. Every
/// deleted row therefore adds one unit of **debt**; when
/// `debt > debt_threshold`, or when deletions have eaten the slack
/// (`truncated` with fewer than `k` exposable entries),
/// [`UpdatableKmv::needs_rebuild`] turns true and the owner performs a
/// counted rebuild (`sketch.rebuilds`) — the only O(table) step, paid
/// once per threshold crossing instead of once per delta.
///
/// Every absorbed row counts `sketch.incremental_updates`.
#[derive(Debug, Clone)]
pub struct UpdatableKmv {
    k: usize,
    slack: usize,
    debt_threshold: u64,
    has_payload: bool,
    /// Retained entries, sorted by (hash, key).
    entries: Vec<Tracked>,
    /// True once any key has been discarded (build-time truncation,
    /// capacity displacement, or beyond-horizon arrival).
    truncated: bool,
    /// Smallest hash ever discarded (`f64::INFINITY` until truncated).
    horizon: f64,
    debt: u64,
}

impl UpdatableKmv {
    /// Build over a table's key (and optional payload) column, exactly
    /// like [`KmvSketch::build`] but retaining `k + slack` keys so
    /// later deletions have room to consume.
    pub fn build(
        table: &Table,
        key: &str,
        payload: Option<&str>,
        k: usize,
        slack: usize,
        debt_threshold: u64,
    ) -> rdi_table::Result<Self> {
        assert!(k > 0);
        let kidx = table.schema().index_of(key)?;
        let pidx = payload.map(|p| table.schema().index_of(p)).transpose()?;
        let mut agg: BTreeMap<Value, (f64, u64, u64)> = BTreeMap::new();
        for i in 0..table.num_rows() {
            let kv = table.column_at(kidx).value(i);
            if kv.is_null() {
                continue;
            }
            let e = agg.entry(kv).or_insert((0.0, 0, 0));
            e.2 += 1;
            match pidx {
                Some(p) => {
                    if let Some(v) = table.column_at(p).value(i).as_f64() {
                        e.0 += v;
                        e.1 += 1;
                    }
                }
                None => e.1 += 1,
            }
        }
        let mut entries: Vec<Tracked> = agg
            .into_iter()
            .map(|(kv, (sum, n, m))| Tracked {
                u: to_unit(hash_value(&kv, KEY_SEED)),
                key: kv,
                sum,
                numeric_rows: n,
                rows: m,
            })
            .collect();
        entries.sort_by(|a, b| entry_order(a.u, &a.key, b.u, &b.key));
        let cap = k + slack;
        let mut truncated = false;
        let mut horizon = f64::INFINITY;
        if entries.len() > cap {
            truncated = true;
            horizon = entries[cap].u;
            entries.truncate(cap);
        }
        rdi_obs::counter("discovery.kmv_sketches_built").inc();
        Ok(UpdatableKmv {
            k,
            slack,
            debt_threshold,
            has_payload: payload.is_some(),
            entries,
            truncated,
            horizon,
            debt: 0,
        })
    }

    /// Absorb one appended row. Exact: after any sequence of appends,
    /// [`UpdatableKmv::sketch`] equals a cold build of the grown table
    /// to the bit. Null keys are skipped, as in the cold build.
    pub fn append_row(&mut self, key: &Value, payload: Option<&Value>) {
        if key.is_null() {
            return;
        }
        rdi_obs::counter("sketch.incremental_updates").inc();
        let u = to_unit(hash_value(key, KEY_SEED));
        match self
            .entries
            .binary_search_by(|e| entry_order(e.u, &e.key, u, key))
        {
            Ok(i) => {
                let e = &mut self.entries[i];
                e.rows += 1;
                if self.has_payload {
                    if let Some(v) = payload.and_then(Value::as_f64) {
                        e.sum += v;
                        e.numeric_rows += 1;
                    }
                } else {
                    e.numeric_rows += 1;
                }
            }
            Err(i) => {
                if self.truncated && u >= self.horizon {
                    // A key at or beyond the horizon may have been seen
                    // (and discarded) before; re-admitting it with a
                    // fresh payload fold would be silently wrong.
                    return;
                }
                let (sum, n) = match (self.has_payload, payload.and_then(Value::as_f64)) {
                    (true, Some(v)) => (v, 1),
                    (true, None) => (0.0, 0),
                    (false, _) => (0.0, 1),
                };
                self.entries.insert(
                    i,
                    Tracked {
                        u,
                        key: key.clone(),
                        sum,
                        numeric_rows: n,
                        rows: 1,
                    },
                );
                if self.entries.len() > self.k + self.slack {
                    #[expect(
                        clippy::expect_used,
                        reason = "len > k + slack ≥ 1, so pop returns an entry"
                    )]
                    let popped = self.entries.pop().expect("len checked above");
                    self.truncated = true;
                    self.horizon = self.horizon.min(popped.u);
                }
            }
        }
    }

    /// Absorb one deleted row of `key`. Adds one unit of deletion debt;
    /// the key's multiplicity drops (the entry vanishes at zero) but a
    /// partially-deleted key's payload mean goes stale until the next
    /// rebuild.
    pub fn delete_row(&mut self, key: &Value) {
        if key.is_null() {
            return;
        }
        rdi_obs::counter("sketch.incremental_updates").inc();
        self.debt += 1;
        let u = to_unit(hash_value(key, KEY_SEED));
        if let Ok(i) = self
            .entries
            .binary_search_by(|e| entry_order(e.u, &e.key, u, key))
        {
            let e = &mut self.entries[i];
            e.rows = e.rows.saturating_sub(1);
            if e.rows == 0 {
                self.entries.remove(i);
            }
        }
    }

    /// Entries that a cold build would expose (keys with at least one
    /// numeric payload row when a payload column is profiled).
    fn exposable(&self) -> impl Iterator<Item = &Tracked> {
        let has_payload = self.has_payload;
        self.entries
            .iter()
            .filter(move |e| !has_payload || e.numeric_rows > 0)
    }

    /// Accumulated deletion debt since the last (re)build.
    pub fn debt(&self) -> u64 {
        self.debt
    }

    /// True when the sketch can no longer vouch for exactness-on-append
    /// or bounded staleness: deletion debt crossed the threshold, or
    /// deletions consumed the slack of a truncated sketch.
    pub fn needs_rebuild(&self) -> bool {
        self.debt > self.debt_threshold || (self.truncated && self.exposable().count() < self.k)
    }

    /// Rebuild from the current table, resetting debt. The one O(table)
    /// maintenance step — counted under `sketch.rebuilds`.
    pub fn rebuild(
        &mut self,
        table: &Table,
        key: &str,
        payload: Option<&str>,
    ) -> rdi_table::Result<()> {
        *self = UpdatableKmv::build(table, key, payload, self.k, self.slack, self.debt_threshold)?;
        rdi_obs::counter("sketch.rebuilds").inc();
        Ok(())
    }

    /// The exposed k-minimum-values sketch (top `k` of the retained
    /// entries; per-key payload mean).
    pub fn sketch(&self) -> KmvSketch {
        let entries: Vec<(f64, Value, f64)> = self
            .exposable()
            .take(self.k)
            .map(|e| (e.u, e.key.clone(), e.sum / e.numeric_rows as f64))
            .collect();
        KmvSketch { k: self.k, entries }
    }

    /// The exposed sketch wrapped as a [`CorrelationSketch`].
    pub fn correlation_sketch(&self) -> CorrelationSketch {
        CorrelationSketch {
            sketch: self.sketch(),
        }
    }
}

/// A correlation sketch: a KMV sketch whose payload is the numeric feature
/// to correlate, plus the estimation entry points.
#[derive(Debug, Clone)]
pub struct CorrelationSketch {
    sketch: KmvSketch,
}

impl CorrelationSketch {
    /// Build over `(key, feature)` of a table.
    pub fn build(table: &Table, key: &str, feature: &str, k: usize) -> rdi_table::Result<Self> {
        Ok(CorrelationSketch {
            sketch: KmvSketch::build(table, key, Some(feature), k)?,
        })
    }

    /// The underlying KMV sketch.
    pub fn kmv(&self) -> &KmvSketch {
        &self.sketch
    }

    /// Estimated Pearson correlation between this sketch's feature and
    /// `other`'s feature over the (sampled) join keys; `None` when fewer
    /// than 3 sampled keys coincide.
    pub fn correlation(&self, other: &CorrelationSketch) -> Option<f64> {
        let pairs = self.sketch.intersect(&other.sketch);
        if pairs.len() < 3 {
            return None;
        }
        let xs: Vec<f64> = pairs.iter().map(|(_, x, _)| *x).collect();
        let ys: Vec<f64> = pairs.iter().map(|(_, _, y)| *y).collect();
        Some(rdi_fairness::pearson(&xs, &ys))
    }

    /// Estimated join size |keys(self) ∩ keys(other)| via the coordinated
    /// sample: overlap fraction × distinct estimate.
    ///
    /// The overlap fraction is taken over the entries inside the *joint
    /// bound region* (hash ≤ min of the two k-th minimums) — the same
    /// region [`KmvSketch::intersect`] samples from. Dividing by the
    /// total sketch lengths instead would shrink the fraction whenever
    /// the two sketches' k-th minimum hashes differ (e.g. different key
    /// cardinalities), underestimating the join size.
    pub fn join_key_estimate(&self, other: &CorrelationSketch) -> f64 {
        let a = &self.sketch;
        let b = &other.sketch;
        let bound = match (a.entries.last(), b.entries.last()) {
            (Some(x), Some(y)) => x.0.min(y.0),
            _ => return 0.0,
        };
        let in_bound = |s: &KmvSketch| s.entries.iter().filter(|(u, _, _)| *u <= bound).count();
        let denom = in_bound(a).min(in_bound(b)) as f64;
        if denom == 0.0 {
            return 0.0;
        }
        let pairs = a.intersect(b).len() as f64;
        (pairs / denom) * a.distinct_estimate().min(b.distinct_estimate())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdi_table::{DataType, Field, Schema};

    fn keyed_table(n: usize, f: impl Fn(usize) -> f64) -> Table {
        let schema = Schema::new(vec![
            Field::new("key", DataType::Str),
            Field::new("x", DataType::Float),
        ]);
        let mut t = Table::new(schema);
        for i in 0..n {
            t.push_row(vec![Value::str(format!("k{i}")), Value::Float(f(i))])
                .unwrap();
        }
        t
    }

    #[test]
    fn distinct_estimate_accuracy() {
        let t = keyed_table(10_000, |i| i as f64);
        let s = KmvSketch::build(&t, "key", None, 256).unwrap();
        let est = s.distinct_estimate();
        assert!((est - 10_000.0).abs() / 10_000.0 < 0.15, "est={est}");
    }

    #[test]
    fn small_sets_are_exact() {
        let t = keyed_table(10, |i| i as f64);
        let s = KmvSketch::build(&t, "key", None, 256).unwrap();
        assert_eq!(s.distinct_estimate(), 10.0);
    }

    #[test]
    fn coordinated_sketches_share_keys() {
        let a = keyed_table(5_000, |i| i as f64);
        let b = keyed_table(5_000, |i| (i * 2) as f64);
        let sa = KmvSketch::build(&a, "key", Some("x"), 128).unwrap();
        let sb = KmvSketch::build(&b, "key", Some("x"), 128).unwrap();
        let inter = sa.intersect(&sb);
        // identical key sets → intersection is (almost) the whole joint region
        assert!(inter.len() > 100, "len={}", inter.len());
        // payloads line up: y = 2x
        for (_, x, y) in inter {
            assert_eq!(y, 2.0 * x);
        }
    }

    #[test]
    fn correlation_estimate_positive_and_negative() {
        let n = 20_000;
        let a = keyed_table(n, |i| i as f64);
        let pos = keyed_table(n, |i| i as f64 * 3.0 + 1.0);
        let neg = keyed_table(n, |i| -(i as f64));
        let sa = CorrelationSketch::build(&a, "key", "x", 256).unwrap();
        let sp = CorrelationSketch::build(&pos, "key", "x", 256).unwrap();
        let sn = CorrelationSketch::build(&neg, "key", "x", 256).unwrap();
        assert!((sa.correlation(&sp).unwrap() - 1.0).abs() < 0.02);
        assert!((sa.correlation(&sn).unwrap() + 1.0).abs() < 0.02);
    }

    #[test]
    fn disjoint_keys_give_none() {
        let a = keyed_table(100, |i| i as f64);
        let schema = Schema::new(vec![
            Field::new("key", DataType::Str),
            Field::new("x", DataType::Float),
        ]);
        let mut b = Table::new(schema);
        for i in 0..100 {
            b.push_row(vec![Value::str(format!("z{i}")), Value::Float(0.0)])
                .unwrap();
        }
        let sa = CorrelationSketch::build(&a, "key", "x", 64).unwrap();
        let sb = CorrelationSketch::build(&b, "key", "x", 64).unwrap();
        assert!(sa.correlation(&sb).is_none());
    }

    #[test]
    fn null_payloads_are_excluded_from_the_mean() {
        // regression: nulls used to fold into the mean as 0.0, biasing
        // sparse payload columns toward zero (10.0 + null → mean 5.0)
        let schema = Schema::new(vec![
            Field::new("key", DataType::Str),
            Field::new("x", DataType::Float),
        ]);
        let mut t = Table::new(schema);
        t.push_row(vec![Value::str("k"), Value::Float(10.0)])
            .unwrap();
        t.push_row(vec![Value::str("k"), Value::Null]).unwrap();
        t.push_row(vec![Value::str("k"), Value::Float(30.0)])
            .unwrap();
        t.push_row(vec![Value::str("k"), Value::Null]).unwrap();
        let s = KmvSketch::build(&t, "key", Some("x"), 8).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.entries[0].2, 20.0, "mean over numeric rows only");
    }

    #[test]
    fn keys_without_numeric_payload_drop_only_when_payload_requested() {
        let schema = Schema::new(vec![
            Field::new("key", DataType::Str),
            Field::new("x", DataType::Str),
        ]);
        let mut t = Table::new(schema);
        // neither key ever has a numeric payload (null / string)
        t.push_row(vec![Value::str("only_null"), Value::Null])
            .unwrap();
        t.push_row(vec![Value::str("text"), Value::str("n/a")])
            .unwrap();
        // with a payload column requested, neither key has a numeric
        // payload → both are dropped
        let with_payload = KmvSketch::build(&t, "key", Some("x"), 8).unwrap();
        assert!(with_payload.is_empty());
        // without a payload column, both keys are retained
        let keys_only = KmvSketch::build(&t, "key", None, 8).unwrap();
        assert_eq!(keys_only.len(), 2);
    }

    #[test]
    fn join_estimate_unbiased_when_kth_minimums_differ() {
        // A's keys ⊂ B's keys but |B| = 10 × |A|, so the two sketches'
        // k-th minimum hashes differ by ~10×. The joint bound region
        // holds only ~k/10 of each sketch's entries; dividing the
        // intersection size by the full sketch lengths (the old
        // formula) underestimated the join size ~10×.
        let a = keyed_table(1_000, |i| i as f64);
        let b = keyed_table(10_000, |i| i as f64);
        let sa = CorrelationSketch::build(&a, "key", "x", 256).unwrap();
        let sb = CorrelationSketch::build(&b, "key", "x", 256).unwrap();
        let truth = 1_000.0; // |keys(A) ∩ keys(B)|
        let est = sa.join_key_estimate(&sb);
        assert!(
            (est - truth).abs() / truth < 0.25,
            "est={est} truth={truth}"
        );
        // the old denominator put the estimate near truth/10; make the
        // bias regression explicit
        assert!(est > 0.5 * truth, "old formula gave ~{:.0}", truth / 10.0);
        // symmetric call agrees
        let est_rev = sb.join_key_estimate(&sa);
        assert!((est_rev - truth).abs() / truth < 0.25, "est_rev={est_rev}");
    }

    #[test]
    fn join_estimate_with_differing_sketch_sizes() {
        // different k on the two sides (64 vs 256) — entry counts and
        // bound regions differ; the estimator must still track truth
        let a = keyed_table(5_000, |i| i as f64);
        let b = keyed_table(5_000, |i| i as f64);
        let sa = CorrelationSketch::build(&a, "key", "x", 64).unwrap();
        let sb = CorrelationSketch::build(&b, "key", "x", 256).unwrap();
        let est = sa.join_key_estimate(&sb);
        assert!(
            (est - 5_000.0).abs() / 5_000.0 < 0.3,
            "est={est} truth=5000"
        );
    }

    /// Bitwise comparison of two sketches (f64s compared by bits, not
    /// tolerance — the incremental path must be *identical*, not close).
    fn assert_bitwise_eq(a: &KmvSketch, b: &KmvSketch) {
        assert_eq!(a.k, b.k);
        assert_eq!(a.entries.len(), b.entries.len());
        for (x, y) in a.entries.iter().zip(&b.entries) {
            assert_eq!(x.0.to_bits(), y.0.to_bits(), "hash differs");
            assert_eq!(x.1, y.1, "key differs");
            assert_eq!(x.2.to_bits(), y.2.to_bits(), "payload differs");
        }
    }

    #[test]
    fn updatable_kmv_appends_match_cold_build_bitwise() {
        // repeating keys → per-key payload folds span multiple rows, so
        // any deviation from row-order accumulation breaks bit equality
        let full = {
            let schema = Schema::new(vec![
                Field::new("key", DataType::Str),
                Field::new("x", DataType::Float),
            ]);
            let mut t = Table::new(schema);
            for i in 0..90 {
                t.push_row(vec![
                    Value::str(format!("k{}", i % 37)),
                    Value::Float(0.1 * i as f64 + 0.37),
                ])
                .unwrap();
            }
            t
        };
        let seed = full.take(&(0..40).collect::<Vec<_>>());
        let mut upd = UpdatableKmv::build(&seed, "key", Some("x"), 16, 8, 64).unwrap();
        let before = rdi_obs::counter("sketch.incremental_updates").get();
        for i in 40..90 {
            let row = full.row(i).unwrap();
            upd.append_row(&row[0], Some(&row[1]));
        }
        assert_eq!(
            rdi_obs::counter("sketch.incremental_updates").get() - before,
            50,
            "one counted update per appended row"
        );
        let cold = KmvSketch::build(&full, "key", Some("x"), 16).unwrap();
        assert_bitwise_eq(&upd.sketch(), &cold);
        // keys-only variant (no payload column)
        let mut upd2 = UpdatableKmv::build(&seed, "key", None, 16, 8, 64).unwrap();
        for i in 40..90 {
            let row = full.row(i).unwrap();
            upd2.append_row(&row[0], None);
        }
        assert_bitwise_eq(
            &upd2.sketch(),
            &KmvSketch::build(&full, "key", None, 16).unwrap(),
        );
        // the correlation wrapper rides the same path
        let corr_cold = CorrelationSketch::build(&full, "key", "x", 16).unwrap();
        assert_bitwise_eq(&upd.correlation_sketch().sketch, &corr_cold.sketch);
    }

    #[test]
    fn updatable_kmv_deletions_accrue_debt_and_rebuild_restores_exactness() {
        let mut live = keyed_table(200, |i| i as f64);
        let mut upd = UpdatableKmv::build(&live, "key", Some("x"), 32, 16, 8).unwrap();
        assert_eq!(upd.debt(), 0);
        assert!(!upd.needs_rebuild());
        // delete 8 rows (≤ threshold): debt accrues, no rebuild demanded
        for i in 0..8 {
            let row = live.row(i).unwrap();
            upd.delete_row(&row[0]);
        }
        live.delete_rows(&(0..8).collect::<Vec<_>>()).unwrap();
        assert_eq!(upd.debt(), 8);
        assert!(!upd.needs_rebuild(), "debt == threshold is still fine");
        // one more crosses the threshold
        let row = live.row(0).unwrap();
        upd.delete_row(&row[0]);
        live.delete_rows(&[0]).unwrap();
        assert!(upd.needs_rebuild());
        let rebuilds = rdi_obs::counter("sketch.rebuilds").get();
        upd.rebuild(&live, "key", Some("x")).unwrap();
        assert_eq!(rdi_obs::counter("sketch.rebuilds").get(), rebuilds + 1);
        assert_eq!(upd.debt(), 0);
        assert!(!upd.needs_rebuild());
        assert_bitwise_eq(
            &upd.sketch(),
            &KmvSketch::build(&live, "key", Some("x"), 32).unwrap(),
        );
    }

    #[test]
    fn updatable_kmv_fully_deleted_keys_vanish_exactly() {
        // deleting *all* rows of a key removes it from the sketch — the
        // exposed entries match a cold build even before any rebuild
        let t = keyed_table(30, |i| i as f64);
        let mut upd = UpdatableKmv::build(&t, "key", Some("x"), 64, 8, 100).unwrap();
        let mut live = t.clone();
        // remove keys k0..k9 entirely (one row each in keyed_table)
        for i in 0..10 {
            let row = live.row(0).unwrap();
            upd.delete_row(&row[0]);
            live.delete_rows(&[0]).unwrap();
            let _ = i;
        }
        assert_eq!(upd.debt(), 10);
        assert_bitwise_eq(
            &upd.sketch(),
            &KmvSketch::build(&live, "key", Some("x"), 64).unwrap(),
        );
    }

    #[test]
    fn updatable_kmv_truncation_keeps_topk_exact_and_guards_the_horizon() {
        // many more keys than k + slack → the internal store truncates;
        // the exposed top-k must still match a cold build under appends
        let full = keyed_table(2_000, |i| i as f64);
        let seed = full.take(&(0..1_200).collect::<Vec<_>>());
        let mut upd = UpdatableKmv::build(&seed, "key", Some("x"), 64, 16, 50).unwrap();
        for i in 1_200..2_000 {
            let row = full.row(i).unwrap();
            upd.append_row(&row[0], Some(&row[1]));
        }
        assert_bitwise_eq(
            &upd.sketch(),
            &KmvSketch::build(&full, "key", Some("x"), 64).unwrap(),
        );
        // deleting retained keys eats the slack; once fewer than k
        // exposable entries remain, the sketch demands a rebuild rather
        // than serving a silently-short top-k
        let retained: Vec<Value> = upd.entries.iter().map(|e| e.key.clone()).collect();
        for key in &retained {
            upd.delete_row(key);
        }
        assert!(upd.needs_rebuild(), "slack exhausted on a truncated sketch");
    }

    #[test]
    fn repeated_keys_aggregate_payload() {
        let schema = Schema::new(vec![
            Field::new("key", DataType::Str),
            Field::new("x", DataType::Float),
        ]);
        let mut t = Table::new(schema);
        for v in [1.0, 3.0] {
            t.push_row(vec![Value::str("same"), Value::Float(v)])
                .unwrap();
        }
        let s = KmvSketch::build(&t, "key", Some("x"), 8).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.entries[0].2, 2.0); // mean of 1 and 3
    }
}
