//! Table union search (Nargesian, Zhu, Pu, Miller; VLDB 2018 — simplified).
//!
//! Two tables are *unionable* when their columns can be matched so that
//! matched columns draw from the same value domain. We score attribute
//! unionability by (MinHash-estimated) Jaccard of value sets, build the
//! best greedy column matching, and define table unionability as the mean
//! matched-column score over the query's columns.

use std::sync::Arc;

use rdi_obs::ProvenanceEvent;
use rdi_par::{par_map, par_reduce, Threads};
use rdi_policy::{Candidate, PolicyId, PolicyParams, RankByScore, Score};
use rdi_table::Table;

use crate::metrics;
use crate::minhash::MinHash;

/// Rank the best `k` of scored `(name, score)` candidates through the
/// workspace policy engine ([`RankByScore::choose_top`], which sorts
/// only those `k`), returning the ranking plus the
/// `PolicyDecision` audit event (already counted, built *before* the
/// ranking is returned to the caller).
///
/// Under the default params this is bitwise-identical to the historic
/// inline sort — score descending, name ascending — because
/// [`RankByScore`]'s default tie-break chain is exactly that rule.
/// `rdi-serve`'s execute phase reuses this for warm-path rankings so
/// the cold and warm paths share one decision site per [`PolicyId`].
/// Each name moves into its candidate: the warm path passes the shared
/// `Arc<str>` ids it holds, the cold path its owned `String` names, and
/// only the `k` ranked names are shared back out.
pub fn rank_scored<N: Into<Arc<str>>>(
    id: PolicyId,
    scored: impl IntoIterator<Item = (N, f64)>,
    k: usize,
    params: &PolicyParams,
) -> (Vec<(Arc<str>, f64)>, ProvenanceEvent) {
    let (candidates, scores): (Vec<Candidate>, Vec<f64>) = scored
        .into_iter()
        .map(|(name, s)| (Candidate::new(name, Score::F64(s)), s))
        .unzip();
    let (event, ranking) = RankByScore::new(id)
        .choose_top(&candidates, params, k)
        .record();
    let ranked = ranking
        .iter()
        .map(|&i| (Arc::clone(&candidates[i].key), scores[i]))
        .collect();
    (ranked, event)
}

/// Signature set for one table: one MinHash per column.
#[derive(Debug, Clone)]
pub struct TableSignature {
    /// Table name.
    pub name: String,
    /// (column name, signature) pairs.
    pub columns: Vec<(String, MinHash)>,
}

impl TableSignature {
    /// Sketch every column of a table, using [`Threads::auto`] workers.
    pub fn build(name: impl Into<String>, table: &Table, k: usize) -> rdi_table::Result<Self> {
        TableSignature::build_with(name, table, k, Threads::auto())
    }

    /// Sketch every column of a table on an explicit thread
    /// configuration. Columns are sketched independently and collected
    /// in schema order, so the result is identical for any thread
    /// count.
    pub fn build_with(
        name: impl Into<String>,
        table: &Table,
        k: usize,
        threads: Threads,
    ) -> rdi_table::Result<Self> {
        let fields = table.schema().fields();
        let columns = par_map(threads.min_len(2), fields, |f| {
            MinHash::from_column(table, &f.name, k).map(|m| (f.name.clone(), m))
        })
        .into_iter()
        .collect::<rdi_table::Result<Vec<_>>>()?;
        // one increment per call, sized by the work — schedule-independent
        metrics::SKETCHES_BUILT.add(columns.len() as u64);
        Ok(TableSignature {
            name: name.into(),
            columns,
        })
    }
}

/// Reusable buffers for greedy column matching: the one matching
/// implementation behind [`column_matching_indices`],
/// [`column_matching`] and [`table_unionability`]. A scoring loop that
/// keeps one across its candidates allocates only while a candidate is
/// wider than every one before it.
#[derive(Debug, Default)]
pub struct ColumnMatcher {
    /// Every same-`k` column pair and its Jaccard estimate.
    pairs: Vec<(usize, usize, f64)>,
    used_q: Vec<bool>,
    used_x: Vec<bool>,
    /// The last matching, best first.
    matched: Vec<(usize, usize, f64)>,
}

impl ColumnMatcher {
    /// An empty matcher; its buffers grow on first use.
    pub fn new() -> Self {
        ColumnMatcher::default()
    }

    /// Greedy best column matching between two signatures, as
    /// `(query column index, candidate column index, score)` triples:
    /// each column used at most once, highest scores first, only
    /// positive scores, and only pairs whose signatures share `k`.
    pub(crate) fn matching(
        &mut self,
        q: &TableSignature,
        x: &TableSignature,
    ) -> &[(usize, usize, f64)] {
        self.pairs.clear();
        for (i, (_, qs)) in q.columns.iter().enumerate() {
            for (j, (_, xs)) in x.columns.iter().enumerate() {
                if qs.k() == xs.k() {
                    self.pairs.push((i, j, qs.jaccard(xs)));
                }
            }
        }
        // `(i, j)` is unique per pair, so the order is total and an
        // unstable sort gives the stable one's result without its buffer
        self.pairs
            .sort_unstable_by(|a, b| b.2.total_cmp(&a.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
        self.used_q.clear();
        self.used_q.resize(q.columns.len(), false);
        self.used_x.clear();
        self.used_x.resize(x.columns.len(), false);
        self.matched.clear();
        for &(i, j, s) in &self.pairs {
            if !self.used_q[i] && !self.used_x[j] && s > 0.0 {
                self.used_q[i] = true;
                self.used_x[j] = true;
                self.matched.push((i, j, s));
            }
        }
        &self.matched
    }

    /// Table unionability: the mean matched score over the query's
    /// columns (unmatched query columns contribute 0; a query without
    /// columns scores 0). The matched scores are summed best first, as
    /// `Iterator::sum` sums them, so an empty matching sums to `-0.0`
    /// and the mean keeps that sign.
    pub fn unionability(&mut self, q: &TableSignature, x: &TableSignature) -> f64 {
        if q.columns.is_empty() {
            return 0.0;
        }
        let total: f64 = self.matching(q, x).iter().map(|&(_, _, s)| s).sum();
        total / q.columns.len() as f64
    }
}

/// Greedy best column matching between two signatures, as
/// `(query column index, candidate column index, score)` triples: each
/// column used at most once, highest scores first, only positive
/// scores, and only pairs whose signatures share `k`. No column names
/// are cloned, so scoring loops can run over indices alone.
pub fn column_matching_indices(q: &TableSignature, x: &TableSignature) -> Vec<(usize, usize, f64)> {
    ColumnMatcher::new().matching(q, x).to_vec()
}

/// Greedy best column matching between two signatures; returns
/// `(query column, candidate column, score)` triples (each column used at
/// most once, highest scores first).
pub fn column_matching(q: &TableSignature, x: &TableSignature) -> Vec<(String, String, f64)> {
    ColumnMatcher::new()
        .matching(q, x)
        .iter()
        .map(|&(i, j, s)| (q.columns[i].0.clone(), x.columns[j].0.clone(), s))
        .collect()
}

/// Table unionability: mean matched score over the query's columns
/// (unmatched query columns contribute 0). A one-off call; a loop over
/// many candidates keeps one [`ColumnMatcher`] and calls
/// [`ColumnMatcher::unionability`], which returns the same bits.
pub fn table_unionability(q: &TableSignature, x: &TableSignature) -> f64 {
    ColumnMatcher::new().unionability(q, x)
}

/// A ranked union-search index over table signatures.
#[derive(Debug, Default)]
pub struct UnionSearchIndex {
    tables: Vec<TableSignature>,
}

impl UnionSearchIndex {
    /// Create an empty index.
    pub fn new() -> Self {
        UnionSearchIndex::default()
    }

    /// Register a table signature.
    pub fn insert(&mut self, sig: TableSignature) {
        self.tables.push(sig);
    }

    /// Number of registered tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True iff the index is empty.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Top-k unionable tables for a query, as `(name, score)` descending.
    pub fn top_k(&self, query: &TableSignature, k: usize) -> Vec<(String, f64)> {
        self.top_k_with(query, k, Threads::auto())
    }

    /// [`UnionSearchIndex::top_k`] on an explicit thread
    /// configuration. Candidates are scored independently and the final
    /// ranking is chosen by the `discovery.union_rank` policy (default
    /// params: score desc, name asc), so the result is identical for
    /// any thread count.
    pub fn top_k_with(
        &self,
        query: &TableSignature,
        k: usize,
        threads: Threads,
    ) -> Vec<(String, f64)> {
        self.top_k_explained(query, k, threads, &PolicyParams::new())
            .0
    }

    /// [`UnionSearchIndex::top_k_with`] plus the `PolicyDecision` audit
    /// event explaining the ranking. Callers with a provenance stream
    /// (e.g. `rdi-serve` sessions) attach the event; one-shot callers
    /// may drop it — the `policy.*` counters are recorded either way.
    ///
    /// Each chunk of candidates is scored through one [`ColumnMatcher`]
    /// whose buffers its candidates reuse; chunks are concatenated in
    /// order, so the scores are those of [`table_unionability`] in
    /// candidate order for any thread count.
    pub fn top_k_explained(
        &self,
        query: &TableSignature,
        k: usize,
        threads: Threads,
        params: &PolicyParams,
    ) -> (Vec<(String, f64)>, ProvenanceEvent) {
        metrics::CANDIDATES_SCORED.add(self.tables.len() as u64);
        let (_, scored) = par_reduce(
            threads.min_len(4),
            &self.tables,
            || (ColumnMatcher::new(), Vec::new()),
            |(mut matcher, mut scored), t| {
                scored.push((t.name.clone(), matcher.unionability(query, t)));
                (matcher, scored)
            },
            |(matcher, mut left), (_, mut right)| {
                left.append(&mut right);
                (matcher, left)
            },
        );
        let (ranked, event) = rank_scored(PolicyId::UNION_RANK, scored, k, params);
        let ranked = ranked
            .into_iter()
            .map(|(name, score)| (name.to_string(), score))
            .collect();
        (ranked, event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rdi_table::{DataType, Field, Schema, Value};

    fn table(cols: &[(&str, &[&str])]) -> Table {
        let schema = Schema::new(
            cols.iter()
                .map(|(n, _)| Field::new(*n, DataType::Str))
                .collect(),
        );
        let n = cols[0].1.len();
        let mut t = Table::new(schema);
        for i in 0..n {
            t.push_row(cols.iter().map(|(_, vs)| Value::str(vs[i])).collect())
                .unwrap();
        }
        t
    }

    fn cities() -> Table {
        table(&[
            ("city", &["chicago", "detroit", "nyc", "boston"]),
            ("state", &["il", "mi", "ny", "ma"]),
        ])
    }

    #[test]
    fn identical_tables_score_one() {
        let q = TableSignature::build("q", &cities(), 64).unwrap();
        let x = TableSignature::build("x", &cities(), 64).unwrap();
        assert!((table_unionability(&q, &x) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn matching_pairs_same_domain_columns() {
        let q = TableSignature::build("q", &cities(), 64).unwrap();
        // same domains, different column order and names
        let other = table(&[
            ("st", &["il", "mi", "ny", "ma"]),
            ("town", &["chicago", "detroit", "nyc", "boston"]),
        ]);
        let x = TableSignature::build("x", &other, 64).unwrap();
        let m = column_matching(&q, &x);
        assert_eq!(m.len(), 2);
        let city_match = m.iter().find(|(a, _, _)| a == "city").unwrap();
        assert_eq!(city_match.1, "town");
    }

    #[test]
    fn unrelated_tables_score_near_zero() {
        let q = TableSignature::build("q", &cities(), 128).unwrap();
        let other = table(&[
            ("gene", &["brca1", "tp53", "egfr", "kras"]),
            ("chrom", &["17", "17b", "7", "12"]),
        ]);
        let x = TableSignature::build("x", &other, 128).unwrap();
        assert!(table_unionability(&q, &x) < 0.05);
    }

    /// The greedy matching as it was written before it ran in reused
    /// buffers: fresh vectors per call and a stable sort. Kept as the
    /// model for [`ColumnMatcher`].
    fn reference_matching(q: &TableSignature, x: &TableSignature) -> Vec<(usize, usize, f64)> {
        let mut pairs: Vec<(usize, usize, f64)> = Vec::new();
        for (i, (_, qs)) in q.columns.iter().enumerate() {
            for (j, (_, xs)) in x.columns.iter().enumerate() {
                if qs.k() == xs.k() {
                    pairs.push((i, j, qs.jaccard(xs)));
                }
            }
        }
        pairs.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
        let mut used_q = vec![false; q.columns.len()];
        let mut used_x = vec![false; x.columns.len()];
        let mut out = Vec::new();
        for (i, j, s) in pairs {
            if !used_q[i] && !used_x[j] && s > 0.0 {
                used_q[i] = true;
                used_x[j] = true;
                out.push((i, j, s));
            }
        }
        out
    }

    /// A signature of one column per `(k choice, value base, length)`:
    /// the column holds the integers `offset + 10·base ..` of that
    /// (non-zero) length, sketched at `k` = 8 or 16, so columns overlap,
    /// repeat and differ in `k`.
    fn signature(name: &str, columns: &[(usize, i64, i64)], offset: i64) -> TableSignature {
        TableSignature {
            name: name.into(),
            columns: columns
                .iter()
                .enumerate()
                .map(|(c, &(k, base, len))| {
                    let start = offset + 10 * base;
                    let values = (start..start + len).map(Value::Int);
                    (format!("c{c}"), MinHash::from_values(values, [8, 16][k]))
                })
                .collect(),
        }
    }

    fn columns() -> impl Strategy<Value = Vec<(usize, i64, i64)>> {
        proptest::collection::vec((0usize..2, 0i64..4, 1i64..20), 0..=12)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// One matcher, reused across three candidates of 0 to 12
        /// columns and mixed `k`, scores each to the bit of the
        /// reference matching's `Iterator::sum` over the query's
        /// columns, and `column_matching_indices` returns the reference
        /// matching. With `disjoint` the candidates share no value with
        /// the query, every score is 0, and an empty matching's `-0.0`
        /// sum must survive.
        #[test]
        fn matcher_scores_match_the_reference_to_the_bit(
            query in columns(),
            candidates in proptest::collection::vec(columns(), 3),
            disjoint in any::<bool>(),
        ) {
            let q = signature("q", &query, 0);
            let offset = if disjoint { 1_000_000 } else { 0 };
            let mut matcher = ColumnMatcher::new();
            for (n, spec) in candidates.iter().enumerate() {
                let x = signature(&format!("x{n}"), spec, offset);
                let reference = reference_matching(&q, &x);
                prop_assert_eq!(column_matching_indices(&q, &x), reference.clone());
                let expected = if q.columns.is_empty() {
                    0.0
                } else {
                    reference.iter().map(|&(_, _, s)| s).sum::<f64>() / q.columns.len() as f64
                };
                prop_assert_eq!(matcher.unionability(&q, &x).to_bits(), expected.to_bits());
                prop_assert_eq!(table_unionability(&q, &x).to_bits(), expected.to_bits());
                if disjoint && !q.columns.is_empty() {
                    prop_assert!(reference.is_empty());
                    prop_assert_eq!(expected.to_bits(), (-0.0f64).to_bits());
                }
            }
        }
    }

    #[test]
    fn index_ranks_by_unionability() {
        let mut idx = UnionSearchIndex::new();
        idx.insert(TableSignature::build("twin", &cities(), 64).unwrap());
        let partial = table(&[
            ("city", &["chicago", "detroit", "nyc", "boston"]),
            ("mayor", &["a", "b", "c", "d"]),
        ]);
        idx.insert(TableSignature::build("partial", &partial, 64).unwrap());
        let unrelated = table(&[("gene", &["brca1", "tp53", "egfr", "kras"])]);
        idx.insert(TableSignature::build("unrelated", &unrelated, 64).unwrap());

        let q = TableSignature::build("q", &cities(), 64).unwrap();
        let top = idx.top_k(&q, 3);
        assert_eq!(top[0].0, "twin");
        assert_eq!(top[1].0, "partial");
        assert!(top[0].1 > top[1].1 && top[1].1 > top[2].1);
    }
}
