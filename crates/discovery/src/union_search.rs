//! Table union search (Nargesian, Zhu, Pu, Miller; VLDB 2018 — simplified).
//!
//! Two tables are *unionable* when their columns can be matched so that
//! matched columns draw from the same value domain. We score attribute
//! unionability by (MinHash-estimated) Jaccard of value sets, build the
//! best greedy column matching, and define table unionability as the mean
//! matched-column score over the query's columns.

use std::sync::Arc;

use rdi_obs::ProvenanceEvent;
use rdi_par::{par_map, Threads};
use rdi_policy::{Candidate, PolicyId, PolicyParams, RankByScore, Score, SelectionPolicy};
use rdi_table::Table;

use crate::minhash::MinHash;

/// Rank scored `(name, score)` candidates through the workspace policy
/// engine and truncate to `k`, returning the ranking plus the
/// `PolicyDecision` audit event (already counted, built *before* the
/// ranking is returned to the caller).
///
/// Under the default params this is bitwise-identical to the historic
/// inline sort — score descending, name ascending — because
/// [`RankByScore`]'s default tie-break chain is exactly that rule.
/// `rdi-serve`'s execute phase reuses this for warm-path rankings so
/// the cold and warm paths share one decision site per [`PolicyId`];
/// it ranks shared `Arc<str>` ids, which become candidate keys by a
/// refcount bump, where the cold path ranks owned `String` names.
pub fn rank_scored<N: Clone + Into<Arc<str>>>(
    id: PolicyId,
    scored: &[(N, f64)],
    k: usize,
    params: &PolicyParams,
) -> (Vec<(N, f64)>, ProvenanceEvent) {
    let candidates: Vec<Candidate> = scored
        .iter()
        .map(|(name, s)| Candidate::new(name.clone(), Score::F64(*s)))
        .collect();
    let (event, ranking) = RankByScore::new(id).choose(&candidates, params).record();
    let ranked = ranking.iter().take(k).map(|&i| scored[i].clone()).collect();
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
        rdi_obs::counter("discovery.sketches_built").add(columns.len() as u64);
        Ok(TableSignature {
            name: name.into(),
            columns,
        })
    }
}

/// Greedy best column matching between two signatures, as
/// `(query column index, candidate column index, score)` triples (each
/// column used at most once, highest scores first). This is the
/// allocation-free core of [`column_matching`]: no column names are
/// cloned, so scoring loops can run over indices alone.
pub fn column_matching_indices(q: &TableSignature, x: &TableSignature) -> Vec<(usize, usize, f64)> {
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

/// Greedy best column matching between two signatures; returns
/// `(query column, candidate column, score)` triples (each column used at
/// most once, highest scores first).
pub fn column_matching(q: &TableSignature, x: &TableSignature) -> Vec<(String, String, f64)> {
    column_matching_indices(q, x)
        .into_iter()
        .map(|(i, j, s)| (q.columns[i].0.clone(), x.columns[j].0.clone(), s))
        .collect()
}

/// Table unionability: mean matched score over the query's columns
/// (unmatched query columns contribute 0).
pub fn table_unionability(q: &TableSignature, x: &TableSignature) -> f64 {
    if q.columns.is_empty() {
        return 0.0;
    }
    let matched = column_matching_indices(q, x);
    matched.iter().map(|(_, _, s)| s).sum::<f64>() / q.columns.len() as f64
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
    pub fn top_k_explained(
        &self,
        query: &TableSignature,
        k: usize,
        threads: Threads,
        params: &PolicyParams,
    ) -> (Vec<(String, f64)>, ProvenanceEvent) {
        rdi_obs::counter("discovery.candidates_scored").add(self.tables.len() as u64);
        let scored: Vec<(String, f64)> = par_map(threads.min_len(4), &self.tables, |t| {
            (t.name.clone(), table_unionability(query, t))
        });
        rank_scored(PolicyId::UNION_RANK, &scored, k, params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
