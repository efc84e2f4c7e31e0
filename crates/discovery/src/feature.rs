//! Unbiased feature discovery (tutorial §2.3 + §5).
//!
//! Given a query table with a join key, a prediction target, and a
//! sensitive attribute, search a lake of candidate tables for joinable
//! feature columns that are **informative** (high |corr(feature, target)|)
//! yet **unbiased** (low |corr(feature, sensitive)|). Correlations are
//! estimated from coordinated [`CorrelationSketch`]es, so no candidate is
//! ever fully joined during search.

use rdi_par::{par_map, Threads};
use rdi_table::Table;
use serde::Serialize;

use crate::kmv::CorrelationSketch;

/// The discovery query.
#[derive(Debug)]
pub struct FeatureQuery<'a> {
    /// The query table.
    pub table: &'a Table,
    /// Join-key column.
    pub key: &'a str,
    /// Target (label) column — numeric or boolean.
    pub target: &'a str,
    /// Sensitive attribute column, numerically encoded (e.g. group index);
    /// correlation against it measures feature bias.
    pub sensitive: &'a str,
}

/// One scored candidate feature.
#[derive(Debug, Clone, Serialize)]
pub struct FeatureCandidate {
    /// Candidate table name.
    pub table: String,
    /// Feature column name.
    pub column: String,
    /// Estimated |corr(feature, target)| over the join.
    pub informativeness: f64,
    /// Estimated |corr(feature, sensitive)| over the join.
    pub bias: f64,
    /// Estimated number of joinable keys.
    pub join_keys: f64,
}

impl FeatureCandidate {
    /// The selection score: informativeness − λ·bias (λ=1 by default in
    /// [`discover_features`]).
    pub fn score(&self, lambda: f64) -> f64 {
        self.informativeness - lambda * self.bias
    }
}

/// Sketch the query and all candidates and return scored features, best
/// score first. `candidates` supplies `(table name, table, key column,
/// feature column)` tuples; `k` is the sketch size; `min_join_keys` prunes
/// candidates whose estimated join is too small for a stable estimate.
pub fn discover_features(
    query: &FeatureQuery<'_>,
    candidates: &[(&str, &Table, &str, &str)],
    k: usize,
    min_join_keys: f64,
    lambda: f64,
) -> rdi_table::Result<Vec<FeatureCandidate>> {
    discover_features_with(query, candidates, k, min_join_keys, lambda, Threads::auto())
}

/// [`discover_features`] on an explicit thread configuration. Every
/// candidate is sketched and scored independently; results are
/// collected in candidate order before the final rank sort, so the
/// output is identical for any thread count.
pub fn discover_features_with(
    query: &FeatureQuery<'_>,
    candidates: &[(&str, &Table, &str, &str)],
    k: usize,
    min_join_keys: f64,
    lambda: f64,
    threads: Threads,
) -> rdi_table::Result<Vec<FeatureCandidate>> {
    let target_sketch = CorrelationSketch::build(query.table, query.key, query.target, k)?;
    let sensitive_sketch = CorrelationSketch::build(query.table, query.key, query.sensitive, k)?;
    let scored = par_map(
        threads.min_len(2),
        candidates,
        |(name, table, key, feature)| -> rdi_table::Result<Option<FeatureCandidate>> {
            let fs = CorrelationSketch::build(table, key, feature, k)?;
            let join_keys = fs.join_key_estimate(&target_sketch);
            if join_keys < min_join_keys {
                return Ok(None);
            }
            let (Some(it), Some(bs)) = (
                fs.correlation(&target_sketch),
                fs.correlation(&sensitive_sketch),
            ) else {
                return Ok(None);
            };
            Ok(Some(FeatureCandidate {
                table: name.to_string(),
                column: feature.to_string(),
                informativeness: it.abs(),
                bias: bs.abs(),
                join_keys,
            }))
        },
    );
    let mut out = Vec::new();
    for c in scored {
        if let Some(c) = c? {
            out.push(c);
        }
    }
    out.sort_by(|a, b| {
        b.score(lambda)
            .total_cmp(&a.score(lambda))
            .then(a.table.cmp(&b.table))
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdi_table::{DataType, Field, Schema, Value};

    /// Query table: key, target t(i), sensitive s(i).
    fn query_table(n: usize) -> Table {
        let schema = Schema::new(vec![
            Field::new("key", DataType::Str),
            Field::new("y", DataType::Float),
            Field::new("s", DataType::Float),
        ]);
        let mut t = Table::new(schema);
        for i in 0..n {
            // target: alternating-ish signal; sensitive: block structure
            let y = ((i * 7919) % 1000) as f64 / 1000.0;
            let s = if i % 2 == 0 { 1.0 } else { 0.0 };
            t.push_row(vec![
                Value::str(format!("k{i}")),
                Value::Float(y),
                Value::Float(s),
            ])
            .unwrap();
        }
        t
    }

    fn cand(n: usize, f: impl Fn(usize) -> f64) -> Table {
        let schema = Schema::new(vec![
            Field::new("key", DataType::Str),
            Field::new("f", DataType::Float),
        ]);
        let mut t = Table::new(schema);
        for i in 0..n {
            t.push_row(vec![Value::str(format!("k{i}")), Value::Float(f(i))])
                .unwrap();
        }
        t
    }

    #[test]
    fn ranks_informative_unbiased_feature_first() {
        let n = 8_000;
        let q = query_table(n);
        let query = FeatureQuery {
            table: &q,
            key: "key",
            target: "y",
            sensitive: "s",
        };
        // good: tracks target, ignores sensitive
        let good = cand(n, |i| ((i * 7919) % 1000) as f64 / 1000.0 * 2.0 + 0.3);
        // biased: tracks the sensitive attribute exactly
        let biased = cand(n, |i| if i % 2 == 0 { 5.0 } else { -5.0 });
        // noise: unrelated to both
        let noise = cand(n, |i| ((i * 104729) % 997) as f64);
        let res = discover_features(
            &query,
            &[
                ("good", &good, "key", "f"),
                ("biased", &biased, "key", "f"),
                ("noise", &noise, "key", "f"),
            ],
            256,
            10.0,
            1.0,
        )
        .unwrap();
        assert_eq!(res[0].table, "good");
        assert!(res[0].informativeness > 0.9);
        assert!(res[0].bias < 0.2);
        let biased_entry = res.iter().find(|c| c.table == "biased").unwrap();
        assert!(biased_entry.bias > 0.8, "bias={}", biased_entry.bias);
    }

    #[test]
    fn unjoinable_candidates_are_pruned() {
        let q = query_table(2_000);
        let query = FeatureQuery {
            table: &q,
            key: "key",
            target: "y",
            sensitive: "s",
        };
        let schema = Schema::new(vec![
            Field::new("key", DataType::Str),
            Field::new("f", DataType::Float),
        ]);
        let mut alien = Table::new(schema);
        for i in 0..2_000 {
            alien
                .push_row(vec![Value::str(format!("z{i}")), Value::Float(i as f64)])
                .unwrap();
        }
        let res =
            discover_features(&query, &[("alien", &alien, "key", "f")], 128, 10.0, 1.0).unwrap();
        assert!(res.is_empty());
    }

    #[test]
    fn lambda_trades_bias_for_informativeness() {
        let c = FeatureCandidate {
            table: "t".into(),
            column: "c".into(),
            informativeness: 0.6,
            bias: 0.5,
            join_keys: 100.0,
        };
        assert!(c.score(0.0) > c.score(2.0));
        assert!((c.score(1.0) - 0.1).abs() < 1e-12);
    }
}
