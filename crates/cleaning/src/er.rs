//! Entity resolution with a per-group fairness audit.
//!
//! A standard blocking + similarity matcher over a name-like string
//! column, plus the audit the tutorial's §5 calls for: linkage quality
//! (precision/recall against ground truth) measured *per demographic
//! group*, since name-based matching is known to degrade for groups whose
//! names the similarity function handles poorly.

use std::collections::{BTreeMap, BTreeSet};

use rdi_table::{GroupSpec, Table};
use serde::Serialize;

/// Matcher configuration.
#[derive(Debug, Clone)]
pub struct ErConfig {
    /// Column holding the entity's string key (e.g. a name).
    pub name_column: String,
    /// Blocking prefix length (records sharing a prefix are compared).
    pub block_prefix: usize,
    /// Jaccard-of-bigrams threshold above which a pair matches.
    pub threshold: f64,
}

impl Default for ErConfig {
    fn default() -> Self {
        ErConfig {
            name_column: "name".into(),
            block_prefix: 2,
            threshold: 0.6,
        }
    }
}

/// Character-bigram Jaccard similarity of two strings.
pub fn bigram_jaccard(a: &str, b: &str) -> f64 {
    let grams = |s: &str| -> BTreeSet<(char, char)> {
        let cs: Vec<char> = s.chars().collect();
        cs.windows(2).map(|w| (w[0], w[1])).collect()
    };
    let ga = grams(a);
    let gb = grams(b);
    if ga.is_empty() && gb.is_empty() {
        return if a == b { 1.0 } else { 0.0 };
    }
    let inter = ga.intersection(&gb).count();
    let union = ga.len() + gb.len() - inter;
    if union == 0 {
        0.0
    } else {
        inter as f64 / union as f64
    }
}

/// Find matching row pairs `(i, j)` with `i < j` via prefix blocking +
/// bigram-Jaccard matching.
pub fn resolve_entities(
    table: &Table,
    config: &ErConfig,
) -> rdi_table::Result<Vec<(usize, usize)>> {
    let col = table.column(&config.name_column)?;
    let mut blocks: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    let mut names: Vec<Option<String>> = Vec::with_capacity(table.num_rows());
    for i in 0..table.num_rows() {
        let v = col.value(i);
        let name = v.as_str().map(|s| s.to_lowercase());
        if let Some(n) = &name {
            let prefix: String = n.chars().take(config.block_prefix).collect();
            blocks.entry(prefix).or_default().push(i);
        }
        names.push(name);
    }
    let mut pairs = Vec::new();
    // BTreeMap iteration is already in sorted key order.
    for ids in blocks.values() {
        for (a, &i) in ids.iter().enumerate() {
            for &j in &ids[a + 1..] {
                let (Some(ni), Some(nj)) = (&names[i], &names[j]) else {
                    continue;
                };
                if bigram_jaccard(ni, nj) >= config.threshold {
                    pairs.push((i, j));
                }
            }
        }
    }
    pairs.sort_unstable();
    Ok(pairs)
}

/// Group matched pairs into entity clusters (connected components via
/// union-find): rows in one cluster are believed to be the same
/// real-world entity. Singletons are included, so the clusters partition
/// `0..num_rows`.
pub fn cluster_entities(pairs: &[(usize, usize)], num_rows: usize) -> Vec<Vec<usize>> {
    let mut parent: Vec<usize> = (0..num_rows).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]]; // path halving
            x = parent[x];
        }
        x
    }
    for &(a, b) in pairs {
        assert!(a < num_rows && b < num_rows, "pair index out of range");
        let ra = find(&mut parent, a);
        let rb = find(&mut parent, b);
        if ra != rb {
            parent[ra.max(rb)] = ra.min(rb);
        }
    }
    let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for i in 0..num_rows {
        let r = find(&mut parent, i);
        groups.entry(r).or_default().push(i);
    }
    let mut out: Vec<Vec<usize>> = groups.into_values().collect();
    out.sort_by_key(|c| c[0]);
    out
}

/// Deduplicate: keep the first row of every entity cluster.
pub fn deduplicate(table: &Table, pairs: &[(usize, usize)]) -> Table {
    let clusters = cluster_entities(pairs, table.num_rows());
    let keep: Vec<usize> = clusters.iter().map(|c| c[0]).collect();
    table.take(&keep)
}

/// Per-group precision/recall of predicted match pairs against truth.
#[derive(Debug, Clone, Serialize)]
pub struct ErAudit {
    /// (group, precision, recall, true pair count), sorted by group.
    pub per_group: Vec<(String, f64, f64, usize)>,
    /// Overall precision.
    pub precision: f64,
    /// Overall recall.
    pub recall: f64,
}

/// Audit ER quality per group. A pair belongs to a group when *both* rows
/// are in that group; cross-group pairs count only toward the overall
/// numbers.
pub fn audit_er(
    table: &Table,
    predicted: &[(usize, usize)],
    truth: &[(usize, usize)],
    spec: &GroupSpec,
) -> rdi_table::Result<ErAudit> {
    let pred: BTreeSet<(usize, usize)> = predicted.iter().copied().collect();
    let tru: BTreeSet<(usize, usize)> = truth.iter().copied().collect();
    let tp_all = pred.intersection(&tru).count() as f64;
    let precision = if pred.is_empty() {
        1.0
    } else {
        tp_all / pred.len() as f64
    };
    let recall = if tru.is_empty() {
        1.0
    } else {
        tp_all / tru.len() as f64
    };

    let mut group_of = Vec::with_capacity(table.num_rows());
    for i in 0..table.num_rows() {
        group_of.push(spec.key_of(table, i)?);
    }
    // BTreeSet dedups and yields groups already sorted.
    let groups: BTreeSet<_> = group_of.iter().cloned().collect();
    let mut per_group = Vec::new();
    for g in groups {
        let in_group = |p: &(usize, usize)| group_of[p.0] == g && group_of[p.1] == g;
        let gp: BTreeSet<_> = pred.iter().filter(|p| in_group(p)).collect();
        let gt: BTreeSet<_> = tru.iter().filter(|p| in_group(p)).collect();
        let tp = gp.intersection(&gt).count() as f64;
        let p = if gp.is_empty() {
            1.0
        } else {
            tp / gp.len() as f64
        };
        let r = if gt.is_empty() {
            1.0
        } else {
            tp / gt.len() as f64
        };
        per_group.push((g.to_string(), p, r, gt.len()));
    }
    Ok(ErAudit {
        per_group,
        precision,
        recall,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdi_table::{DataType, Field, Role, Schema, Value};

    fn people(rows: &[(&str, &str)]) -> Table {
        let schema = Schema::new(vec![
            Field::new("name", DataType::Str),
            Field::new("g", DataType::Str).with_role(Role::Sensitive),
        ]);
        let mut t = Table::new(schema);
        for (n, g) in rows {
            t.push_row(vec![Value::str(*n), Value::str(*g)]).unwrap();
        }
        t
    }

    #[test]
    fn bigram_similarity_behaves() {
        assert_eq!(bigram_jaccard("smith", "smith"), 1.0);
        assert!(bigram_jaccard("smith", "smyth") > 0.3);
        assert!(bigram_jaccard("smith", "garcia") < 0.1);
        assert_eq!(bigram_jaccard("a", "a"), 1.0); // no bigrams, equal
        assert_eq!(bigram_jaccard("a", "b"), 0.0);
    }

    #[test]
    fn finds_near_duplicates_within_blocks() {
        let t = people(&[
            ("jon smith", "a"),
            ("john smith", "a"),
            ("mary jones", "b"),
            ("garcia", "b"),
        ]);
        let pairs = resolve_entities(&t, &ErConfig::default()).unwrap();
        assert_eq!(pairs, vec![(0, 1)]);
    }

    #[test]
    fn blocking_prevents_cross_prefix_comparison() {
        // identical names but different first letters never compared
        let t = people(&[("anna", "a"), ("hanna", "a")]);
        let cfg = ErConfig {
            block_prefix: 1,
            threshold: 0.3,
            ..ErConfig::default()
        };
        assert!(resolve_entities(&t, &cfg).unwrap().is_empty());
    }

    #[test]
    fn audit_reports_per_group_gaps() {
        let t = people(&[
            ("jon smith", "a"),
            ("john smith", "a"),
            ("nguyen thi", "b"),
            ("nguyen t.", "b"),
        ]);
        // predictions found the group-a pair but missed group-b's
        let predicted = vec![(0, 1)];
        let truth = vec![(0, 1), (2, 3)];
        let audit = audit_er(&t, &predicted, &truth, &GroupSpec::new(vec!["g"])).unwrap();
        assert_eq!(audit.recall, 0.5);
        assert_eq!(audit.precision, 1.0);
        let a = audit.per_group.iter().find(|(g, ..)| g == "(a)").unwrap();
        let b = audit.per_group.iter().find(|(g, ..)| g == "(b)").unwrap();
        assert_eq!(a.2, 1.0); // recall for a
        assert_eq!(b.2, 0.0); // recall for b — biased linkage exposed
    }

    #[test]
    fn clustering_is_transitive() {
        // pairs (0,1), (1,2) → one cluster {0,1,2}; 3 is a singleton
        let clusters = cluster_entities(&[(0, 1), (1, 2)], 4);
        assert_eq!(clusters, vec![vec![0, 1, 2], vec![3]]);
    }

    #[test]
    fn dedup_keeps_one_per_cluster() {
        let t = people(&[
            ("jon smith", "a"),
            ("john smith", "a"),
            ("johnn smith", "a"),
            ("mary jones", "b"),
        ]);
        let pairs = resolve_entities(&t, &ErConfig::default()).unwrap();
        let deduped = deduplicate(&t, &pairs);
        assert!(deduped.num_rows() < t.num_rows());
        assert!(deduped.num_rows() >= 2); // mary survives
                                          // the representative of the smith cluster is its first row
        assert_eq!(deduped.value(0, "name").unwrap(), Value::str("jon smith"));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn clustering_validates_indices() {
        cluster_entities(&[(0, 9)], 2);
    }

    #[test]
    fn empty_inputs_are_perfect() {
        let t = people(&[("x", "a")]);
        let audit = audit_er(&t, &[], &[], &GroupSpec::new(vec!["g"])).unwrap();
        assert_eq!(audit.precision, 1.0);
        assert_eq!(audit.recall, 1.0);
    }
}
