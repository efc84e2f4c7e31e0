//! Data-lake organization for navigation (§3.1's third discovery
//! modality, after RONIN / "Organizing Data Lakes for Navigation",
//! Nargesian et al. SIGMOD 2020 — simplified).
//!
//! Instead of point queries, the user *explores*: the lake's tables are
//! organized bottom-up into a hierarchy by (symmetrized) unionability,
//! each internal node summarized by a medoid table, and a query descends
//! the tree comparing only against medoids — touching O(branching × depth)
//! tables instead of all of them.

use crate::union_search::{ColumnMatcher, TableSignature};

/// Symmetrized unionability (plain
/// [`table_unionability`](crate::table_unionability) normalizes by the
/// query's column count, so it is asymmetric).
pub fn symmetric_unionability(a: &TableSignature, b: &TableSignature) -> f64 {
    symmetric(&mut ColumnMatcher::new(), a, b)
}

/// [`symmetric_unionability`] through a caller's matcher, so a loop
/// over many pairs reuses its buffers; the bits are the same.
fn symmetric(matcher: &mut ColumnMatcher, a: &TableSignature, b: &TableSignature) -> f64 {
    0.5 * (matcher.unionability(a, b) + matcher.unionability(b, a))
}

/// A node of the navigation hierarchy.
#[derive(Debug)]
pub enum NavNode {
    /// A single table (index into the builder's signature list).
    Leaf(usize),
    /// A cluster: children plus the medoid member summarizing it.
    Internal {
        /// Child node ids.
        children: Vec<usize>,
        /// All member table indices.
        members: Vec<usize>,
        /// The medoid member (maximum average similarity to the rest).
        medoid: usize,
    },
}

/// The navigation tree over a set of table signatures.
pub struct Navigator {
    signatures: Vec<TableSignature>,
    nodes: Vec<NavNode>,
    root: usize,
}

impl Navigator {
    /// Build by average-link agglomerative clustering (O(n³), intended
    /// for lakes of up to a few hundred tables — larger lakes would
    /// sample or pre-partition first).
    ///
    /// # Panics
    /// Panics on an empty signature list.
    pub fn build(signatures: Vec<TableSignature>) -> Self {
        assert!(!signatures.is_empty(), "cannot organize an empty lake");
        let n = signatures.len();
        // pairwise similarity matrix
        let mut sim = vec![vec![0.0f64; n]; n];
        let mut matcher = ColumnMatcher::new();
        for i in 0..n {
            for j in i + 1..n {
                let s = symmetric(&mut matcher, &signatures[i], &signatures[j]);
                sim[i][j] = s;
                sim[j][i] = s;
            }
        }
        let mut nodes: Vec<NavNode> = (0..n).map(NavNode::Leaf).collect();
        // active cluster list: (node id, members)
        let mut active: Vec<(usize, Vec<usize>)> = (0..n).map(|i| (i, vec![i])).collect();
        while active.len() > 1 {
            // find the closest pair by average linkage
            let mut best = (f64::NEG_INFINITY, 0usize, 1usize);
            for a in 0..active.len() {
                for b in a + 1..active.len() {
                    let mut s = 0.0;
                    for &i in &active[a].1 {
                        for &j in &active[b].1 {
                            s += sim[i][j];
                        }
                    }
                    s /= (active[a].1.len() * active[b].1.len()) as f64;
                    if s > best.0 {
                        best = (s, a, b);
                    }
                }
            }
            let (_, a, b) = best;
            let (node_b, members_b) = active.remove(b);
            let (node_a, members_a) = active.remove(a);
            let mut members = members_a;
            members.extend(members_b);
            // medoid: member with max average similarity to the others
            #[expect(
                clippy::expect_used,
                reason = "merged clusters hold ≥ 2 members by construction, so max_by always yields a medoid"
            )]
            let medoid = *members
                .iter()
                .max_by(|&&i, &&j| {
                    let avg = |x: usize| {
                        members
                            .iter()
                            .filter(|&&y| y != x)
                            .map(|&y| sim[x][y])
                            .sum::<f64>()
                    };
                    avg(i).total_cmp(&avg(j)).then(j.cmp(&i))
                })
                .expect("non-empty cluster");
            let id = nodes.len();
            nodes.push(NavNode::Internal {
                children: vec![node_a, node_b],
                members: members.clone(),
                medoid,
            });
            active.push((id, members));
        }
        let root = active[0].0;
        Navigator {
            signatures,
            nodes,
            root,
        }
    }

    /// Number of organized tables.
    pub fn len(&self) -> usize {
        self.signatures.len()
    }

    /// True iff the navigator is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.signatures.is_empty()
    }

    /// The signature of table `idx`.
    pub fn signature(&self, idx: usize) -> &TableSignature {
        &self.signatures[idx]
    }

    /// Descend from the root toward `query`, at each internal node
    /// following the child whose medoid is most unionable with the query.
    /// Returns `(reached table index, medoids compared)` — the comparison
    /// count is what navigation saves versus scanning all tables.
    pub fn navigate(&self, query: &TableSignature) -> (usize, usize) {
        let mut node = self.root;
        let mut comparisons = 0;
        let mut matcher = ColumnMatcher::new();
        loop {
            match &self.nodes[node] {
                NavNode::Leaf(idx) => return (*idx, comparisons),
                NavNode::Internal { children, .. } => {
                    let mut best = (f64::NEG_INFINITY, children[0]);
                    for &c in children {
                        let rep = match &self.nodes[c] {
                            NavNode::Leaf(idx) => *idx,
                            NavNode::Internal { medoid, .. } => *medoid,
                        };
                        comparisons += 1;
                        let s = matcher.unionability(query, &self.signatures[rep]);
                        if s > best.0 {
                            best = (s, c);
                        }
                    }
                    node = best.1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdi_table::{DataType, Field, Schema, Table, Value};

    fn table(col: &str, vals: &[String]) -> Table {
        let schema = Schema::new(vec![Field::new(col, DataType::Str)]);
        let mut t = Table::new(schema);
        for v in vals {
            t.push_row(vec![Value::str(v.clone())]).unwrap();
        }
        t
    }

    /// Two planted domains: "city*" tables share city names, "gene*"
    /// tables share gene names.
    fn lake() -> Vec<TableSignature> {
        let cities: Vec<String> = (0..40).map(|i| format!("city{i}")).collect();
        let genes: Vec<String> = (0..40).map(|i| format!("gene{i}")).collect();
        let mut sigs = Vec::new();
        for t in 0..4 {
            let vals: Vec<String> = cities[t * 5..t * 5 + 25].to_vec();
            sigs.push(
                TableSignature::build(format!("city_{t}"), &table("name", &vals), 64).unwrap(),
            );
        }
        for t in 0..4 {
            let vals: Vec<String> = genes[t * 5..t * 5 + 25].to_vec();
            sigs.push(
                TableSignature::build(format!("gene_{t}"), &table("name", &vals), 64).unwrap(),
            );
        }
        sigs
    }

    #[test]
    fn clusters_separate_planted_domains() {
        let nav = Navigator::build(lake());
        // the root's two children should split city tables from gene tables
        let NavNode::Internal { children, .. } = &nav.nodes[nav.root] else {
            panic!("root must be internal");
        };
        let members = |id: usize| -> Vec<String> {
            match &nav.nodes[id] {
                NavNode::Leaf(i) => vec![nav.signature(*i).name.clone()],
                NavNode::Internal { members, .. } => members
                    .iter()
                    .map(|&i| nav.signature(i).name.clone())
                    .collect(),
            }
        };
        let a = members(children[0]);
        let b = members(children[1]);
        let pure = |ms: &[String]| {
            ms.iter().all(|n| n.starts_with("city")) || ms.iter().all(|n| n.starts_with("gene"))
        };
        assert!(pure(&a) && pure(&b), "a={a:?} b={b:?}");
    }

    #[test]
    fn navigation_reaches_the_right_domain_cheaply() {
        let sigs = lake();
        let n = sigs.len();
        let nav = Navigator::build(sigs);
        // query: a fresh city table overlapping the city domain
        let vals: Vec<String> = (10..35).map(|i| format!("city{i}")).collect();
        let q = TableSignature::build("q", &table("name", &vals), 64).unwrap();
        let (reached, comparisons) = nav.navigate(&q);
        assert!(
            nav.signature(reached).name.starts_with("city"),
            "reached {}",
            nav.signature(reached).name
        );
        // navigation must not scan everything
        assert!(comparisons < 2 * n, "comparisons={comparisons}");
    }

    #[test]
    fn single_table_lake() {
        let sigs =
            vec![TableSignature::build("only", &table("c", &["x".to_string()]), 16).unwrap()];
        let nav = Navigator::build(sigs);
        let q = TableSignature::build("q", &table("c", &["x".to_string()]), 16).unwrap();
        let (reached, comparisons) = nav.navigate(&q);
        assert_eq!(reached, 0);
        assert_eq!(comparisons, 0);
    }
}
