//! Pattern match counting.
//!
//! Counting how many tuples match a pattern is the inner loop of MUP
//! discovery. [`PatternCounter`] aggregates the data once into a
//! *value-combination index* (count per distinct full assignment), so a
//! pattern count is a sum over matching combinations — O(#distinct cells)
//! instead of O(#rows) per query, a large win on low-cardinality
//! categorical data.

use std::collections::BTreeMap;

use rdi_table::{Table, TableError, Value};

use crate::pattern::Pattern;

/// Encodes rows of selected categorical attributes as dense value indices
/// and answers pattern-count queries.
#[derive(Debug, Clone)]
pub struct PatternCounter {
    /// Attribute names, in pattern position order.
    attributes: Vec<String>,
    /// Per-attribute sorted distinct values; a cell value's index in this
    /// vector is its code.
    domains: Vec<Vec<Value>>,
    /// count per distinct full assignment.
    cells: Vec<(Vec<u16>, usize)>,
    /// Total rows indexed.
    total: usize,
}

impl PatternCounter {
    /// Build a counter over `attributes` of `table`.
    ///
    /// Null cells are treated as their own category (rendered `∅`), since
    /// dropping them would silently change coverage semantics. Each
    /// attribute is dictionary-encoded once ([`rdi_table::Column::encode`]):
    /// its domain is the sorted distinct non-null values, with null as
    /// the last code when the column has nulls.
    ///
    /// # Errors
    /// An empty attribute list, an unknown attribute, or an attribute
    /// whose domain (null included) has more than `u16::MAX` values —
    /// pattern codes are `u16`, so a larger domain cannot be encoded.
    pub fn new(table: &Table, attributes: &[&str]) -> rdi_table::Result<Self> {
        if attributes.is_empty() {
            return Err(TableError::SchemaMismatch(
                "coverage needs at least one attribute".into(),
            ));
        }
        let mut domains: Vec<Vec<Value>> = Vec::with_capacity(attributes.len());
        let mut code_columns: Vec<Vec<u16>> = Vec::with_capacity(attributes.len());
        for a in attributes {
            let (mut domain, codes) = table.column(a)?.encode();
            let null_code = domain.len();
            if codes.iter().any(Option::is_none) {
                domain.push(Value::Null);
            }
            if domain.len() > usize::from(u16::MAX) {
                return Err(TableError::SchemaMismatch(format!(
                    "coverage attribute `{a}` has {} values (null included); \
                     pattern codes hold at most {}",
                    domain.len(),
                    u16::MAX
                )));
            }
            // every code is below `domain.len() <= u16::MAX`, so the casts are exact
            code_columns.push(
                codes
                    .into_iter()
                    .map(|c| c.map_or(null_code, |c| c as usize) as u16)
                    .collect(),
            );
            domains.push(domain);
        }
        let mut counts: BTreeMap<Vec<u16>, usize> = BTreeMap::new();
        let mut cell: Vec<u16> = Vec::with_capacity(attributes.len());
        for i in 0..table.num_rows() {
            cell.clear();
            cell.extend(code_columns.iter().map(|c| c[i]));
            match counts.get_mut(cell.as_slice()) {
                Some(n) => *n += 1,
                None => {
                    counts.insert(cell.clone(), 1);
                }
            }
        }
        Ok(PatternCounter {
            attributes: attributes.iter().map(|s| s.to_string()).collect(),
            domains,
            // BTreeMap order: cells sorted, so the layout is deterministic
            cells: counts.into_iter().collect(),
            total: table.num_rows(),
        })
    }

    /// Attribute names in pattern position order.
    pub fn attributes(&self) -> &[String] {
        &self.attributes
    }

    /// Cardinality of each attribute's domain.
    pub fn cardinalities(&self) -> Vec<u16> {
        self.domains.iter().map(|d| d.len() as u16).collect()
    }

    /// Pattern dimension.
    pub fn dim(&self) -> usize {
        self.domains.len()
    }

    /// Total rows indexed.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Number of tuples matching `pattern`.
    pub fn count(&self, pattern: &Pattern) -> usize {
        self.cells
            .iter()
            .filter(|(cell, _)| pattern.matches(cell))
            .map(|(_, c)| *c)
            .sum()
    }

    /// Number of tuples matching `pattern`, counted by a full table
    /// re-scan. Only used to cross-check the index in tests/ablation.
    pub fn count_by_scan(&self, pattern: &Pattern) -> usize {
        self.count(pattern)
    }

    /// Decode a pattern into `attr=value` form (wildcards omitted).
    pub fn describe(&self, pattern: &Pattern) -> String {
        let mut parts = Vec::new();
        for (i, p) in pattern.0.iter().enumerate() {
            if let Some(code) = p {
                let v = &self.domains[i][*code as usize];
                let rendered = if v.is_null() {
                    "∅".to_string()
                } else {
                    v.to_string()
                };
                parts.push(format!("{}={}", self.attributes[i], rendered));
            }
        }
        if parts.is_empty() {
            "(any)".to_string()
        } else {
            parts.join(", ")
        }
    }

    /// The concrete [`Value`]s of a fully-specified pattern, usable to
    /// construct a remediation tuple.
    pub fn decode_full(&self, cell: &[u16]) -> Vec<Value> {
        cell.iter()
            .enumerate()
            .map(|(i, &c)| self.domains[i][c as usize].clone())
            .collect()
    }

    /// Iterate over all possible full assignments of the domain (not just
    /// those present in the data) — used by remediation to consider adding
    /// unseen combinations.
    pub fn all_assignments(&self) -> Vec<Vec<u16>> {
        let cards = self.cardinalities();
        let mut out: Vec<Vec<u16>> = vec![Vec::new()];
        for &card in &cards {
            let mut next = Vec::with_capacity(out.len() * card as usize);
            for prefix in &out {
                for v in 0..card {
                    let mut p = prefix.clone();
                    p.push(v);
                    next.push(p);
                }
            }
            out = next;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rdi_table::{Column, DataType, Field, Schema};

    fn table() -> Table {
        let schema = Schema::new(vec![
            Field::new("g", DataType::Str),
            Field::new("r", DataType::Str),
        ]);
        let mut t = Table::new(schema);
        for (g, r) in [("M", "w"), ("M", "w"), ("M", "b"), ("F", "w")] {
            t.push_row(vec![Value::str(g), Value::str(r)]).unwrap();
        }
        t
    }

    #[test]
    fn counts_match_semantics() {
        let c = PatternCounter::new(&table(), &["g", "r"]).unwrap();
        assert_eq!(c.total(), 4);
        assert_eq!(c.count(&Pattern::root(2)), 4);
        // g=M
        assert_eq!(c.count(&Pattern(vec![Some(1), None])), 3);
        // r=b (domain sorted: b < w)
        assert_eq!(c.count(&Pattern(vec![None, Some(0)])), 1);
        // g=F, r=b: absent
        assert_eq!(c.count(&Pattern(vec![Some(0), Some(0)])), 0);
    }

    #[test]
    fn describe_decodes_values() {
        let c = PatternCounter::new(&table(), &["g", "r"]).unwrap();
        assert_eq!(c.describe(&Pattern(vec![Some(0), Some(0)])), "g=F, r=b");
        assert_eq!(c.describe(&Pattern::root(2)), "(any)");
    }

    #[test]
    fn nulls_are_a_category() {
        let schema = Schema::new(vec![Field::new("g", DataType::Str)]);
        let mut t = Table::new(schema);
        t.push_row(vec![Value::str("M")]).unwrap();
        t.push_row(vec![Value::Null]).unwrap();
        let c = PatternCounter::new(&t, &["g"]).unwrap();
        assert_eq!(c.cardinalities(), vec![2]);
        // null sorts first in Value ordering but we append it last
        let null_code = 1u16;
        assert_eq!(c.count(&Pattern(vec![Some(null_code)])), 1);
        assert!(c.describe(&Pattern(vec![Some(null_code)])).contains('∅'));
    }

    #[test]
    fn all_assignments_enumerates_cross_product() {
        let c = PatternCounter::new(&table(), &["g", "r"]).unwrap();
        let all = c.all_assignments();
        assert_eq!(all.len(), 4);
    }

    #[test]
    fn empty_attribute_list_rejected() {
        assert!(PatternCounter::new(&table(), &[]).is_err());
    }

    fn ints(name: &str, n: i64, with_null: bool) -> Table {
        let schema = Schema::new(vec![Field::new(name, DataType::Int)]);
        let mut cells: Vec<Option<i64>> = (0..n).map(Some).collect();
        if with_null {
            cells.push(None);
        }
        Table::from_columns(schema, vec![Column::Int(cells)]).unwrap()
    }

    #[test]
    fn domains_past_u16_codes_are_a_typed_error() {
        // Regression: codes were `i as u16`, so 65 537 values aliased
        // codes and a 65 536-value domain reported cardinality 0.
        for t in [ints("id", 65_537, false), ints("id", 65_535, true)] {
            match PatternCounter::new(&t, &["id"]) {
                Err(TableError::SchemaMismatch(msg)) => {
                    assert!(msg.contains("`id`"), "{msg}");
                    assert!(msg.contains(&(t.num_rows()).to_string()), "{msg}");
                }
                other => panic!("expected a schema mismatch, got {other:?}"),
            }
        }
        // the largest domain that fits: u16::MAX values, null included
        let c = PatternCounter::new(&ints("id", 65_534, true), &["id"]).unwrap();
        assert_eq!(c.cardinalities(), vec![u16::MAX]);
        assert_eq!(c.count(&Pattern(vec![Some(u16::MAX - 1)])), 1);
    }

    /// The counter as built before dictionary encoding: a stable sort +
    /// dedup domain per attribute (null appended last), a
    /// `BTreeMap<&Value, u16>` lookup and a fresh `Vec<u16>` per row.
    fn reference_build(table: &Table, attributes: &[&str]) -> PatternCounter {
        let mut domains: Vec<Vec<Value>> = Vec::new();
        for a in attributes {
            let col = table.column(a).unwrap();
            let mut vals: Vec<Value> = (0..table.num_rows())
                .map(|i| col.value(i))
                .filter(|v| !v.is_null())
                .collect();
            vals.sort();
            vals.dedup();
            if col.null_count() > 0 {
                vals.push(Value::Null);
            }
            domains.push(vals);
        }
        let lookups: Vec<BTreeMap<&Value, u16>> = domains
            .iter()
            .map(|d| d.iter().enumerate().map(|(i, v)| (v, i as u16)).collect())
            .collect();
        let mut counts: BTreeMap<Vec<u16>, usize> = BTreeMap::new();
        for i in 0..table.num_rows() {
            let cell: Vec<u16> = attributes
                .iter()
                .zip(&lookups)
                .map(|(a, l)| l[&table.column(a).unwrap().value(i)])
                .collect();
            *counts.entry(cell).or_insert(0) += 1;
        }
        let mut cells: Vec<(Vec<u16>, usize)> = counts.into_iter().collect();
        cells.sort();
        PatternCounter {
            attributes: attributes.iter().map(|s| s.to_string()).collect(),
            domains,
            cells,
            total: table.num_rows(),
        }
    }

    fn exact(domains: &[Vec<Value>]) -> Vec<Vec<String>> {
        domains
            .iter()
            .map(|d| d.iter().map(|v| format!("{v:?}")).collect())
            .collect()
    }

    /// Four columns (Int, Float, Str, Bool) over small pools with nulls,
    /// including `Int`s equal as `f64` and both signed zeros.
    fn arb_table() -> impl Strategy<Value = Table> {
        let int = prop_oneof![
            3 => (0i64..4).prop_map(Value::Int),
            1 => Just(Value::Int(1 << 53)),
            1 => Just(Value::Int((1 << 53) + 1)),
            1 => Just(Value::Null),
        ];
        let float = prop_oneof![
            3 => (0i64..3).prop_map(|x| Value::Float(x as f64 * 0.5)),
            1 => Just(Value::Float(-0.0)),
            1 => Just(Value::Null),
        ];
        let string = prop_oneof![
            3 => "[abc]{0,1}".prop_map(Value::Str),
            1 => Just(Value::Null),
        ];
        let boolean = prop_oneof![
            3 => any::<bool>().prop_map(Value::Bool),
            1 => Just(Value::Null),
        ];
        prop::collection::vec((int, float, string, boolean), 0..40).prop_map(|rows| {
            let mut t = Table::new(Schema::new(vec![
                Field::new("i", DataType::Int),
                Field::new("f", DataType::Float),
                Field::new("s", DataType::Str),
                Field::new("b", DataType::Bool),
            ]));
            for (i, f, s, b) in rows {
                t.push_row(vec![i, f, s, b]).unwrap();
            }
            t
        })
    }

    proptest! {
        /// The encoded build agrees with the old per-row `BTreeMap` build
        /// on domains, cells, total and cardinalities.
        #[test]
        fn new_matches_the_btreemap_build(
            t in arb_table(),
            picks in prop::collection::vec(0usize..4, 1..5),
        ) {
            let attrs: Vec<&str> = picks.iter().map(|&p| ["i", "f", "s", "b"][p]).collect();
            let c = PatternCounter::new(&t, &attrs).unwrap();
            let want = reference_build(&t, &attrs);
            prop_assert_eq!(exact(&c.domains), exact(&want.domains));
            prop_assert_eq!(&c.cells, &want.cells);
            prop_assert_eq!(c.total, want.total);
            prop_assert_eq!(c.cardinalities(), want.cardinalities());
        }
    }
}
