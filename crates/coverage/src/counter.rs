//! Pattern match counting.
//!
//! Counting how many tuples match a pattern is the inner loop of MUP
//! discovery. [`PatternCounter`] aggregates the data once into a
//! *value-combination index* (count per distinct full assignment), so a
//! pattern count is a sum over matching combinations — O(#distinct cells)
//! instead of O(#rows) per query, a large win on low-cardinality
//! categorical data.
//!
//! The index is counted in a flat array indexed by each row's
//! mixed-radix cell number when the cross product of the domains is at
//! most `max(rows, FLAT_CELLS_MIN)` cells, so its memory stays O(rows);
//! larger products are counted in a `BTreeMap`. Both list the cells in
//! lexicographic order.

use std::collections::BTreeMap;
use std::sync::Arc;

use rdi_table::{ColumnCodes, Encoded, Table, TableError, Value};

use crate::pattern::Pattern;

/// The flat count array may always hold this many cells, however few
/// rows there are.
const FLAT_CELLS_MIN: usize = 1024;

/// Encodes rows of selected categorical attributes as dense value indices
/// and answers pattern-count queries.
#[derive(Debug, Clone)]
pub struct PatternCounter {
    /// Attribute names, in pattern position order.
    attributes: Vec<String>,
    /// Per-attribute sorted distinct values; a cell value's index in this
    /// vector is its code.
    domains: Vec<Vec<Value>>,
    /// The distinct full assignments present in the data, in
    /// lexicographic order, laid end to end (`dim` codes each).
    cells: Vec<u16>,
    /// Rows per cell, parallel to `cells`.
    counts: Vec<usize>,
    /// Total rows indexed.
    total: usize,
}

impl PatternCounter {
    /// Build a counter over `attributes` of `table`: each attribute is
    /// dictionary-encoded once ([`rdi_table::Column::encode`]) and
    /// counted by [`PatternCounter::from_codes`].
    ///
    /// # Errors
    /// As [`PatternCounter::from_codes`].
    pub fn new(table: &Table, attributes: &[&str]) -> rdi_table::Result<Self> {
        PatternCounter::from_codes(table.num_rows(), attributes, table)
    }

    /// Build a counter over `rows` rows whose attribute codes come from
    /// `codes`.
    ///
    /// Null cells are treated as their own category (rendered `∅`), since
    /// dropping them would silently change coverage semantics. An
    /// attribute's domain is its sorted distinct non-null values, with
    /// null as the last code when the column has nulls.
    ///
    /// # Errors
    /// An empty attribute list; then, attribute by attribute in order,
    /// one `codes` does not know or one whose domain (null included) has
    /// more than `u16::MAX` values — pattern codes are `u16`, so a larger
    /// domain cannot be encoded.
    pub fn from_codes(
        rows: usize,
        attributes: &[&str],
        codes: &(impl ColumnCodes + ?Sized),
    ) -> rdi_table::Result<Self> {
        if attributes.is_empty() {
            return Err(TableError::SchemaMismatch(
                "coverage needs at least one attribute".into(),
            ));
        }
        let mut domains: Vec<Vec<Value>> = Vec::with_capacity(attributes.len());
        let mut columns: Vec<Arc<Encoded>> = Vec::with_capacity(attributes.len());
        for a in attributes {
            let column = codes.codes(a)?;
            let mut domain = column.distinct.clone();
            if column.codes.iter().any(Option::is_none) {
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
            domains.push(domain);
            columns.push(column);
        }
        let cards: Vec<usize> = domains.iter().map(Vec::len).collect();
        let (cells, counts) = match flat_cells(&cards, rows) {
            Some(size) => count_flat(rows, &columns, &cards, size),
            None => count_sparse(rows, &columns),
        };
        Ok(PatternCounter {
            attributes: attributes.iter().map(|s| s.to_string()).collect(),
            domains,
            cells,
            counts,
            total: rows,
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
            .chunks_exact(self.dim())
            .zip(&self.counts)
            .filter(|(cell, _)| pattern.matches(cell))
            .map(|(_, c)| *c)
            .sum()
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

/// The length of the flat count array for domains of sizes `cards`
/// over `rows` rows, or `None` when their cross product exceeds
/// `max(rows, FLAT_CELLS_MIN)`.
fn flat_cells(cards: &[usize], rows: usize) -> Option<usize> {
    let bound = rows.max(FLAT_CELLS_MIN);
    cards
        .iter()
        .try_fold(1usize, |size, &card| size.checked_mul(card))
        .filter(|&size| size <= bound)
}

/// Count rows into a flat array of `size` cells indexed by each row's
/// mixed-radix cell number (the first attribute most significant), then
/// list the non-zero cells in index order, which is lexicographic order.
/// A null takes the code after its attribute's non-null values.
fn count_flat(
    rows: usize,
    columns: &[Arc<Encoded>],
    cards: &[usize],
    size: usize,
) -> (Vec<u16>, Vec<usize>) {
    let mut index = vec![0usize; rows];
    for (column, &card) in columns.iter().zip(cards) {
        let null = column.distinct.len();
        for (ix, c) in index.iter_mut().zip(&column.codes[..rows]) {
            *ix = *ix * card + c.map_or(null, |x| x as usize);
        }
    }
    let mut tally = vec![0usize; size];
    for ix in index {
        tally[ix] += 1;
    }
    let mut cells = Vec::new();
    let mut counts = Vec::new();
    for (ix, &n) in tally.iter().enumerate().filter(|(_, &n)| n > 0) {
        let start = cells.len();
        let mut rest = ix;
        for &card in cards.iter().rev() {
            // below `card <= u16::MAX`, so the cast is exact
            cells.push((rest % card) as u16);
            rest /= card;
        }
        cells[start..].reverse();
        counts.push(n);
    }
    (cells, counts)
}

/// Count rows per distinct cell in a `BTreeMap`, for domains whose
/// cross product is too large for a flat array.
fn count_sparse(rows: usize, columns: &[Arc<Encoded>]) -> (Vec<u16>, Vec<usize>) {
    // every code is below `domain.len() <= u16::MAX`, so the casts are
    // exact; null takes the code after the non-null values
    let mut tally: BTreeMap<Vec<u16>, usize> = BTreeMap::new();
    let mut cell: Vec<u16> = Vec::with_capacity(columns.len());
    for row in 0..rows {
        cell.clear();
        cell.extend(
            columns
                .iter()
                .map(|c| c.codes[row].map_or(c.distinct.len(), |x| x as usize) as u16),
        );
        match tally.get_mut(cell.as_slice()) {
            Some(n) => *n += 1,
            None => {
                tally.insert(cell.clone(), 1);
            }
        }
    }
    let mut cells = Vec::with_capacity(tally.len() * columns.len());
    let mut counts = Vec::with_capacity(tally.len());
    for (cell, n) in tally {
        cells.extend(cell);
        counts.push(n);
    }
    (cells, counts)
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
        assert_eq!(
            PatternCounter::new(&table(), &[]).unwrap_err(),
            TableError::SchemaMismatch("coverage needs at least one attribute".into())
        );
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

    /// Attributes are checked in order: an oversized first attribute
    /// is reported even when a later one does not exist.
    #[test]
    fn an_oversized_attribute_outranks_a_later_unknown_one() {
        match PatternCounter::new(&ints("id", 65_537, false), &["id", "nope"]) {
            Err(TableError::SchemaMismatch(msg)) => assert!(msg.contains("`id`"), "{msg}"),
            other => panic!("expected the oversized-domain error, got {other:?}"),
        }
        assert_eq!(
            PatternCounter::new(&ints("id", 3, false), &["nope", "id"]).unwrap_err(),
            TableError::UnknownColumn("nope".into())
        );
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
        PatternCounter {
            attributes: attributes.iter().map(|s| s.to_string()).collect(),
            domains,
            cells: counts.keys().flatten().copied().collect(),
            counts: counts.into_values().collect(),
            total: table.num_rows(),
        }
    }

    /// The counter's cells with their row counts, in its order.
    fn cells(c: &PatternCounter) -> Vec<(Vec<u16>, usize)> {
        c.cells
            .chunks_exact(c.dim())
            .map(<[u16]>::to_vec)
            .zip(c.counts.iter().copied())
            .collect()
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
            prop_assert_eq!(cells(&c), cells(&want));
            prop_assert_eq!(c.total, want.total);
            prop_assert_eq!(c.cardinalities(), want.cardinalities());
        }
    }

    /// The oracle for cell counting: per row, each attribute's code is
    /// the position of its value among the sorted distinct non-null
    /// values (null after them), and rows are tallied by a linear search
    /// over the cells seen so far; the cells are then sorted.
    fn naive_tally(t: &Table, attributes: &[&str]) -> Vec<(Vec<u16>, usize)> {
        let domains: Vec<Vec<Value>> = attributes
            .iter()
            .map(|a| {
                let col = t.column(a).unwrap();
                let mut d: Vec<Value> = (0..t.num_rows())
                    .map(|i| col.value(i))
                    .filter(|v| !v.is_null())
                    .collect();
                d.sort();
                d.dedup();
                d
            })
            .collect();
        let mut tally: Vec<(Vec<u16>, usize)> = Vec::new();
        for i in 0..t.num_rows() {
            let cell: Vec<u16> = attributes
                .iter()
                .zip(&domains)
                .map(|(a, d)| {
                    let v = t.column(a).unwrap().value(i);
                    d.iter().position(|x| *x == v).unwrap_or(d.len()) as u16
                })
                .collect();
            match tally.iter_mut().find(|(c, _)| *c == cell) {
                Some((_, n)) => *n += 1,
                None => tally.push((cell, 1)),
            }
        }
        tally.sort();
        tally
    }

    /// `attrs` Int columns `a0..`: column `j` takes values `0..cards[j]`
    /// (`None` drawn as null); each row is one entry of `rows`.
    fn codes_table(cards: &[i64], rows: &[Vec<Option<i64>>]) -> Table {
        let names: Vec<String> = (0..cards.len()).map(|j| format!("a{j}")).collect();
        let schema = Schema::new(names.iter().map(|n| Field::new(n, DataType::Int)).collect());
        let columns = (0..cards.len())
            .map(|j| Column::Int(rows.iter().map(|r| r[j]).collect()))
            .collect();
        Table::from_columns(schema, columns).unwrap()
    }

    /// Attribute cardinalities drawn from `cards`, one per attribute
    /// (`attrs` many), over up to 60 rows of codes, one in five null;
    /// with `every_value`, first rows holding every value of every
    /// attribute are added, so each domain is its full range.
    fn arb_codes(
        attrs: std::ops::RangeInclusive<usize>,
        cards: std::ops::RangeInclusive<i64>,
        every_value: bool,
    ) -> impl Strategy<Value = (Vec<i64>, Vec<Vec<Option<i64>>>)> {
        let draws = prop::collection::vec(prop::collection::vec(0i64..1000, 4), 0..60);
        (prop::collection::vec(cards, attrs), draws).prop_map(move |(cards, draws)| {
            let widest = cards.iter().copied().max().unwrap_or(0);
            let cover = (0..widest)
                .filter(|_| every_value)
                .map(|v| cards.iter().map(|&k| Some(v % k)).collect());
            let drawn = draws.iter().map(|d| {
                cards
                    .iter()
                    .zip(d)
                    .map(|(&k, &x)| (x % 5 != 0).then_some(x / 5 % k))
                    .collect()
            });
            let rows = cover.chain(drawn).collect();
            (cards, rows)
        })
    }

    proptest! {
        /// Domains whose cross product fits the flat array (at most
        /// 5 codes, null included, over at most 4 attributes) count
        /// every cell exactly as the naive tally does.
        #[test]
        fn flat_counting_matches_a_naive_tally((cards, rows) in arb_codes(1..=4, 1..=4, false)) {
            let t = codes_table(&cards, &rows);
            let names: Vec<String> = (0..cards.len()).map(|j| format!("a{j}")).collect();
            let attrs: Vec<&str> = names.iter().map(String::as_str).collect();
            let c = PatternCounter::new(&t, &attrs).unwrap();
            let sizes: Vec<usize> = c.cardinalities().iter().map(|&k| usize::from(k)).collect();
            prop_assert!(flat_cells(&sizes, t.num_rows()).is_some());
            prop_assert_eq!(cells(&c), naive_tally(&t, &attrs));
            prop_assert_eq!(c.total(), t.num_rows());
        }

        /// Domains whose cross product exceeds the flat bound (at least
        /// 11^3 cells over fewer than 1024 rows) are counted in the map,
        /// with the same cells as the naive tally.
        #[test]
        fn sparse_counting_matches_a_naive_tally((cards, rows) in arb_codes(3..=4, 11..=14, true)) {
            let t = codes_table(&cards, &rows);
            let names: Vec<String> = (0..cards.len()).map(|j| format!("a{j}")).collect();
            let attrs: Vec<&str> = names.iter().map(String::as_str).collect();
            let c = PatternCounter::new(&t, &attrs).unwrap();
            let sizes: Vec<usize> = c.cardinalities().iter().map(|&k| usize::from(k)).collect();
            prop_assert!(flat_cells(&sizes, t.num_rows()).is_none());
            prop_assert_eq!(cells(&c), naive_tally(&t, &attrs));
            prop_assert_eq!(c.total(), t.num_rows());
        }
    }

    #[test]
    fn the_flat_bound_is_the_larger_of_rows_and_its_floor() {
        assert_eq!(flat_cells(&[32, 32], 0), Some(1024));
        assert_eq!(flat_cells(&[32, 33], 1000), None);
        assert_eq!(flat_cells(&[32, 33], 1056), Some(1056));
        assert_eq!(flat_cells(&[3, 0, 5], 0), Some(0));
        // a product past `usize` is not flat
        assert_eq!(flat_cells(&[usize::MAX, 2], usize::MAX), None);
    }

    /// Errors keep their order whichever way the cells would be
    /// counted: an empty attribute list first, then an attribute whose
    /// domain is past `u16::MAX` codes, before any counting starts.
    #[test]
    fn error_precedence_is_unchanged() {
        let wide = ints("id", 65_537, false);
        assert_eq!(
            PatternCounter::new(&wide, &[]).unwrap_err(),
            TableError::SchemaMismatch("coverage needs at least one attribute".into())
        );
        let two = Table::from_columns(
            Schema::new(vec![
                Field::new("small", DataType::Int),
                Field::new("id", DataType::Int),
            ]),
            vec![
                Column::Int((0..65_537).map(|i| Some(i % 2)).collect()),
                Column::Int((0..65_537).map(Some).collect()),
            ],
        )
        .unwrap();
        match PatternCounter::new(&two, &["small", "id"]) {
            Err(TableError::SchemaMismatch(msg)) => assert!(msg.contains("`id`"), "{msg}"),
            other => panic!("expected the oversized-domain error, got {other:?}"),
        }
    }
}
