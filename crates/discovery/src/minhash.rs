//! MinHash signatures and Jaccard estimation.
//!
//! Two constructions live here:
//!
//! * [`MinHash`] — the immutable one-hash signature. Because every
//!   position is a *minimum* over per-value hashes, signatures are
//!   order-invariant, exactly mergeable ([`MinHash::merge`]), and can
//!   absorb appended values in place ([`MinHash::absorb_values`]) with
//!   results bitwise identical to a cold rebuild.
//! * [`UpdatableMinHash`] — the signature plus a value-multiplicity
//!   map, which is what makes **deletion** exact too: a removed value
//!   only matters once its multiplicity reaches zero, and then only
//!   the signature positions it actually held are recomputed (over the
//!   remaining distinct values), never the whole table.
//!
//! Both build from a column by reading its cells by reference: equal
//! cells are grouped first, so each distinct value is hashed once and
//! (for the updatable form) cloned once, however often it repeats.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use rdi_obs::Counter;
use rdi_table::{Column, Table, Value};

use crate::hash::{hash_bytes, hash_value, splitmix64};

/// Golden-gamma increment perturbing the base hash per position.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The one-hash position hash: position `j`'s pseudorandom permutation
/// of a value's base hash.
#[inline]
fn position_hash(base: u64, j: usize) -> u64 {
    splitmix64(base ^ (j as u64).wrapping_mul(GAMMA))
}

/// Fold one value's base hash into a signature: each position keeps
/// the smaller of its minimum and the value's position hash.
#[inline]
fn lower(sig: &mut [u64], base: u64) {
    for (j, s) in sig.iter_mut().enumerate() {
        let h = position_hash(base, j);
        if h < *s {
            *s = h;
        }
    }
}

/// `sketch.incremental_updates`, resolved on first use: maintained
/// sketches count every applied value, and a by-name lookup takes the
/// registry lock.
fn incremental_updates() -> &'static Counter {
    static HANDLE: OnceLock<Arc<Counter>> = OnceLock::new();
    HANDLE.get_or_init(|| rdi_obs::counter("sketch.incremental_updates"))
}

/// A borrowed non-null cell of a [`Column`].
#[derive(Debug, Clone, Copy)]
enum Cell<'a> {
    Int(i64),
    Float(f64),
    Str(&'a str),
    Bool(bool),
}

impl Cell<'_> {
    /// The cell as an owned [`Value`] (clones a string cell).
    fn to_value(self) -> Value {
        match self {
            Cell::Int(x) => Value::Int(x),
            Cell::Float(x) => Value::Float(x),
            Cell::Str(x) => Value::str(x),
            Cell::Bool(x) => Value::Bool(x),
        }
    }

    /// `hash_value(&self.to_value(), 0)`, without cloning a string.
    fn base_hash(self) -> u64 {
        match self {
            Cell::Str(x) => hash_bytes(x.as_bytes(), 0),
            // numeric values own no heap memory
            cell => hash_value(&cell.to_value(), 0),
        }
    }
}

/// A column's distinct non-null cells, borrowed, each with its
/// multiplicity, in [`Value`] order.
///
/// Cells are grouped by sorting references under the equality
/// [`Value::total_cmp`] gives them, as `Column::encode` groups them:
/// two `Int`s equal as `f64` (2^53 and 2^53+1) are one value, `-0.0`
/// and `0.0` are two. Each group's representative is its first
/// occurrence in row order.
fn distinct_cells(col: &Column) -> Vec<(Cell<'_>, u64)> {
    match col {
        Column::Int(v) => runs(
            v,
            |a, b| (*a as f64).total_cmp(&(*b as f64)),
            |x| Cell::Int(*x),
        ),
        Column::Float(v) => runs(v, f64::total_cmp, |x| Cell::Float(*x)),
        Column::Str(v) => runs(v, String::cmp, |x| Cell::Str(x)),
        Column::Bool(v) => runs(v, bool::cmp, |x| Cell::Bool(*x)),
    }
}

/// [`distinct_cells`] over one typed cell slice: `cmp` orders two cells
/// as their [`Value`]s order, `cell` borrows one.
fn runs<'a, T>(
    cells: &'a [Option<T>],
    cmp: impl Fn(&T, &T) -> Ordering,
    cell: impl Fn(&'a T) -> Cell<'a>,
) -> Vec<(Cell<'a>, u64)> {
    let mut refs: Vec<&T> = cells.iter().flatten().collect();
    // Equal cells tie by address, which is row order, so the unstable
    // sort (about half the cost of a stable one on string cells) still
    // leads each run with its first occurrence.
    refs.sort_unstable_by(|a, b| {
        cmp(a, b).then_with(|| std::ptr::from_ref(*a).cmp(&std::ptr::from_ref(*b)))
    });
    refs.chunk_by(|a, b| cmp(a, b) == Ordering::Equal)
        .map(|run| (cell(run[0]), run.len() as u64))
        .collect()
}

/// A MinHash signature: `k` independent minimum hash values of a set.
///
/// `E[fraction of agreeing positions] = Jaccard(A, B)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinHash {
    sig: Vec<u64>,
}

impl MinHash {
    /// Signature length.
    pub fn k(&self) -> usize {
        self.sig.len()
    }

    /// The raw signature values.
    pub fn signature(&self) -> &[u64] {
        &self.sig
    }

    /// Build from an iterator of set elements (borrowed or owned).
    ///
    /// Each value is hashed through its bytes exactly once
    /// (`hash_value(v, 0)`); the hash for position `j` is then derived
    /// by perturbing that base with the `j`-th multiple of the golden
    /// gamma and refinishing through splitmix64. Every position sees
    /// its own pseudorandom permutation of the base hashes — the
    /// standard one-hash MinHash construction — at O(bytes + k) per
    /// value instead of O(bytes × k).
    pub fn from_values<I>(values: I, k: usize) -> Self
    where
        I: IntoIterator,
        I::Item: Borrow<Value>,
    {
        assert!(k > 0);
        let mut m = MinHash {
            sig: vec![u64::MAX; k],
        };
        m.absorb_values(values);
        m
    }

    /// Absorb additional set elements in place.
    ///
    /// Positionwise minima are order-invariant, so absorbing appended
    /// values into an existing signature is **bitwise identical** to
    /// rebuilding from the full value stream — the warm path of
    /// incremental sketch maintenance costs O(appended × k), never
    /// O(table × k).
    pub fn absorb_values<I>(&mut self, values: I)
    where
        I: IntoIterator,
        I::Item: Borrow<Value>,
    {
        for v in values {
            let v = v.borrow();
            if !v.is_null() {
                lower(&mut self.sig, hash_value(v, 0));
            }
        }
    }

    /// The signature of the union of the two underlying sets
    /// (positionwise minimum). Exact: `a.merge(&b)` is bitwise
    /// identical to building one signature over both value streams.
    ///
    /// # Panics
    /// Panics when the signature lengths differ.
    pub fn merge(&self, other: &MinHash) -> MinHash {
        assert_eq!(self.k(), other.k(), "signatures must share k");
        MinHash {
            sig: self
                .sig
                .iter()
                .zip(&other.sig)
                .map(|(a, b)| *a.min(b))
                .collect(),
        }
    }

    /// Build from the values of a table column, bitwise identical to
    /// [`MinHash::from_values`] over them. Cells are read by reference
    /// and each distinct value is hashed once.
    pub fn from_column(table: &Table, column: &str, k: usize) -> rdi_table::Result<Self> {
        assert!(k > 0);
        let mut sig = vec![u64::MAX; k];
        for (cell, _) in distinct_cells(table.column(column)?) {
            lower(&mut sig, cell.base_hash());
        }
        Ok(MinHash { sig })
    }

    /// Estimated Jaccard similarity with another signature of equal `k`.
    pub fn jaccard(&self, other: &MinHash) -> f64 {
        assert_eq!(self.k(), other.k(), "signatures must share k");
        let agree = self
            .sig
            .iter()
            .zip(&other.sig)
            .filter(|(a, b)| a == b)
            .count();
        agree as f64 / self.k() as f64
    }
}

/// A MinHash signature that supports **exact deletion**, backed by a
/// value-multiplicity map.
///
/// The signature always equals `MinHash::from_values` over the current
/// multiset, to the bit:
///
/// * **insert** — bump the value's multiplicity; on a 0 → 1 transition
///   lower the affected signature positions (a positionwise min can
///   only decrease on insert).
/// * **remove** — decrement the multiplicity; only a 1 → 0 transition
///   can raise a minimum, and then only at positions the removed value
///   actually held. [`UpdatableMinHash::remove_all`] collects those
///   positions for a whole batch of removals and recomputes them in one
///   pass over the remaining *distinct* values, hashing each survivor
///   once. Work is O(k) per touched row plus, when some value departs,
///   O(distinct × repaired positions) position hashes.
///
/// Both operations count `sketch.incremental_updates` (one per
/// non-null value applied), the work counter the E20 harness audits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdatableMinHash {
    sig: Vec<u64>,
    /// Multiplicity of every non-null value currently in the multiset.
    counts: BTreeMap<Value, u64>,
}

impl UpdatableMinHash {
    /// An empty signature of length `k`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0);
        UpdatableMinHash {
            sig: vec![u64::MAX; k],
            counts: BTreeMap::new(),
        }
    }

    /// Build over a column's non-null cells (the cold path; not counted
    /// as incremental work). Each distinct value is hashed and cloned
    /// once, and the multiplicity map is built in bulk from the sorted
    /// groups.
    pub fn from_column(col: &Column, k: usize) -> Self {
        let mut m = UpdatableMinHash::new(k);
        let sig = &mut m.sig;
        m.counts = distinct_cells(col)
            .into_iter()
            .map(|(cell, n)| {
                lower(sig, cell.base_hash());
                (cell.to_value(), n)
            })
            .collect();
        m
    }

    /// Signature length.
    pub fn k(&self) -> usize {
        self.sig.len()
    }

    /// Exact number of distinct non-null values currently present.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// The current signature as an immutable [`MinHash`].
    pub fn minhash(&self) -> MinHash {
        MinHash {
            sig: self.sig.clone(),
        }
    }

    /// Insert one value (nulls are ignored, as in
    /// [`MinHash::from_values`]). Counts `sketch.incremental_updates`.
    pub fn insert(&mut self, v: Value) {
        if v.is_null() {
            return;
        }
        incremental_updates().inc();
        match self.counts.entry(v) {
            Entry::Occupied(mut e) => *e.get_mut() += 1,
            Entry::Vacant(e) => {
                let base = hash_value(e.key(), 0);
                e.insert(1);
                lower(&mut self.sig, base);
            }
        }
    }

    /// Remove one occurrence of each value, with the same result as
    /// removing them one at a time. Nulls are ignored; a value not
    /// present changes nothing, and the result is then `false` — the
    /// caller's multiset bookkeeping has diverged and a rebuild is in
    /// order. Counts `sketch.incremental_updates` once per present
    /// value.
    pub fn remove_all<I>(&mut self, values: I) -> bool
    where
        I: IntoIterator,
        I::Item: Borrow<Value>,
    {
        let mut all_present = true;
        let mut applied = 0;
        // positions whose minimum a departed value held
        let mut dirty = vec![false; self.sig.len()];
        for v in values {
            let v = v.borrow();
            if v.is_null() {
                continue;
            }
            let Some(c) = self.counts.get_mut(v) else {
                all_present = false;
                continue;
            };
            applied += 1;
            *c -= 1;
            if *c == 0 {
                self.counts.remove(v);
                let base = hash_value(v, 0);
                for (j, d) in dirty.iter_mut().enumerate() {
                    *d |= position_hash(base, j) == self.sig[j];
                }
            }
        }
        if applied > 0 {
            incremental_updates().add(applied);
        }
        let dirty: Vec<usize> = dirty
            .iter()
            .enumerate()
            .filter_map(|(j, &d)| d.then_some(j))
            .collect();
        if !dirty.is_empty() {
            // only a departed value can have held these minima, so they
            // are recomputed over the survivors, each hashed once
            for &j in &dirty {
                self.sig[j] = u64::MAX;
            }
            for w in self.counts.keys() {
                let base = hash_value(w, 0);
                for &j in &dirty {
                    let h = position_hash(base, j);
                    if h < self.sig[j] {
                        self.sig[j] = h;
                    }
                }
            }
        }
        all_present
    }
}

/// Exact Jaccard of two columns' distinct value sets (ground truth for
/// sketch evaluation).
pub fn exact_jaccard(a: &Table, ca: &str, b: &Table, cb: &str) -> rdi_table::Result<f64> {
    let sa: std::collections::BTreeSet<Value> = a.distinct(ca)?.into_iter().collect();
    let sb: std::collections::BTreeSet<Value> = b.distinct(cb)?.into_iter().collect();
    if sa.is_empty() && sb.is_empty() {
        return Ok(0.0);
    }
    let inter = sa.intersection(&sb).count();
    Ok(inter as f64 / (sa.len() + sb.len() - inter) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rdi_table::{DataType, Field, Schema};

    fn set(vals: &[&str]) -> Vec<Value> {
        vals.iter().map(|s| Value::str(*s)).collect()
    }

    fn str_column(vals: &[Value]) -> Column {
        let mut col = Column::empty(DataType::Str);
        for v in vals {
            col.push(v.clone(), "c").unwrap();
        }
        col
    }

    #[test]
    fn identical_sets_have_jaccard_one() {
        let a = set(&["x", "y", "z"]);
        let ma = MinHash::from_values(a.iter(), 64);
        let mb = MinHash::from_values(a.iter(), 64);
        assert_eq!(ma.jaccard(&mb), 1.0);
    }

    #[test]
    fn disjoint_sets_have_jaccard_near_zero() {
        let a: Vec<Value> = (0..100).map(|i| Value::str(format!("a{i}"))).collect();
        let b: Vec<Value> = (0..100).map(|i| Value::str(format!("b{i}"))).collect();
        let ma = MinHash::from_values(a.iter(), 128);
        let mb = MinHash::from_values(b.iter(), 128);
        assert!(ma.jaccard(&mb) < 0.05);
    }

    #[test]
    fn estimate_tracks_true_jaccard() {
        // |A| = 100, |B| = 150, |A∩B| = 50, |A∪B| = 200 → J = 1/4
        let a: Vec<Value> = (0..100).map(|i| Value::str(format!("v{i}"))).collect();
        let b: Vec<Value> = (50..200).map(|i| Value::str(format!("v{i}"))).collect();
        let ma = MinHash::from_values(a.iter(), 256);
        let mb = MinHash::from_values(b.iter(), 256);
        let est = ma.jaccard(&mb);
        assert!((est - 0.25).abs() < 0.08, "est={est}");
        // and the estimate agrees with the exact Jaccard of the sets
        let sa: std::collections::BTreeSet<&Value> = a.iter().collect();
        let sb: std::collections::BTreeSet<&Value> = b.iter().collect();
        let inter = sa.intersection(&sb).count() as f64;
        let union = (sa.len() + sb.len()) as f64 - inter;
        let exact = inter / union;
        assert!((est - exact).abs() < 0.08, "est={est} exact={exact}");
    }

    #[test]
    fn duplicates_and_nulls_ignored() {
        let a = [Value::str("x"), Value::str("x"), Value::Null];
        let b = [Value::str("x")];
        let ma = MinHash::from_values(a.iter(), 32);
        let mb = MinHash::from_values(b.iter(), 32);
        assert_eq!(ma.jaccard(&mb), 1.0);
    }

    #[test]
    #[should_panic(expected = "share k")]
    fn mismatched_k_panics() {
        let a = MinHash::from_values(set(&["x"]).iter(), 8);
        let b = MinHash::from_values(set(&["x"]).iter(), 16);
        a.jaccard(&b);
    }

    #[test]
    fn absorb_and_merge_equal_cold_build() {
        let a = set(&["p", "q", "r"]);
        let b = set(&["r", "s"]);
        let all: Vec<Value> = a.iter().chain(b.iter()).cloned().collect();
        let cold = MinHash::from_values(all.iter(), 64);
        // absorb appended values into a warm signature
        let mut warm = MinHash::from_values(a.iter(), 64);
        warm.absorb_values(b.iter());
        assert_eq!(warm, cold);
        // merge two independent signatures
        let merged = MinHash::from_values(a.iter(), 64).merge(&MinHash::from_values(b.iter(), 64));
        assert_eq!(merged, cold);
    }

    #[test]
    fn updatable_tracks_cold_build_under_churn() {
        let k = 64;
        let vals: Vec<Value> = (0..40).map(|i| Value::str(format!("v{i}"))).collect();
        let mut u = UpdatableMinHash::from_column(&str_column(&vals), k);
        assert_eq!(u.minhash(), MinHash::from_values(vals.iter(), k));
        assert_eq!(u.distinct(), 40);

        // inserts (including a duplicate) stay exact
        let extra = [Value::str("v7"), Value::str("new_a"), Value::str("new_b")];
        for v in &extra {
            u.insert(v.clone());
        }
        let mut now: Vec<Value> = vals.clone();
        now.extend(extra.iter().cloned());
        assert_eq!(u.minhash(), MinHash::from_values(now.iter(), k));
        assert_eq!(u.distinct(), 42);

        // removals stay exact — including removing a value that held
        // signature minima, which forces position repair
        assert!(u.remove_all([Value::str("v7"), Value::str("v0"), Value::str("v1")]));
        // multiset now: v7 still present once (was duplicated), v0/v1
        // gone entirely — the signature only sees the distinct set
        let mut reference: Vec<Value> = now
            .iter()
            .filter(|v| **v != Value::str("v0") && **v != Value::str("v1"))
            .cloned()
            .collect();
        reference.sort();
        reference.dedup();
        assert_eq!(u.minhash(), MinHash::from_values(reference.iter(), k));
        assert_eq!(u.distinct(), reference.len());

        // removing an absent value reports divergence
        assert!(!u.remove_all([Value::str("never_seen")]));
        // nulls are ignored on both paths
        u.insert(Value::Null);
        assert!(u.remove_all([Value::Null]));
    }

    #[test]
    fn updatable_drains_to_empty_signature() {
        let vals = set(&["x", "y"]);
        let mut u = UpdatableMinHash::from_column(&str_column(&vals), 16);
        assert!(u.remove_all(&vals));
        assert_eq!(u.distinct(), 0);
        assert_eq!(u.minhash().signature(), vec![u64::MAX; 16].as_slice());
    }

    /// The build `UpdatableMinHash::from_column` replaced: one map
    /// insert per row, in row order, over owned values.
    fn value_stream_build(values: &[Value], k: usize) -> UpdatableMinHash {
        let mut m = UpdatableMinHash::new(k);
        for v in values.iter().filter(|v| !v.is_null()) {
            let c = m.counts.entry(v.clone()).or_insert(0);
            *c += 1;
            if *c == 1 {
                lower(&mut m.sig, hash_value(v, 0));
            }
        }
        m
    }

    const TYPES: [DataType; 4] = [
        DataType::Int,
        DataType::Float,
        DataType::Str,
        DataType::Bool,
    ];

    /// Cell `i` of a column of type `TYPES[ty]`: the first few are the
    /// values grouping can get wrong (ints equal as `f64`, `±0.0`,
    /// `NaN` (stored as null), empty and non-ASCII strings).
    fn edge_value(ty: usize, i: usize) -> Value {
        const INTS: [i64; 6] = [0, -1, 1 << 53, (1 << 53) + 1, i64::MIN, i64::MAX];
        const FLOATS: [f64; 7] = [
            0.0,
            -0.0,
            1.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
            9e15,
            f64::NAN,
        ];
        const STRS: [&str; 6] = ["", "a", "A", "é", "表#𝔘", "a\0"];
        match ty {
            0 => Value::Int(INTS.get(i).copied().unwrap_or(i as i64 * 7919)),
            1 => Value::Float(FLOATS.get(i).copied().unwrap_or(i as f64 / 3.0)),
            2 => Value::str(
                STRS.get(i)
                    .map_or_else(|| format!("s{i}"), |s| s.to_string()),
            ),
            _ => Value::Bool(i.is_multiple_of(2)),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `from_column` — both the updatable and the cold form — equals
        /// the value-stream build over the same cells: signature,
        /// distinct count, multiplicities and each value's
        /// representative (the `Debug` text shows `Int(2^53)` and
        /// `Int(2^53+1)` apart), for every column type, with nulls,
        /// all-null and empty columns and heavy duplicates.
        #[test]
        fn from_column_matches_value_stream_build(
            ty in 0usize..4,
            cells in prop::collection::vec((0u32..100, 0usize..14), 0..60),
            null_pct in prop_oneof![Just(0u32), Just(30), Just(100)],
            k in prop_oneof![Just(1usize), Just(16), Just(64)],
        ) {
            let mut col = Column::empty(TYPES[ty]);
            for &(p, i) in &cells {
                let v = if p < null_pct { Value::Null } else { edge_value(ty, i) };
                col.push(v, "c").unwrap();
            }
            let values: Vec<Value> = (0..col.len()).map(|ri| col.value(ri)).collect();
            let built = UpdatableMinHash::from_column(&col, k);
            let reference = value_stream_build(&values, k);
            prop_assert_eq!(format!("{built:?}"), format!("{reference:?}"));
            prop_assert_eq!(built.distinct(), reference.distinct());
            prop_assert_eq!(built.minhash(), MinHash::from_values(&values, k));

            let mut table = Table::new(Schema::new(vec![Field::new("c", TYPES[ty])]));
            for v in values.iter() {
                table.push_row(vec![v.clone()]).unwrap();
            }
            prop_assert_eq!(MinHash::from_column(&table, "c", k).unwrap(), built.minhash());
        }
    }

    #[test]
    fn exact_jaccard_reference() {
        let schema = Schema::new(vec![Field::new("c", DataType::Str)]);
        let mut ta = Table::new(schema.clone());
        let mut tb = Table::new(schema);
        for v in ["x", "y"] {
            ta.push_row(vec![Value::str(v)]).unwrap();
        }
        for v in ["y", "z"] {
            tb.push_row(vec![Value::str(v)]).unwrap();
        }
        assert!((exact_jaccard(&ta, "c", &tb, "c").unwrap() - 1.0 / 3.0).abs() < 1e-12);
    }
}
