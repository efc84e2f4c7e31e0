//! Typed column storage.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::error::TableError;
use crate::schema::DataType;
use crate::value::Value;
use crate::Result;

/// A single column of typed, nullable values.
///
/// Storage is a `Vec<Option<T>>` per type. This keeps the substrate simple
/// and auditable; a null bitmap + dense vector would be faster but is not
/// needed at the scales the RDI experiments run at (≤ tens of millions of
/// cells).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Column {
    /// Integer column.
    Int(Vec<Option<i64>>),
    /// Float column.
    Float(Vec<Option<f64>>),
    /// String column.
    Str(Vec<Option<String>>),
    /// Boolean column.
    Bool(Vec<Option<bool>>),
}

impl Column {
    /// Create an empty column of the given type.
    pub fn empty(dtype: DataType) -> Self {
        match dtype {
            DataType::Int => Column::Int(Vec::new()),
            DataType::Float => Column::Float(Vec::new()),
            DataType::Str => Column::Str(Vec::new()),
            DataType::Bool => Column::Bool(Vec::new()),
        }
    }

    /// Create an empty column with reserved capacity.
    pub fn with_capacity(dtype: DataType, cap: usize) -> Self {
        match dtype {
            DataType::Int => Column::Int(Vec::with_capacity(cap)),
            DataType::Float => Column::Float(Vec::with_capacity(cap)),
            DataType::Str => Column::Str(Vec::with_capacity(cap)),
            DataType::Bool => Column::Bool(Vec::with_capacity(cap)),
        }
    }

    /// The column's data type.
    pub fn dtype(&self) -> DataType {
        match self {
            Column::Int(_) => DataType::Int,
            Column::Float(_) => DataType::Float,
            Column::Str(_) => DataType::Str,
            Column::Bool(_) => DataType::Bool,
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(v) => v.len(),
            Column::Float(v) => v.len(),
            Column::Str(v) => v.len(),
            Column::Bool(v) => v.len(),
        }
    }

    /// True iff the column has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of null cells.
    pub fn null_count(&self) -> usize {
        match self {
            Column::Int(v) => v.iter().filter(|x| x.is_none()).count(),
            Column::Float(v) => v.iter().filter(|x| x.is_none()).count(),
            Column::Str(v) => v.iter().filter(|x| x.is_none()).count(),
            Column::Bool(v) => v.iter().filter(|x| x.is_none()).count(),
        }
    }

    /// The value at row `i` as a dynamic [`Value`].
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    pub fn value(&self, i: usize) -> Value {
        match self {
            Column::Int(v) => v[i].map_or(Value::Null, Value::Int),
            Column::Float(v) => v[i].map_or(Value::Null, Value::Float),
            Column::Str(v) => v[i].clone().map_or(Value::Null, Value::Str),
            Column::Bool(v) => v[i].map_or(Value::Null, Value::Bool),
        }
    }

    /// Push a dynamic value, checking its type against the column type.
    ///
    /// `Int` values are accepted into `Float` columns (widening); float
    /// `NaN` is stored as null.
    pub fn push(&mut self, value: Value, column_name: &str) -> Result<()> {
        let mismatch = |expected: &'static str, got: &Value| TableError::TypeMismatch {
            column: column_name.to_string(),
            expected,
            got: format!("{got:?}"),
        };
        match (self, value) {
            (Column::Int(v), Value::Int(x)) => v.push(Some(x)),
            (Column::Int(v), Value::Null) => v.push(None),
            (Column::Float(v), Value::Float(x)) => v.push(if x.is_nan() { None } else { Some(x) }),
            (Column::Float(v), Value::Int(x)) => v.push(Some(x as f64)),
            (Column::Float(v), Value::Null) => v.push(None),
            (Column::Str(v), Value::Str(x)) => v.push(Some(x)),
            (Column::Str(v), Value::Null) => v.push(None),
            (Column::Bool(v), Value::Bool(x)) => v.push(Some(x)),
            (Column::Bool(v), Value::Null) => v.push(None),
            (col, v) => return Err(mismatch(col.dtype().name(), &v)),
        }
        Ok(())
    }

    /// Overwrite the cell at row `i` with a (type-checked) value.
    pub fn set(&mut self, i: usize, value: Value, column_name: &str) -> Result<()> {
        if i >= self.len() {
            return Err(TableError::RowOutOfBounds {
                index: i,
                len: self.len(),
            });
        }
        let mismatch = |expected: &'static str, got: &Value| TableError::TypeMismatch {
            column: column_name.to_string(),
            expected,
            got: format!("{got:?}"),
        };
        match (self, value) {
            (Column::Int(v), Value::Int(x)) => v[i] = Some(x),
            (Column::Int(v), Value::Null) => v[i] = None,
            (Column::Float(v), Value::Float(x)) => v[i] = if x.is_nan() { None } else { Some(x) },
            (Column::Float(v), Value::Int(x)) => v[i] = Some(x as f64),
            (Column::Float(v), Value::Null) => v[i] = None,
            (Column::Str(v), Value::Str(x)) => v[i] = Some(x),
            (Column::Str(v), Value::Null) => v[i] = None,
            (Column::Bool(v), Value::Bool(x)) => v[i] = Some(x),
            (Column::Bool(v), Value::Null) => v[i] = None,
            (col, v) => return Err(mismatch(col.dtype().name(), &v)),
        }
        Ok(())
    }

    /// Gather the cells at `indices` into a new column (clone semantics).
    pub fn gather(&self, indices: &[usize]) -> Column {
        match self {
            Column::Int(v) => Column::Int(indices.iter().map(|&i| v[i]).collect()),
            Column::Float(v) => Column::Float(indices.iter().map(|&i| v[i]).collect()),
            Column::Str(v) => Column::Str(indices.iter().map(|&i| v[i].clone()).collect()),
            Column::Bool(v) => Column::Bool(indices.iter().map(|&i| v[i]).collect()),
        }
    }

    /// Append all cells from `other` (must have the same dtype).
    pub fn extend_from(&mut self, other: &Column) -> Result<()> {
        match (self, other) {
            (Column::Int(a), Column::Int(b)) => a.extend_from_slice(b),
            (Column::Float(a), Column::Float(b)) => a.extend_from_slice(b),
            (Column::Str(a), Column::Str(b)) => a.extend(b.iter().cloned()),
            (Column::Bool(a), Column::Bool(b)) => a.extend_from_slice(b),
            (a, b) => {
                return Err(TableError::SchemaMismatch(format!(
                    "cannot append {} column to {} column",
                    b.dtype().name(),
                    a.dtype().name()
                )))
            }
        }
        Ok(())
    }

    /// Iterator over cells as `f64` (nulls and non-numeric cells are `None`).
    pub fn iter_f64(&self) -> Box<dyn Iterator<Item = Option<f64>> + '_> {
        match self {
            Column::Int(v) => Box::new(v.iter().map(|x| x.map(|i| i as f64))),
            Column::Float(v) => Box::new(v.iter().copied()),
            Column::Bool(v) => Box::new(v.iter().map(|x| x.map(|b| if b { 1.0 } else { 0.0 }))),
            Column::Str(v) => Box::new(v.iter().map(|_| None)),
        }
    }

    /// Non-null numeric values of the column.
    pub fn numeric_values(&self) -> Vec<f64> {
        self.iter_f64().flatten().collect()
    }

    /// Borrowed string cells, if this is a string column.
    pub fn as_str_slice(&self) -> Option<&[Option<String>]> {
        match self {
            Column::Str(v) => Some(v),
            _ => None,
        }
    }

    /// Borrowed integer cells, if this is an integer column.
    pub fn as_int_slice(&self) -> Option<&[Option<i64>]> {
        match self {
            Column::Int(v) => Some(v),
            _ => None,
        }
    }

    /// Borrowed float cells, if this is a float column.
    pub fn as_float_slice(&self) -> Option<&[Option<f64>]> {
        match self {
            Column::Float(v) => Some(v),
            _ => None,
        }
    }

    /// Dictionary-encode the column: its sorted distinct non-null values
    /// (exactly what [`crate::Table::distinct`] returns) plus, per row,
    /// the index of the row's value among them (`None` for null).
    ///
    /// Cells are interned through a map over *borrowed* cells and then
    /// renumbered in sorted order, so only the distinct values are
    /// cloned. Cells that compare equal as [`Value`]s share one code —
    /// e.g. two `Int`s that coincide as `f64`, such as 2^53 and 2^53+1 —
    /// and the first occurrence in row order is the representative, the
    /// element a stable sort + dedup would keep. `-0.0` and `0.0` stay
    /// distinct, as under [`Value::total_cmp`].
    ///
    /// Codes are `u32`: a column is assumed to hold fewer than 2^32
    /// distinct values.
    pub fn encode(&self) -> (Vec<Value>, Vec<Option<u32>>) {
        match self {
            Column::Int(v) => encode_cells(v, |x| TotalF64(*x as f64), |x| Value::Int(*x)),
            Column::Float(v) => encode_cells(v, |x| TotalF64(*x), |x| Value::Float(*x)),
            Column::Str(v) => encode_cells(v, String::as_str, |x| Value::Str(x.clone())),
            Column::Bool(v) => encode_cells(v, |x| *x, |x| Value::Bool(*x)),
        }
    }
}

/// An `f64` ordered by [`f64::total_cmp`] — the order [`Value`] gives
/// every numeric cell.
struct TotalF64(f64);

impl PartialEq for TotalF64 {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for TotalF64 {}

impl PartialOrd for TotalF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TotalF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// [`Column::encode`] over one typed cell slice: `key` borrows a cell
/// under the order [`Value`] gives it, `value` clones a representative.
fn encode_cells<'a, T, K: Ord>(
    cells: &'a [Option<T>],
    key: impl Fn(&'a T) -> K,
    value: impl Fn(&T) -> Value,
) -> (Vec<Value>, Vec<Option<u32>>) {
    // key -> first-seen id; `firsts[id]` is that id's representative
    let mut ids: BTreeMap<K, u32> = BTreeMap::new();
    let mut firsts: Vec<&T> = Vec::new();
    let mut codes: Vec<Option<u32>> = cells
        .iter()
        .map(|cell| {
            cell.as_ref().map(|x| {
                *ids.entry(key(x)).or_insert_with(|| {
                    firsts.push(x);
                    (firsts.len() - 1) as u32
                })
            })
        })
        .collect();
    // renumber first-seen ids into sorted order
    let mut rank = vec![0u32; firsts.len()];
    let mut distinct = Vec::with_capacity(firsts.len());
    for (r, id) in ids.into_values().enumerate() {
        rank[id as usize] = r as u32;
        distinct.push(value(firsts[id as usize]));
    }
    for code in codes.iter_mut().flatten() {
        *code = rank[*code as usize];
    }
    (distinct, codes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn push_and_read_back() {
        let mut c = Column::empty(DataType::Int);
        c.push(Value::Int(5), "c").unwrap();
        c.push(Value::Null, "c").unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.value(0), Value::Int(5));
        assert!(c.value(1).is_null());
        assert_eq!(c.null_count(), 1);
    }

    #[test]
    fn int_widens_into_float() {
        let mut c = Column::empty(DataType::Float);
        c.push(Value::Int(3), "c").unwrap();
        assert_eq!(c.value(0), Value::Float(3.0));
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut c = Column::empty(DataType::Int);
        let err = c.push(Value::str("x"), "age").unwrap_err();
        assert!(matches!(err, TableError::TypeMismatch { .. }));
        assert!(err.to_string().contains("age"));
    }

    #[test]
    fn nan_stored_as_null() {
        let mut c = Column::empty(DataType::Float);
        c.push(Value::Float(f64::NAN), "c").unwrap();
        assert!(c.value(0).is_null());
    }

    #[test]
    fn gather_reorders_and_repeats() {
        let mut c = Column::empty(DataType::Str);
        for s in ["a", "b", "c"] {
            c.push(Value::str(s), "c").unwrap();
        }
        let g = c.gather(&[2, 0, 0]);
        assert_eq!(g.value(0), Value::str("c"));
        assert_eq!(g.value(1), Value::str("a"));
        assert_eq!(g.value(2), Value::str("a"));
    }

    #[test]
    fn set_overwrites() {
        let mut c = Column::empty(DataType::Bool);
        c.push(Value::Bool(true), "c").unwrap();
        c.set(0, Value::Bool(false), "c").unwrap();
        assert_eq!(c.value(0), Value::Bool(false));
        assert!(c.set(5, Value::Bool(true), "c").is_err());
    }

    #[test]
    fn extend_from_same_type() {
        let mut a = Column::empty(DataType::Int);
        a.push(Value::Int(1), "a").unwrap();
        let mut b = Column::empty(DataType::Int);
        b.push(Value::Int(2), "b").unwrap();
        a.extend_from(&b).unwrap();
        assert_eq!(a.len(), 2);
        let s = Column::empty(DataType::Str);
        assert!(a.extend_from(&s).is_err());
    }

    #[test]
    fn numeric_values_skip_nulls() {
        let mut c = Column::empty(DataType::Float);
        c.push(Value::Float(1.5), "c").unwrap();
        c.push(Value::Null, "c").unwrap();
        assert_eq!(c.numeric_values(), vec![1.5]);
    }

    const TWO_53: i64 = 1 << 53;

    #[test]
    fn encode_keeps_the_first_of_values_equal_as_f64() {
        let c = Column::Int(vec![Some(TWO_53 + 1), None, Some(TWO_53), Some(-1)]);
        let (distinct, codes) = c.encode();
        assert_eq!(exact(&distinct), ["Int(-1)", "Int(9007199254740993)"]);
        assert_eq!(codes, [Some(1), None, Some(1), Some(0)]);
    }

    #[test]
    fn encode_separates_signed_zeros() {
        let c = Column::Float(vec![Some(0.0), Some(-0.0), Some(0.0)]);
        let (distinct, codes) = c.encode();
        assert_eq!(exact(&distinct), ["Float(-0.0)", "Float(0.0)"]);
        assert_eq!(codes, [Some(1), Some(0), Some(1)]);
    }

    /// Values rendered with `Debug`, which tells apart cells `Value`'s
    /// `==` equates (2^53 vs 2^53+1, `Int(1)` vs `Float(1.0)`).
    fn exact(values: &[Value]) -> Vec<String> {
        values.iter().map(|v| format!("{v:?}")).collect()
    }

    /// The encoding spelled out: a stable sort + dedup of every non-null
    /// cell, then a per-row `==` lookup into the result.
    fn encode_by_sort(c: &Column) -> (Vec<Value>, Vec<Option<u32>>) {
        let cells: Vec<Value> = (0..c.len()).map(|i| c.value(i)).collect();
        let mut distinct: Vec<Value> = cells.iter().filter(|v| !v.is_null()).cloned().collect();
        distinct.sort();
        distinct.dedup();
        let codes = cells
            .iter()
            .map(|v| match v {
                Value::Null => None,
                v => distinct.iter().position(|d| d == v).map(|p| p as u32),
            })
            .collect();
        (distinct, codes)
    }

    fn cells<T: Clone + std::fmt::Debug + 'static>(
        pool: Vec<T>,
    ) -> impl Strategy<Value = Vec<Option<T>>> {
        let n = pool.len();
        let cell = prop_oneof![
            4 => (0..n).prop_map(move |i| Some(pool[i].clone())),
            1 => Just(None),
        ];
        prop::collection::vec(cell, 0..40)
    }

    fn arb_column() -> BoxedStrategy<Column> {
        let ints = vec![-2, -1, 0, 1, 2, TWO_53, TWO_53 + 1, i64::MAX, i64::MAX - 1];
        let floats = vec![-0.0, 0.0, -1.5, 1.0, 2.5, TWO_53 as f64];
        let strs: Vec<String> = ["", "a", "b", "ab", "B"].map(String::from).to_vec();
        prop_oneof![
            cells(ints).prop_map(Column::Int),
            cells(floats).prop_map(Column::Float),
            cells(strs).prop_map(Column::Str),
            cells(vec![false, true]).prop_map(Column::Bool),
        ]
        .boxed()
    }

    proptest! {
        /// `encode` is `Table::distinct` (sort + dedup, first occurrence
        /// kept) plus a per-row `==` lookup, on every column type.
        #[test]
        fn encode_matches_sort_dedup_and_lookup(c in arb_column()) {
            let (distinct, codes) = c.encode();
            let (want_distinct, want_codes) = encode_by_sort(&c);
            prop_assert_eq!(exact(&distinct), exact(&want_distinct));
            prop_assert_eq!(codes, want_codes);
        }
    }
}
