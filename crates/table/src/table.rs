//! The [`Table`]: a schema plus typed columns.

use std::sync::Arc;

use crate::column::{Column, ColumnCodes, Encoded};
use crate::error::TableError;
use crate::predicate::Predicate;
use crate::schema::{DataType, Schema};
use crate::value::Value;
use crate::Result;

/// An in-memory columnar table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    schema: Schema,
    columns: Vec<Column>,
    num_rows: usize,
}

impl Table {
    /// Create an empty table with the given schema.
    pub fn new(schema: Schema) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::empty(f.dtype))
            .collect();
        Table {
            schema,
            columns,
            num_rows: 0,
        }
    }

    /// Create an empty table with reserved row capacity.
    pub fn with_capacity(schema: Schema, cap: usize) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::with_capacity(f.dtype, cap))
            .collect();
        Table {
            schema,
            columns,
            num_rows: 0,
        }
    }

    /// Build a table directly from columns (must match the schema's types
    /// and all have equal length).
    pub fn from_columns(schema: Schema, columns: Vec<Column>) -> Result<Table> {
        if schema.len() != columns.len() {
            return Err(TableError::ArityMismatch {
                expected: schema.len(),
                got: columns.len(),
            });
        }
        let num_rows = columns.first().map_or(0, Column::len);
        for (f, c) in schema.fields().iter().zip(&columns) {
            if f.dtype != c.dtype() {
                return Err(TableError::TypeMismatch {
                    column: f.name.clone(),
                    expected: f.dtype.name(),
                    got: c.dtype().name().to_string(),
                });
            }
            if c.len() != num_rows {
                return Err(TableError::SchemaMismatch(format!(
                    "column `{}` has {} rows, expected {}",
                    f.name,
                    c.len(),
                    num_rows
                )));
            }
        }
        Ok(Table {
            schema,
            columns,
            num_rows,
        })
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// True iff the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.num_rows == 0
    }

    /// The column with the given name.
    pub fn column(&self, name: &str) -> Result<&Column> {
        Ok(&self.columns[self.schema.index_of(name)?])
    }

    /// The column at the given position.
    pub fn column_at(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Append one row of values (one per column, in schema order).
    pub fn push_row(&mut self, values: Vec<Value>) -> Result<()> {
        if values.len() != self.columns.len() {
            return Err(TableError::ArityMismatch {
                expected: self.columns.len(),
                got: values.len(),
            });
        }
        // Validate all values first so a failed push leaves the table
        // unchanged (columns of equal length).
        for (v, f) in values.iter().zip(self.schema.fields()) {
            let ok = matches!(
                (f.dtype, v),
                (_, Value::Null)
                    | (DataType::Int, Value::Int(_))
                    | (DataType::Float, Value::Float(_) | Value::Int(_))
                    | (DataType::Str, Value::Str(_))
                    | (DataType::Bool, Value::Bool(_))
            );
            if !ok {
                return Err(TableError::TypeMismatch {
                    column: f.name.clone(),
                    expected: f.dtype.name(),
                    got: format!("{v:?}"),
                });
            }
        }
        for ((col, v), f) in self
            .columns
            .iter_mut()
            .zip(values)
            .zip(self.schema.fields())
        {
            #[expect(
                clippy::expect_used,
                reason = "the type-check loop above already rejected mismatched values"
            )]
            col.push(v, &f.name).expect("validated above");
        }
        self.num_rows += 1;
        Ok(())
    }

    /// The row at index `i` as dynamic values.
    pub fn row(&self, i: usize) -> Result<Vec<Value>> {
        if i >= self.num_rows {
            return Err(TableError::RowOutOfBounds {
                index: i,
                len: self.num_rows,
            });
        }
        Ok(self.columns.iter().map(|c| c.value(i)).collect())
    }

    /// The cell at row `i`, column `name`.
    pub fn value(&self, i: usize, name: &str) -> Result<Value> {
        if i >= self.num_rows {
            return Err(TableError::RowOutOfBounds {
                index: i,
                len: self.num_rows,
            });
        }
        Ok(self.column(name)?.value(i))
    }

    /// Overwrite the cell at row `i`, column `name`.
    pub fn set_value(&mut self, i: usize, name: &str, value: Value) -> Result<()> {
        let idx = self.schema.index_of(name)?;
        let fname = self.schema.fields()[idx].name.clone();
        self.columns[idx].set(i, value, &fname)
    }

    /// Row indices for which the predicate holds.
    pub fn matching_indices(&self, pred: &Predicate) -> Vec<usize> {
        (0..self.num_rows).filter(|&i| pred.eval(self, i)).collect()
    }

    /// A new table containing the rows matching the predicate.
    pub fn filter(&self, pred: &Predicate) -> Table {
        self.take(&self.matching_indices(pred))
    }

    /// A new table containing exactly the rows at `indices` (in order,
    /// duplicates allowed — this is a gather, so it doubles as sampling
    /// with replacement).
    pub fn take(&self, indices: &[usize]) -> Table {
        let columns: Vec<Column> = self.columns.iter().map(|c| c.gather(indices)).collect();
        Table {
            schema: self.schema.clone(),
            columns,
            num_rows: indices.len(),
        }
    }

    /// Move the rows at `sorted` (ascending, distinct, in bounds) out
    /// into a new table, keeping the rest in place: the cells move, and
    /// none is cloned.
    pub(crate) fn remove_sorted_rows(&mut self, sorted: &[usize]) -> Table {
        let columns = self
            .columns
            .iter_mut()
            .map(|c| c.remove_sorted(sorted))
            .collect();
        self.num_rows -= sorted.len();
        Table {
            schema: self.schema.clone(),
            columns,
            num_rows: sorted.len(),
        }
    }

    /// A new table with only the named columns.
    pub fn select(&self, names: &[&str]) -> Result<Table> {
        let schema = self.schema.project(names)?;
        let mut columns = Vec::with_capacity(names.len());
        for n in names {
            columns.push(self.column(n)?.clone());
        }
        Ok(Table {
            schema,
            columns,
            num_rows: self.num_rows,
        })
    }

    /// Append all rows of `other` (schemas must be identical).
    pub fn append(&mut self, other: &Table) -> Result<()> {
        if self.schema != other.schema {
            return Err(TableError::SchemaMismatch(
                "append requires identical schemas".to_string(),
            ));
        }
        for (a, b) in self.columns.iter_mut().zip(&other.columns) {
            a.extend_from(b)?;
        }
        self.num_rows += other.num_rows;
        Ok(())
    }

    /// Vertically concatenate tables with identical schemas.
    pub fn concat(tables: &[&Table]) -> Result<Table> {
        let first = tables
            .first()
            .ok_or_else(|| TableError::SchemaMismatch("concat of zero tables".into()))?;
        let mut out = Table::new(first.schema.clone());
        for t in tables {
            out.append(t)?;
        }
        Ok(out)
    }

    /// Fraction of cells that are null, per column.
    pub fn null_fractions(&self) -> Vec<(String, f64)> {
        self.schema
            .fields()
            .iter()
            .zip(&self.columns)
            .map(|(f, c)| {
                let frac = if self.num_rows == 0 {
                    0.0
                } else {
                    c.null_count() as f64 / self.num_rows as f64
                };
                (f.name.clone(), frac)
            })
            .collect()
    }

    /// Distinct non-null values of a column, sorted.
    pub fn distinct(&self, name: &str) -> Result<Vec<Value>> {
        Ok(self.column(name)?.encode().distinct)
    }

    /// Mean of a numeric column over non-null cells (None if no such cells).
    pub fn mean(&self, name: &str) -> Result<Option<f64>> {
        let vals = self.column(name)?.numeric_values();
        if vals.is_empty() {
            return Ok(None);
        }
        Ok(Some(vals.iter().sum::<f64>() / vals.len() as f64))
    }

    /// Sum of a numeric column over non-null cells.
    pub fn sum(&self, name: &str) -> Result<f64> {
        Ok(self.column(name)?.numeric_values().iter().sum())
    }

    /// Exact `q`-quantile (0 ≤ q ≤ 1) of a numeric column over non-null
    /// cells, using the nearest-rank definition (`q = 0.5` is the lower
    /// median). `None` when the column has no numeric cells.
    ///
    /// # Panics
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, name: &str, q: f64) -> Result<Option<f64>> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        let mut vals = self.column(name)?.numeric_values();
        if vals.is_empty() {
            return Ok(None);
        }
        vals.sort_by(f64::total_cmp);
        let rank = ((q * vals.len() as f64).ceil() as usize).clamp(1, vals.len());
        Ok(Some(vals[rank - 1]))
    }

    /// Row indices that sort the table ascending by a column (nulls
    /// first, consistent with [`Value`] ordering); stable.
    pub fn sort_indices(&self, name: &str) -> Result<Vec<usize>> {
        let col = self.column(name)?;
        let mut idx: Vec<usize> = (0..self.num_rows).collect();
        idx.sort_by_key(|&a| col.value(a));
        Ok(idx)
    }

    /// A new table sorted ascending by the given column.
    pub fn sort_by(&self, name: &str) -> Result<Table> {
        Ok(self.take(&self.sort_indices(name)?))
    }

    /// Render the first `limit` rows as a compact ASCII table (debugging).
    pub fn preview(&self, limit: usize) -> String {
        let mut out = String::new();
        let names: Vec<&str> = self
            .schema
            .fields()
            .iter()
            .map(|f| f.name.as_str())
            .collect();
        out.push_str(&names.join(" | "));
        out.push('\n');
        for i in 0..self.num_rows.min(limit) {
            let row: Vec<String> = self
                .columns
                .iter()
                .map(|c| c.value(i).to_string())
                .collect();
            out.push_str(&row.join(" | "));
            out.push('\n');
        }
        if self.num_rows > limit {
            out.push_str(&format!("... ({} rows total)\n", self.num_rows));
        }
        out
    }
}

/// A table encodes the named column afresh on every call.
impl ColumnCodes for Table {
    fn codes(&self, column: &str) -> Result<Arc<Encoded>> {
        Ok(Arc::new(self.column(column)?.encode()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Field, Role};

    fn people() -> Table {
        let schema = Schema::new(vec![
            Field::new("age", DataType::Int),
            Field::new("race", DataType::Str).with_role(Role::Sensitive),
            Field::new("score", DataType::Float),
        ]);
        let mut t = Table::new(schema);
        for (a, r, s) in [
            (30, "white", 0.9),
            (40, "black", 0.8),
            (25, "white", 0.7),
            (55, "asian", 0.6),
        ] {
            t.push_row(vec![Value::Int(a), Value::str(r), Value::Float(s)])
                .unwrap();
        }
        t
    }

    #[test]
    fn push_and_row_roundtrip() {
        let t = people();
        assert_eq!(t.num_rows(), 4);
        assert_eq!(
            t.row(1).unwrap(),
            vec![Value::Int(40), Value::str("black"), Value::Float(0.8)]
        );
        assert!(t.row(4).is_err());
    }

    #[test]
    fn failed_push_leaves_table_consistent() {
        let mut t = people();
        let err = t.push_row(vec![Value::str("oops"), Value::Null, Value::Null]);
        assert!(err.is_err());
        assert_eq!(t.num_rows(), 4);
        // all columns still equal length
        for i in 0..t.num_columns() {
            assert_eq!(t.column_at(i).len(), 4);
        }
    }

    #[test]
    fn filter_by_predicate() {
        let t = people();
        let f = t.filter(&Predicate::ge("age", Value::Int(40)));
        assert_eq!(f.num_rows(), 2);
        assert_eq!(f.value(0, "race").unwrap(), Value::str("black"));
    }

    #[test]
    fn take_allows_duplicates() {
        let t = people();
        let s = t.take(&[0, 0, 3]);
        assert_eq!(s.num_rows(), 3);
        assert_eq!(s.value(0, "age").unwrap(), s.value(1, "age").unwrap());
    }

    #[test]
    fn select_projects_columns() {
        let t = people();
        let p = t.select(&["score", "age"]).unwrap();
        assert_eq!(p.num_columns(), 2);
        assert_eq!(p.schema().fields()[0].name, "score");
        assert_eq!(p.num_rows(), 4);
    }

    #[test]
    fn append_and_concat() {
        let a = people();
        let b = people();
        let c = Table::concat(&[&a, &b]).unwrap();
        assert_eq!(c.num_rows(), 8);

        let different = Table::new(Schema::new(vec![Field::new("x", DataType::Int)]));
        let mut a2 = people();
        assert!(a2.append(&different).is_err());
    }

    #[test]
    fn aggregates() {
        let t = people();
        assert_eq!(t.mean("age").unwrap().unwrap(), 37.5);
        assert!((t.sum("score").unwrap() - 3.0).abs() < 1e-12);
        assert_eq!(t.distinct("race").unwrap().len(), 3);
    }

    #[test]
    fn quantiles_nearest_rank() {
        let t = people();
        // ages sorted: 25, 30, 40, 55
        assert_eq!(t.quantile("age", 0.5).unwrap().unwrap(), 30.0);
        assert_eq!(t.quantile("age", 0.0).unwrap().unwrap(), 25.0);
        assert_eq!(t.quantile("age", 1.0).unwrap().unwrap(), 55.0);
        assert_eq!(t.quantile("age", 0.75).unwrap().unwrap(), 40.0);
        // empty numeric column
        let schema = Schema::new(vec![Field::new("x", DataType::Float)]);
        let empty = Table::new(schema);
        assert_eq!(empty.quantile("x", 0.5).unwrap(), None);
    }

    #[test]
    #[should_panic(expected = "quantile must be")]
    fn quantile_range_checked() {
        people().quantile("age", 1.5).unwrap();
    }

    #[test]
    fn sort_by_orders_rows() {
        let t = people();
        let s = t.sort_by("age").unwrap();
        let ages: Vec<i64> = (0..s.num_rows())
            .map(|i| s.value(i, "age").unwrap().as_i64().unwrap())
            .collect();
        assert_eq!(ages, vec![25, 30, 40, 55]);
        // sorting by string column works too (lexicographic)
        let r = t.sort_by("race").unwrap();
        assert_eq!(r.value(0, "race").unwrap(), Value::str("asian"));
    }

    #[test]
    fn null_fractions_counts_missing() {
        let schema = Schema::new(vec![Field::new("x", DataType::Float)]);
        let mut t = Table::new(schema);
        t.push_row(vec![Value::Float(1.0)]).unwrap();
        t.push_row(vec![Value::Null]).unwrap();
        let nf = t.null_fractions();
        assert_eq!(nf[0].1, 0.5);
    }

    #[test]
    fn set_value_overwrites() {
        let mut t = people();
        t.set_value(0, "age", Value::Int(99)).unwrap();
        assert_eq!(t.value(0, "age").unwrap(), Value::Int(99));
        assert!(t.set_value(0, "nope", Value::Int(1)).is_err());
    }
}
