//! Row-level table deltas for churning lakes.
//!
//! A live lake is not a set of frozen tables: sources are appended to,
//! corrected, and dropped continuously. [`TableDelta`] is the typed
//! vocabulary for those mutations — the unit of work that incremental
//! sketch maintenance (`rdi-serve`) is charged against, so "warm-path
//! work is O(delta)" has a concrete denominator: [`TableDelta::rows`].

use crate::error::TableError;
use crate::table::Table;
use crate::Result;

/// One mutation of a registered table.
///
/// Deltas are *data*, not closures: a delta stream can be generated,
/// logged, replayed, and applied to two independent copies of a lake
/// with bitwise-identical results (the property the E20 harness and
/// the churn determinism proptest check).
#[derive(Debug, Clone, PartialEq)]
pub enum TableDelta {
    /// Append every row of the payload table (schemas must match).
    Append(Table),
    /// Delete the rows at these indices (positions in the table as it
    /// is *before* this delta; duplicates are ignored).
    Delete(Vec<usize>),
    /// Drop the table entirely.
    Drop,
}

impl TableDelta {
    /// Stable label for metrics and reports.
    pub fn kind(&self) -> &'static str {
        match self {
            TableDelta::Append(_) => "append",
            TableDelta::Delete(_) => "delete",
            TableDelta::Drop => "drop",
        }
    }

    /// Number of rows this delta touches — the denominator of every
    /// "work is O(delta)" claim. `Drop` reports 0 (its cost is index
    /// bookkeeping, not per-row sketch work).
    pub fn rows(&self) -> usize {
        match self {
            TableDelta::Append(t) => t.num_rows(),
            TableDelta::Delete(idx) => idx.len(),
            TableDelta::Drop => 0,
        }
    }
}

impl Table {
    /// Remove the rows at `indices` (deduplicated), returning the
    /// removed rows as a table in ascending index order. Out-of-bounds
    /// indices are a [`TableError::RowOutOfBounds`] and leave the
    /// table unchanged.
    ///
    /// The removed cells are moved out and the kept ones compacted in
    /// place, so a delete moves O(table) cells and clones none; each
    /// column is then shrunk to its new length.
    pub fn delete_rows(&mut self, indices: &[usize]) -> Result<Table> {
        let mut sorted: Vec<usize> = indices.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        if let Some(&bad) = sorted.iter().find(|&&i| i >= self.num_rows()) {
            return Err(TableError::RowOutOfBounds {
                index: bad,
                len: self.num_rows(),
            });
        }
        Ok(self.remove_sorted_rows(&sorted))
    }

    /// Apply a delta in place. `Drop` empties the table to zero rows
    /// (the caller owning the lake removes the entry itself; at the
    /// table level a drop is "all rows deleted"). Returns the number
    /// of rows touched.
    pub fn apply_delta(&mut self, delta: &TableDelta) -> Result<usize> {
        match delta {
            TableDelta::Append(rows) => {
                self.append(rows)?;
                Ok(rows.num_rows())
            }
            TableDelta::Delete(indices) => {
                let removed = self.delete_rows(indices)?;
                Ok(removed.num_rows())
            }
            TableDelta::Drop => {
                let n = self.num_rows();
                *self = Table::new(self.schema().clone());
                Ok(n)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, Field, Schema};
    use crate::value::Value;

    fn table(vals: &[i64]) -> Table {
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
        let mut t = Table::new(schema);
        for &v in vals {
            t.push_row(vec![Value::Int(v)]).unwrap();
        }
        t
    }

    #[test]
    fn delete_rows_removes_and_returns() {
        let mut t = table(&[10, 20, 30, 40]);
        let removed = t.delete_rows(&[3, 1]).unwrap();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.row(0).unwrap(), vec![Value::Int(10)]);
        assert_eq!(t.row(1).unwrap(), vec![Value::Int(30)]);
        // removed rows come back in ascending index order
        assert_eq!(removed.row(0).unwrap(), vec![Value::Int(20)]);
        assert_eq!(removed.row(1).unwrap(), vec![Value::Int(40)]);
    }

    #[test]
    fn delete_rows_dedups_and_bounds_checks() {
        let mut t = table(&[1, 2, 3]);
        let removed = t.delete_rows(&[0, 0]).unwrap();
        assert_eq!(removed.num_rows(), 1);
        assert_eq!(t.num_rows(), 2);
        // out of bounds leaves the table unchanged
        assert!(t.delete_rows(&[5]).is_err());
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    fn apply_delta_covers_all_variants() {
        let mut t = table(&[1, 2]);
        assert_eq!(
            t.apply_delta(&TableDelta::Append(table(&[3, 4, 5])))
                .unwrap(),
            3
        );
        assert_eq!(t.num_rows(), 5);
        assert_eq!(t.apply_delta(&TableDelta::Delete(vec![0, 4])).unwrap(), 2);
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.apply_delta(&TableDelta::Drop).unwrap(), 3);
        assert!(t.is_empty());
        // schema survives a drop
        assert_eq!(t.schema().fields()[0].name, "x");
    }

    /// The delete as it was written before cells were moved: gather the
    /// removed rows and then the kept ones, cloning every cell.
    fn delete_by_take(t: &Table, indices: &[usize]) -> (Table, Table) {
        let mut sorted = indices.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let kept: Vec<usize> = (0..t.num_rows())
            .filter(|i| sorted.binary_search(i).is_err())
            .collect();
        (t.take(&sorted), t.take(&kept))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Over tables of every column type with nulls, and index lists
        /// with duplicates in any order, the in-place delete returns the
        /// rows and keeps the table the clone-based reference does, and
        /// every column of both has its capacity at its length.
        #[test]
        fn delete_rows_matches_the_take_reference(
            rows in proptest::collection::vec((0i64..4, 0u8..3, proptest::prelude::any::<bool>()), 0..24),
            picks in proptest::collection::vec(0usize..24, 0..12),
        ) {
            let schema = Schema::new(vec![
                Field::new("i", DataType::Int),
                Field::new("f", DataType::Float),
                Field::new("s", DataType::Str),
                Field::new("b", DataType::Bool),
            ]);
            let mut t = Table::new(schema);
            for &(i, s, b) in &rows {
                let null_or = |v: Value| if i == 0 { Value::Null } else { v };
                t.push_row(vec![
                    null_or(Value::Int(i)),
                    null_or(Value::Float(i as f64 / 2.0)),
                    if s == 0 { Value::Null } else { Value::str(format!("s{s}")) },
                    Value::Bool(b),
                ])
                .unwrap();
            }
            let indices: Vec<usize> = picks
                .iter()
                .filter(|&&p| p < t.num_rows())
                .copied()
                .collect();
            let (want_removed, want_kept) = delete_by_take(&t, &indices);
            let removed = t.delete_rows(&indices).unwrap();
            proptest::prop_assert_eq!(&removed, &want_removed);
            proptest::prop_assert_eq!(&t, &want_kept);
            for c in [&t, &removed]
                .into_iter()
                .flat_map(|t| (0..t.num_columns()).map(|ci| t.column_at(ci)))
            {
                proptest::prop_assert_eq!(c.capacity(), c.len());
            }
        }
    }

    #[test]
    fn delta_rows_and_kind_labels() {
        assert_eq!(TableDelta::Append(table(&[1])).rows(), 1);
        assert_eq!(TableDelta::Delete(vec![0, 1]).rows(), 2);
        assert_eq!(TableDelta::Drop.rows(), 0);
        assert_eq!(TableDelta::Append(table(&[])).kind(), "append");
        assert_eq!(TableDelta::Delete(vec![]).kind(), "delete");
        assert_eq!(TableDelta::Drop.kind(), "drop");
    }
}
