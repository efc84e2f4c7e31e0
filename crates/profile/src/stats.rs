//! Per-column statistical profiles.

use rdi_table::{ColumnCodes, DataType, Encoded, EncodedColumns, Table};
use serde::{Json, Serialize};

use crate::json_object;

/// Summary statistics of one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnProfile {
    /// Column name.
    pub name: String,
    /// Data type name.
    pub dtype: String,
    /// Row count.
    pub count: usize,
    /// Null cells.
    pub nulls: usize,
    /// Distinct non-null values.
    pub distinct: usize,
    /// Numeric summary (None for non-numeric columns or all-null).
    pub numeric: Option<NumericSummary>,
    /// Up to 5 most frequent values with counts (categorical columns).
    pub top_values: Vec<(String, usize)>,
}

/// min/max/mean/std of a numeric column.
#[derive(Debug, Clone, PartialEq)]
pub struct NumericSummary {
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
}

impl Serialize for ColumnProfile {
    fn serialize(&self) -> Json {
        json_object([
            ("name", self.name.serialize()),
            ("dtype", self.dtype.serialize()),
            ("count", self.count.serialize()),
            ("nulls", self.nulls.serialize()),
            ("distinct", self.distinct.serialize()),
            ("numeric", self.numeric.serialize()),
            ("top_values", self.top_values.serialize()),
        ])
    }
}

impl Serialize for NumericSummary {
    fn serialize(&self) -> Json {
        json_object([
            ("min", self.min.serialize()),
            ("max", self.max.serialize()),
            ("mean", self.mean.serialize()),
            ("std_dev", self.std_dev.serialize()),
        ])
    }
}

/// Profile one column: encode it once and profile the codes
/// ([`profile_codes`]).
pub fn profile_column(table: &Table, name: &str) -> rdi_table::Result<ColumnProfile> {
    let encoded = table.codes(name)?;
    profile_codes(table, name, &encoded)
}

/// Profile one column of `table` from its dictionary codes: the
/// distinct count is the dictionary's size and the top values come
/// from a histogram of codes, each value rendered once.
pub fn profile_codes(
    table: &Table,
    name: &str,
    encoded: &Encoded,
) -> rdi_table::Result<ColumnProfile> {
    let field = table.schema().field(name)?;
    let col = table.column(name)?;
    let count = table.num_rows();
    let nulls = col.null_count();
    let distinct = encoded.distinct.len();

    let numeric = match field.dtype {
        DataType::Int | DataType::Float | DataType::Bool => {
            let vals = col.numeric_values();
            if vals.is_empty() {
                None
            } else {
                let n = vals.len() as f64;
                let mean = vals.iter().sum::<f64>() / n;
                let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
                Some(NumericSummary {
                    min: vals.iter().copied().fold(f64::INFINITY, f64::min),
                    max: vals.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                    mean,
                    std_dev: var.sqrt(),
                })
            }
        }
        DataType::Str => None,
    };

    // top values (only meaningful for low-cardinality columns)
    let mut hist = vec![0usize; distinct];
    for &code in encoded.codes.iter().flatten() {
        hist[code as usize] += 1;
    }
    let mut top: Vec<(String, usize)> = encoded
        .distinct
        .iter()
        .zip(hist)
        .map(|(v, c)| (v.to_string(), c))
        .collect();
    top.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    top.truncate(5);

    Ok(ColumnProfile {
        name: name.to_string(),
        dtype: field.dtype.name().to_string(),
        count,
        nulls,
        distinct,
        numeric,
        top_values: top,
    })
}

/// Profile every column of a table from its codes.
pub fn profile_table(
    table: &Table,
    codes: &EncodedColumns,
) -> rdi_table::Result<Vec<ColumnProfile>> {
    table
        .schema()
        .fields()
        .iter()
        .map(|f| {
            let encoded = codes.codes(&f.name)?;
            profile_codes(table, &f.name, &encoded)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdi_table::{Field, Schema, Value};

    fn t() -> Table {
        let schema = Schema::new(vec![
            Field::new("x", DataType::Float),
            Field::new("g", DataType::Str),
        ]);
        let mut t = Table::new(schema);
        for (x, g) in [(1.0, "a"), (2.0, "a"), (3.0, "b")] {
            t.push_row(vec![Value::Float(x), Value::str(g)]).unwrap();
        }
        t.push_row(vec![Value::Null, Value::str("a")]).unwrap();
        t
    }

    #[test]
    fn numeric_profile() {
        let p = profile_column(&t(), "x").unwrap();
        assert_eq!(p.count, 4);
        assert_eq!(p.nulls, 1);
        assert_eq!(p.distinct, 3);
        let n = p.numeric.unwrap();
        assert_eq!(n.min, 1.0);
        assert_eq!(n.max, 3.0);
        assert_eq!(n.mean, 2.0);
    }

    #[test]
    fn categorical_profile_top_values() {
        let p = profile_column(&t(), "g").unwrap();
        assert!(p.numeric.is_none());
        assert_eq!(p.top_values[0], ("a".to_string(), 3));
        assert_eq!(p.top_values[1], ("b".to_string(), 1));
    }

    #[test]
    fn profile_table_covers_all_columns() {
        let ps = profile_table(&t(), &EncodedColumns::of(&t())).unwrap();
        assert_eq!(ps.len(), 2);
        assert_eq!(ps[0].name, "x");
    }

    #[test]
    fn all_null_numeric_column() {
        let schema = Schema::new(vec![Field::new("x", DataType::Float)]);
        let mut tb = Table::new(schema);
        tb.push_row(vec![Value::Null]).unwrap();
        let p = profile_column(&tb, "x").unwrap();
        assert!(p.numeric.is_none());
        assert_eq!(p.nulls, 1);
    }
}
