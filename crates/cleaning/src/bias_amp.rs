//! Bias amplification of dirty data (tutorial §2.4).
//!
//! The tutorial's argument: an incorrect value in a *majority* tuple
//! barely moves an AVG, but the same error in a *minority* tuple can move
//! that group's aggregate a lot — so data errors amplify bias. This module
//! measures exactly that: per-group aggregate error between a clean table
//! and its dirtied counterpart.

use rdi_table::{GroupSpec, Table};
use serde::Serialize;

/// Per-group aggregate error between clean and dirty versions of a table.
#[derive(Debug, Clone, Serialize)]
pub struct AggregateErrorReport {
    /// (group, group size, |mean_dirty − mean_clean|), sorted by size
    /// ascending — the tutorial predicts error falls with size.
    pub group_errors: Vec<(String, usize, f64)>,
    /// Error of the overall mean.
    pub overall_error: f64,
}

/// Compare per-group means of `column` between `clean` and `dirty`
/// (tables must be row-aligned, e.g. dirty = clean + injected errors).
pub fn group_aggregate_error(
    clean: &Table,
    dirty: &Table,
    column: &str,
    spec: &GroupSpec,
) -> rdi_table::Result<AggregateErrorReport> {
    let clean_stats = spec.stats(clean, column)?;
    let dirty_stats = spec.stats(dirty, column)?;
    let mut group_errors = Vec::new();
    for (k, cs) in &clean_stats {
        if let Some((_, ds)) = dirty_stats.iter().find(|(dk, _)| dk == k) {
            group_errors.push((k.to_string(), cs.count, (ds.mean - cs.mean).abs()));
        }
    }
    group_errors.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));
    let overall_error =
        (dirty.mean(column)?.unwrap_or(0.0) - clean.mean(column)?.unwrap_or(0.0)).abs();
    Ok(AggregateErrorReport {
        group_errors,
        overall_error,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdi_table::{DataType, Field, Role, Schema, Value};

    #[test]
    fn same_error_hurts_small_group_more() {
        let schema = Schema::new(vec![
            Field::new("g", DataType::Str).with_role(Role::Sensitive),
            Field::new("x", DataType::Float),
        ]);
        let mut clean = Table::new(schema);
        // majority: 100 rows of x=10; minority: 5 rows of x=10
        for _ in 0..100 {
            clean
                .push_row(vec![Value::str("maj"), Value::Float(10.0)])
                .unwrap();
        }
        for _ in 0..5 {
            clean
                .push_row(vec![Value::str("min"), Value::Float(10.0)])
                .unwrap();
        }
        // identical gross error (+100) in one tuple of each group
        let mut dirty = clean.clone();
        dirty.set_value(0, "x", Value::Float(110.0)).unwrap();
        dirty.set_value(100, "x", Value::Float(110.0)).unwrap();
        let spec = GroupSpec::new(vec!["g"]);
        let rep = group_aggregate_error(&clean, &dirty, "x", &spec).unwrap();
        // sorted by size: minority first
        assert_eq!(rep.group_errors[0].0, "(min)");
        let min_err = rep.group_errors[0].2;
        let maj_err = rep.group_errors[1].2;
        assert!((min_err - 20.0).abs() < 1e-9, "min_err={min_err}");
        assert!((maj_err - 1.0).abs() < 1e-9, "maj_err={maj_err}");
        assert!(min_err / maj_err > 10.0);
    }

    #[test]
    fn identical_tables_have_zero_error() {
        let schema = Schema::new(vec![
            Field::new("g", DataType::Str).with_role(Role::Sensitive),
            Field::new("x", DataType::Float),
        ]);
        let mut t = Table::new(schema);
        t.push_row(vec![Value::str("a"), Value::Float(1.0)])
            .unwrap();
        let spec = GroupSpec::new(vec!["g"]);
        let rep = group_aggregate_error(&t, &t, "x", &spec).unwrap();
        assert_eq!(rep.overall_error, 0.0);
        assert_eq!(rep.group_errors[0].2, 0.0);
    }
}
