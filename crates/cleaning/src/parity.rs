//! Imputation accuracy parity (Zhang & Long, NeurIPS 2021).
//!
//! Given the ground-truth values of masked cells and an imputed table,
//! measure the per-group imputation error; the **imputation accuracy
//! parity difference** is the max pairwise gap. A method can look good on
//! average while systematically mis-imputing a minority group — this is
//! the metric that catches it.

use std::collections::BTreeMap;

use rdi_table::{GroupKey, GroupSpec, Table};

/// Per-group imputation error report.
#[derive(Debug, Clone)]
pub struct ParityReport {
    /// Per-group RMSE of imputed vs true values, sorted by group.
    pub group_rmse: Vec<(String, f64)>,
    /// Overall RMSE.
    pub overall_rmse: f64,
    /// Max pairwise RMSE gap across groups (the parity difference).
    pub parity_difference: f64,
}

/// Compute imputation accuracy parity for a numeric column.
///
/// `truth` holds `(row index, true value)` for each masked cell (as
/// returned by `rdi_datagen::inject_missing` plus the original table).
pub fn imputation_parity(
    imputed: &Table,
    column: &str,
    truth: &[(usize, f64)],
    spec: &GroupSpec,
) -> rdi_table::Result<ParityReport> {
    let mut per_group: BTreeMap<GroupKey, Vec<f64>> = BTreeMap::new();
    let mut all = Vec::with_capacity(truth.len());
    for &(i, true_val) in truth {
        let key = spec.key_of(imputed, i)?;
        let imp = imputed.value(i, column)?.as_f64().unwrap_or(f64::NAN);
        let err2 = if imp.is_nan() {
            // still missing (e.g. DropRows semantics) — treat as maximal
            // failure by using the truth itself as the error
            true_val * true_val
        } else {
            (imp - true_val).powi(2)
        };
        per_group.entry(key).or_default().push(err2);
        all.push(err2);
    }
    let rmse = |v: &[f64]| (v.iter().sum::<f64>() / v.len().max(1) as f64).sqrt();
    // BTreeMap iteration is already sorted by group key.
    let group_rmse: Vec<(GroupKey, f64)> =
        per_group.into_iter().map(|(k, v)| (k, rmse(&v))).collect();
    let max = group_rmse
        .iter()
        .map(|(_, e)| *e)
        .fold(f64::NEG_INFINITY, f64::max);
    let min = group_rmse
        .iter()
        .map(|(_, e)| *e)
        .fold(f64::INFINITY, f64::min);
    Ok(ParityReport {
        group_rmse: group_rmse
            .into_iter()
            .map(|(k, e)| (k.to_string(), e))
            .collect(),
        overall_rmse: rmse(&all),
        parity_difference: if all.is_empty() { 0.0 } else { max - min },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::impute::{impute, ImputeStrategy};
    use rdi_table::{DataType, Field, Role, Schema, Value};

    /// Groups with very different x distributions; mask some cells.
    fn masked_table() -> (Table, Vec<(usize, f64)>) {
        let schema = Schema::new(vec![
            Field::new("g", DataType::Str).with_role(Role::Sensitive),
            Field::new("x", DataType::Float),
        ]);
        let mut t = Table::new(schema);
        let mut truth = Vec::new();
        // group a: x ≈ 0; group b: x ≈ 100; mask one cell per group
        for i in 0..10 {
            t.push_row(vec![Value::str("a"), Value::Float(i as f64 * 0.1)])
                .unwrap();
        }
        for i in 0..10 {
            t.push_row(vec![Value::str("b"), Value::Float(100.0 + i as f64 * 0.1)])
                .unwrap();
        }
        // mask rows 0 (a, true 0.0) and 10 (b, true 100.0)
        truth.push((0, 0.0));
        truth.push((10, 100.0));
        t.set_value(0, "x", Value::Null).unwrap();
        t.set_value(10, "x", Value::Null).unwrap();
        (t, truth)
    }

    #[test]
    fn global_mean_is_unfair_group_mean_is_fair() {
        let (t, truth) = masked_table();
        let spec = GroupSpec::new(vec!["g"]);

        let global = impute(&t, "x", &ImputeStrategy::Mean).unwrap();
        let rep_global = imputation_parity(&global, "x", &truth, &spec).unwrap();
        // global mean ≈ 52.7 → both groups err by ~50; errors are large
        // but *similar*, so parity diff is small while RMSE is huge.
        assert!(rep_global.overall_rmse > 40.0);

        let grouped = impute(&t, "x", &ImputeStrategy::GroupMean(spec.clone())).unwrap();
        let rep_grouped = imputation_parity(&grouped, "x", &truth, &spec).unwrap();
        assert!(rep_grouped.overall_rmse < 2.0);
        assert!(rep_grouped.parity_difference < rep_global.overall_rmse);
    }

    #[test]
    fn parity_difference_detects_one_sided_failure() {
        let (t, truth) = masked_table();
        let spec = GroupSpec::new(vec!["g"]);
        // impute everything with 0 → perfect for group a, terrible for b
        let mut bad = t.clone();
        bad.set_value(0, "x", Value::Float(0.0)).unwrap();
        bad.set_value(10, "x", Value::Float(0.0)).unwrap();
        let rep = imputation_parity(&bad, "x", &truth, &spec).unwrap();
        assert!(rep.parity_difference > 99.0, "pd={}", rep.parity_difference);
        let a = rep
            .group_rmse
            .iter()
            .find(|(g, _)| g.contains('a'))
            .unwrap();
        assert_eq!(a.1, 0.0);
    }

    #[test]
    fn empty_truth_is_zero() {
        let (t, _) = masked_table();
        let spec = GroupSpec::new(vec!["g"]);
        let rep = imputation_parity(&t, "x", &[], &spec).unwrap();
        assert_eq!(rep.parity_difference, 0.0);
        assert_eq!(rep.overall_rmse, 0.0);
    }
}
