//! Group fairness metrics over prediction outcomes and query outputs.

use std::collections::BTreeMap;

use rdi_table::{GroupKey, GroupSpec, Table};

/// Confusion-matrix counts for one demographic group.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GroupOutcomes {
    /// True positives.
    pub tp: usize,
    /// False positives.
    pub fp: usize,
    /// True negatives.
    pub tn: usize,
    /// False negatives.
    pub fn_: usize,
}

impl GroupOutcomes {
    /// Total observations.
    pub fn n(&self) -> usize {
        self.tp + self.fp + self.tn + self.fn_
    }

    /// Fraction predicted positive (the "selection rate").
    pub fn positive_rate(&self) -> f64 {
        let n = self.n();
        if n == 0 {
            return 0.0;
        }
        (self.tp + self.fp) as f64 / n as f64
    }

    /// True positive rate (recall); 0 when no positives exist.
    pub fn tpr(&self) -> f64 {
        let p = self.tp + self.fn_;
        if p == 0 {
            return 0.0;
        }
        self.tp as f64 / p as f64
    }

    /// False positive rate; 0 when no negatives exist.
    pub fn fpr(&self) -> f64 {
        let n = self.fp + self.tn;
        if n == 0 {
            return 0.0;
        }
        self.fp as f64 / n as f64
    }

    /// Accuracy; 0 when empty.
    pub fn accuracy(&self) -> f64 {
        let n = self.n();
        if n == 0 {
            return 0.0;
        }
        (self.tp + self.tn) as f64 / n as f64
    }

    /// Record one (prediction, label) pair.
    pub fn record(&mut self, predicted: bool, actual: bool) {
        match (predicted, actual) {
            (true, true) => self.tp += 1,
            (true, false) => self.fp += 1,
            (false, false) => self.tn += 1,
            (false, true) => self.fn_ += 1,
        }
    }
}

/// Tally per-group confusion matrices for parallel prediction/label/group
/// vectors.
pub fn tally_outcomes(
    predictions: &[bool],
    labels: &[bool],
    groups: &[GroupKey],
) -> BTreeMap<GroupKey, GroupOutcomes> {
    assert!(
        predictions.len() == labels.len() && labels.len() == groups.len(),
        "parallel vectors required"
    );
    let mut m: BTreeMap<GroupKey, GroupOutcomes> = BTreeMap::new();
    for ((p, y), g) in predictions.iter().zip(labels).zip(groups) {
        m.entry(g.clone()).or_default().record(*p, *y);
    }
    m
}

/// Maximum pairwise difference of positive rates across groups
/// (demographic parity difference; 0 = perfect parity).
pub fn demographic_parity_difference(outcomes: &BTreeMap<GroupKey, GroupOutcomes>) -> f64 {
    max_pairwise_gap(outcomes.values().map(GroupOutcomes::positive_rate))
}

/// Equalized-odds difference: the larger of the max pairwise TPR gap and
/// the max pairwise FPR gap across groups.
pub fn equalized_odds_difference(outcomes: &BTreeMap<GroupKey, GroupOutcomes>) -> f64 {
    let tpr_gap = max_pairwise_gap(outcomes.values().map(GroupOutcomes::tpr));
    let fpr_gap = max_pairwise_gap(outcomes.values().map(GroupOutcomes::fpr));
    tpr_gap.max(fpr_gap)
}

/// Per-group accuracy, sorted by group key for deterministic output
/// (BTreeMap iteration is already in key order).
pub fn group_accuracy(outcomes: &BTreeMap<GroupKey, GroupOutcomes>) -> Vec<(GroupKey, f64)> {
    outcomes
        .iter()
        .map(|(k, o)| (k.clone(), o.accuracy()))
        .collect()
}

fn max_pairwise_gap(rates: impl Iterator<Item = f64>) -> f64 {
    let rs: Vec<f64> = rates.collect();
    if rs.len() < 2 {
        return 0.0;
    }
    let max = rs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = rs.iter().copied().fold(f64::INFINITY, f64::min);
    max - min
}

/// Disparity of a *selected subset* of a table w.r.t. groups: the maximum
/// pairwise absolute difference of per-group **selection counts**,
/// normalized by the subset size.
///
/// This is the count-difference fairness notion used by fairness-aware
/// range queries (tutorial §5, Shetiya et al.): a query output is fair
/// when the groups it returns are (near-)balanced.
pub fn disparity(table: &Table, selected: &[usize], spec: &GroupSpec) -> rdi_table::Result<f64> {
    if selected.is_empty() {
        return Ok(0.0);
    }
    let mut counts: BTreeMap<GroupKey, usize> = BTreeMap::new();
    for &i in selected {
        *counts.entry(spec.key_of(table, i)?).or_insert(0) += 1;
    }
    // Groups present in the table but absent from the selection count as 0.
    for key in spec.keys(table)? {
        counts.entry(key).or_insert(0);
    }
    // `selected` is non-empty here, so `counts` is too; `unwrap_or(0)`
    // keeps the path panic-free without changing the value.
    let max = counts.values().copied().max().unwrap_or(0) as f64;
    let min = counts.values().copied().min().unwrap_or(0) as f64;
    Ok((max - min) / selected.len() as f64)
}

/// Absolute difference of per-group counts for exactly two groups, the raw
/// form used by fairness-aware range query algorithms.
pub fn count_difference(
    table: &Table,
    selected: &[usize],
    spec: &GroupSpec,
    a: &GroupKey,
    b: &GroupKey,
) -> rdi_table::Result<i64> {
    let mut ca: i64 = 0;
    let mut cb: i64 = 0;
    for &i in selected {
        let k = spec.key_of(table, i)?;
        if &k == a {
            ca += 1;
        } else if &k == b {
            cb += 1;
        }
    }
    Ok((ca - cb).abs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdi_table::{DataType, Field, Role, Schema, Value};

    fn key(s: &str) -> GroupKey {
        GroupKey(vec![Value::str(s)])
    }

    #[test]
    fn outcome_rates() {
        let mut o = GroupOutcomes::default();
        o.record(true, true); // tp
        o.record(true, false); // fp
        o.record(false, false); // tn
        o.record(false, true); // fn
        assert_eq!(o.n(), 4);
        assert_eq!(o.positive_rate(), 0.5);
        assert_eq!(o.tpr(), 0.5);
        assert_eq!(o.fpr(), 0.5);
        assert_eq!(o.accuracy(), 0.5);
    }

    #[test]
    fn parity_difference_detects_gap() {
        let preds = vec![true, true, true, false];
        let labels = vec![true, true, true, true];
        let groups = vec![key("a"), key("a"), key("b"), key("b")];
        let o = tally_outcomes(&preds, &labels, &groups);
        // group a: rate 1.0; group b: rate 0.5
        assert!((demographic_parity_difference(&o) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn equalized_odds_zero_when_identical() {
        let preds = vec![true, false, true, false];
        let labels = vec![true, false, true, false];
        let groups = vec![key("a"), key("a"), key("b"), key("b")];
        let o = tally_outcomes(&preds, &labels, &groups);
        assert_eq!(equalized_odds_difference(&o), 0.0);
    }

    #[test]
    fn empty_and_single_group_edge_cases() {
        let o: BTreeMap<GroupKey, GroupOutcomes> = BTreeMap::new();
        assert_eq!(demographic_parity_difference(&o), 0.0);
        let mut one = BTreeMap::new();
        one.insert(key("a"), GroupOutcomes::default());
        assert_eq!(demographic_parity_difference(&one), 0.0);
        assert_eq!(GroupOutcomes::default().accuracy(), 0.0);
    }

    fn grouped_table() -> Table {
        let schema = Schema::new(vec![
            Field::new("g", DataType::Str).with_role(Role::Sensitive),
            Field::new("x", DataType::Int),
        ]);
        let mut t = Table::new(schema);
        for (g, x) in [("a", 1), ("a", 2), ("b", 3), ("b", 4), ("b", 5)] {
            t.push_row(vec![Value::str(g), Value::Int(x)]).unwrap();
        }
        t
    }

    #[test]
    fn disparity_of_balanced_selection_is_low() {
        let t = grouped_table();
        let spec = GroupSpec::from_sensitive(&t);
        // select one from each group
        assert_eq!(disparity(&t, &[0, 2], &spec).unwrap(), 0.0);
        // select only group b
        let d = disparity(&t, &[2, 3, 4], &spec).unwrap();
        assert!((d - 1.0).abs() < 1e-12);
        assert_eq!(disparity(&t, &[], &spec).unwrap(), 0.0);
    }

    #[test]
    fn count_difference_two_groups() {
        let t = grouped_table();
        let spec = GroupSpec::from_sensitive(&t);
        let d = count_difference(&t, &[0, 1, 2], &spec, &key("a"), &key("b")).unwrap();
        assert_eq!(d, 1);
    }

    #[test]
    #[should_panic(expected = "parallel vectors")]
    fn tally_rejects_mismatched_lengths() {
        tally_outcomes(&[true], &[true, false], &[key("a"), key("a")]);
    }
}
