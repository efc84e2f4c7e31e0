//! FairPrep-style evaluation of cleaning interventions (Schelter, He,
//! Khilnani, Stoyanovich; EDBT 2020).
//!
//! FairPrep's point is methodological: fairness-enhancing interventions
//! must be evaluated *as part of the data preparation pipeline*, on a
//! held-out test set the interventions never touch. This module runs a
//! grid of (imputation intervention × model) over a train/test split and
//! reports accuracy **and** fairness metrics side by side, so the effect
//! of each preparation choice is quantified rather than assumed.

use rand::Rng;
use rdi_cleaning::{impute, ImputeStrategy};
use rdi_table::{GroupSpec, Table};
use serde::Serialize;

use crate::ml::{design_matrix, evaluate, GaussianNb, LogisticRegression, ModelEval};

/// Which model the grid trains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ModelKind {
    /// Logistic regression (SGD).
    Logistic,
    /// Gaussian naive Bayes.
    NaiveBayes,
}

impl ModelKind {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Logistic => "logistic",
            ModelKind::NaiveBayes => "naive_bayes",
        }
    }
}

/// One grid cell's result.
#[derive(Debug, Clone, Serialize)]
pub struct GridResult {
    /// Intervention label.
    pub intervention: String,
    /// Model trained.
    pub model: &'static str,
    /// Held-out evaluation.
    pub eval: ModelEval,
    /// Training rows after the intervention (DropRows shrinks it).
    pub train_rows: usize,
}

/// Deterministically split a table into (train, test) by hashing row
/// index against `test_fraction` using the provided RNG.
pub fn train_test_split<R: Rng>(table: &Table, test_fraction: f64, rng: &mut R) -> (Table, Table) {
    assert!((0.0..1.0).contains(&test_fraction));
    let mut train_idx = Vec::new();
    let mut test_idx = Vec::new();
    for i in 0..table.num_rows() {
        if rng.gen::<f64>() < test_fraction {
            test_idx.push(i);
        } else {
            train_idx.push(i);
        }
    }
    (table.take(&train_idx), table.take(&test_idx))
}

/// Run the (intervention × model) grid.
///
/// * `dirty` — the raw data (with missing values);
/// * `impute_column` — the numeric feature the interventions repair;
/// * `features`/`target` — model inputs;
/// * the test split is imputed with the *same* intervention (as FairPrep
///   prescribes: preparation is part of the deployed pipeline), but fitted
///   statistics are not shared across the split boundary beyond that.
#[expect(
    clippy::too_many_arguments,
    reason = "table, impute column, features, target, groups, both grid axes and the RNG are independent inputs"
)]
pub fn run_grid<R: Rng>(
    dirty: &Table,
    impute_column: &str,
    features: &[&str],
    target: &str,
    spec: &GroupSpec,
    interventions: &[(String, ImputeStrategy)],
    models: &[ModelKind],
    rng: &mut R,
) -> rdi_table::Result<Vec<GridResult>> {
    let (train_raw, test_raw) = train_test_split(dirty, 0.3, rng);
    let mut out = Vec::new();
    for (label, strategy) in interventions {
        let train = impute(&train_raw, impute_column, strategy)?;
        let test = impute(&test_raw, impute_column, strategy)?;
        let (xs, ys, _) = design_matrix(&train, features, target)?;
        if xs.is_empty() {
            continue;
        }
        for &model in models {
            let eval = match model {
                ModelKind::Logistic => {
                    let m = LogisticRegression::train(&xs, &ys, 8, 0.05, 1e-4, rng);
                    evaluate(&test, features, target, spec, |x| m.predict(x))?
                }
                ModelKind::NaiveBayes => {
                    let m = GaussianNb::train(&xs, &ys);
                    evaluate(&test, features, target, spec, |x| m.predict(x))?
                }
            };
            out.push(GridResult {
                intervention: label.clone(),
                model: model.name(),
                eval,
                train_rows: train.num_rows(),
            });
        }
    }
    Ok(out)
}

/// Render grid results as a markdown table.
pub fn grid_to_markdown(results: &[GridResult]) -> String {
    let mut md = String::from(
        "| intervention | model | train rows | accuracy | parity diff | equalized odds |\n|---|---|---|---|---|---|\n",
    );
    for r in results {
        md.push_str(&format!(
            "| {} | {} | {} | {:.3} | {:.3} | {:.3} |\n",
            r.intervention,
            r.model,
            r.train_rows,
            r.eval.accuracy,
            r.eval.parity_difference,
            r.eval.equalized_odds
        ));
    }
    md
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rdi_table::{DataType, Field, Role, Schema, Value};

    /// Two groups, feature x predicts y, x is MAR-missing for the minority.
    fn dirty_table(rng: &mut StdRng) -> Table {
        let schema = Schema::new(vec![
            Field::new("g", DataType::Str).with_role(Role::Sensitive),
            Field::new("x", DataType::Float),
            Field::new("y", DataType::Bool).with_role(Role::Target),
        ]);
        let mut t = Table::new(schema);
        for i in 0..3_000 {
            let min = i % 5 == 0;
            let g = if min { "min" } else { "maj" };
            let base: f64 = if rng.gen::<bool>() { 1.0 } else { -1.0 };
            let y = base > 0.0;
            let x = base + rng.gen_range(-0.8..0.8) + if min { 3.0 } else { 0.0 };
            let x = if min && rng.gen::<f64>() < 0.4 {
                Value::Null
            } else {
                Value::Float(x)
            };
            t.push_row(vec![Value::str(g), x, Value::Bool(y)]).unwrap();
        }
        t
    }

    #[test]
    fn split_partitions_rows() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = dirty_table(&mut rng);
        let (train, test) = train_test_split(&t, 0.3, &mut rng);
        assert_eq!(train.num_rows() + test.num_rows(), t.num_rows());
        let frac = test.num_rows() as f64 / t.num_rows() as f64;
        assert!((frac - 0.3).abs() < 0.05, "frac={frac}");
    }

    #[test]
    fn grid_runs_all_cells_and_reports_fairness() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = dirty_table(&mut rng);
        let spec = GroupSpec::new(vec!["g"]);
        let interventions = vec![
            ("drop".to_string(), ImputeStrategy::DropRows),
            ("mean".to_string(), ImputeStrategy::Mean),
            (
                "group_mean".to_string(),
                ImputeStrategy::GroupMean(spec.clone()),
            ),
        ];
        let results = run_grid(
            &t,
            "x",
            &["x"],
            "y",
            &spec,
            &interventions,
            &[ModelKind::Logistic, ModelKind::NaiveBayes],
            &mut rng,
        )
        .unwrap();
        assert_eq!(results.len(), 6);
        // drop-rows shrinks the training set; imputation keeps it
        let drop = results.iter().find(|r| r.intervention == "drop").unwrap();
        let mean = results.iter().find(|r| r.intervention == "mean").unwrap();
        assert!(drop.train_rows < mean.train_rows);
        // all models must be well above chance
        for r in &results {
            assert!(
                r.eval.accuracy > 0.7,
                "{}/{}: {}",
                r.intervention,
                r.model,
                r.eval.accuracy
            );
        }
        let md = grid_to_markdown(&results);
        assert!(md.contains("group_mean"));
        assert!(md.contains("naive_bayes"));
    }
}
