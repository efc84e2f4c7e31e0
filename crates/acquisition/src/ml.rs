//! From-scratch model substrate: logistic regression and Gaussian naive
//! Bayes, with per-group evaluation.
//!
//! These models exist so acquisition experiments can measure "did the data
//! I collected actually improve accuracy/fairness" without an external ML
//! dependency. They are deliberately simple, deterministic, and fast.

use rand::Rng;
use rdi_table::{GroupKey, GroupSpec, Table};

use rdi_fairness::metrics::{
    demographic_parity_difference, equalized_odds_difference, tally_outcomes,
};

/// A design matrix: feature rows, boolean targets, and the kept row indices.
pub type DesignMatrix = (Vec<Vec<f64>>, Vec<bool>, Vec<usize>);

/// Extract an (X, y) design matrix from a table: the named numeric feature
/// columns and a boolean target. Rows with a null feature or target are
/// skipped; returns the kept row indices too.
pub fn design_matrix(
    table: &Table,
    features: &[&str],
    target: &str,
) -> rdi_table::Result<DesignMatrix> {
    let cols: Vec<&rdi_table::Column> = features
        .iter()
        .map(|f| table.column(f))
        .collect::<rdi_table::Result<_>>()?;
    let tcol = table.column(target)?;
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    let mut keep = Vec::new();
    for i in 0..table.num_rows() {
        let row: Option<Vec<f64>> = cols.iter().map(|c| c.value(i).as_f64()).collect();
        let y = tcol.value(i);
        let yb = y.as_bool().or_else(|| y.as_f64().map(|v| v > 0.5));
        if let (Some(row), Some(yb)) = (row, yb) {
            xs.push(row);
            ys.push(yb);
            keep.push(i);
        }
    }
    Ok((xs, ys, keep))
}

/// Logistic regression trained with plain SGD.
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    /// Feature weights.
    pub weights: Vec<f64>,
    /// Intercept.
    pub bias: f64,
}

impl LogisticRegression {
    /// Train on a design matrix. `epochs` full passes, learning rate
    /// `lr`, L2 penalty `l2`. Row order is shuffled deterministically by
    /// `rng` each epoch.
    pub fn train<R: Rng>(
        xs: &[Vec<f64>],
        ys: &[bool],
        epochs: usize,
        lr: f64,
        l2: f64,
        rng: &mut R,
    ) -> Self {
        assert_eq!(xs.len(), ys.len());
        assert!(!xs.is_empty(), "empty training set");
        let d = xs[0].len();
        let mut w = vec![0.0; d];
        let mut b = 0.0;
        let mut order: Vec<usize> = (0..xs.len()).collect();
        for _ in 0..epochs {
            // Fisher–Yates
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            for &i in &order {
                let z = b + w.iter().zip(&xs[i]).map(|(wi, xi)| wi * xi).sum::<f64>();
                let p = 1.0 / (1.0 + (-z).exp());
                let err = p - (ys[i] as u8 as f64);
                for (wi, xi) in w.iter_mut().zip(&xs[i]) {
                    *wi -= lr * (err * xi + l2 * *wi);
                }
                b -= lr * err;
            }
        }
        LogisticRegression {
            weights: w,
            bias: b,
        }
    }

    /// Predicted probability of the positive class.
    pub fn predict_proba(&self, x: &[f64]) -> f64 {
        let z = self.bias
            + self
                .weights
                .iter()
                .zip(x)
                .map(|(wi, xi)| wi * xi)
                .sum::<f64>();
        1.0 / (1.0 + (-z).exp())
    }

    /// Hard prediction at threshold 0.5.
    pub fn predict(&self, x: &[f64]) -> bool {
        self.predict_proba(x) >= 0.5
    }

    /// Mean log-loss on a data set.
    pub fn log_loss(&self, xs: &[Vec<f64>], ys: &[bool]) -> f64 {
        assert_eq!(xs.len(), ys.len());
        if xs.is_empty() {
            return 0.0;
        }
        let eps = 1e-12;
        let mut total = 0.0;
        for (x, &y) in xs.iter().zip(ys) {
            let p = self.predict_proba(x).clamp(eps, 1.0 - eps);
            total -= if y { p.ln() } else { (1.0 - p).ln() };
        }
        total / xs.len() as f64
    }
}

/// Gaussian naive Bayes (per-class feature means/variances).
#[derive(Debug, Clone)]
pub struct GaussianNb {
    prior_pos: f64,
    mean: [Vec<f64>; 2],
    var: [Vec<f64>; 2],
}

impl GaussianNb {
    /// Fit on a design matrix.
    pub fn train(xs: &[Vec<f64>], ys: &[bool]) -> Self {
        assert_eq!(xs.len(), ys.len());
        assert!(!xs.is_empty(), "empty training set");
        let d = xs[0].len();
        let mut mean = [vec![0.0; d], vec![0.0; d]];
        let mut var = [vec![0.0; d], vec![0.0; d]];
        let mut count = [0usize; 2];
        for (x, &y) in xs.iter().zip(ys) {
            let c = y as usize;
            count[c] += 1;
            for (m, xi) in mean[c].iter_mut().zip(x) {
                *m += xi;
            }
        }
        for c in 0..2 {
            for m in &mut mean[c] {
                *m /= count[c].max(1) as f64;
            }
        }
        for (x, &y) in xs.iter().zip(ys) {
            let c = y as usize;
            for ((v, m), xi) in var[c].iter_mut().zip(&mean[c]).zip(x) {
                *v += (xi - m).powi(2);
            }
        }
        for c in 0..2 {
            for v in &mut var[c] {
                *v = (*v / count[c].max(1) as f64).max(1e-9);
            }
        }
        GaussianNb {
            prior_pos: count[1] as f64 / xs.len() as f64,
            mean,
            var,
        }
    }

    /// Hard prediction.
    pub fn predict(&self, x: &[f64]) -> bool {
        let ll = |c: usize, prior: f64| -> f64 {
            let mut s = prior.max(1e-12).ln();
            for ((xi, m), v) in x.iter().zip(&self.mean[c]).zip(&self.var[c]) {
                s += -0.5 * ((xi - m).powi(2) / v + v.ln());
            }
            s
        };
        ll(1, self.prior_pos) >= ll(0, 1.0 - self.prior_pos)
    }
}

/// Evaluation of a classifier on a labeled, group-annotated test set.
#[derive(Debug, Clone)]
pub struct ModelEval {
    /// Overall accuracy.
    pub accuracy: f64,
    /// Per-group accuracy, sorted by group key.
    pub group_accuracy: Vec<(String, f64)>,
    /// Demographic parity difference of predictions.
    pub parity_difference: f64,
    /// Equalized-odds difference.
    pub equalized_odds: f64,
}

/// Evaluate predictions against a test table.
pub fn evaluate(
    table: &Table,
    features: &[&str],
    target: &str,
    spec: &GroupSpec,
    predict: impl Fn(&[f64]) -> bool,
) -> rdi_table::Result<ModelEval> {
    let (xs, ys, keep) = design_matrix(table, features, target)?;
    let mut preds = Vec::with_capacity(xs.len());
    let mut groups: Vec<GroupKey> = Vec::with_capacity(xs.len());
    for (x, &i) in xs.iter().zip(&keep) {
        preds.push(predict(x));
        groups.push(spec.key_of(table, i)?);
    }
    let correct = preds.iter().zip(&ys).filter(|(p, y)| p == y).count();
    let outcomes = tally_outcomes(&preds, &ys, &groups);
    let mut group_accuracy: Vec<(String, f64)> = rdi_fairness::metrics::group_accuracy(&outcomes)
        .into_iter()
        .map(|(k, a)| (k.to_string(), a))
        .collect();
    group_accuracy.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(ModelEval {
        accuracy: correct as f64 / preds.len().max(1) as f64,
        group_accuracy,
        parity_difference: demographic_parity_difference(&outcomes),
        equalized_odds: equalized_odds_difference(&outcomes),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rdi_table::{DataType, Field, Role, Schema, Value};

    fn separable(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<bool>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let y: bool = rng.gen();
            let base = if y { 1.5 } else { -1.5 };
            xs.push(vec![
                base + rng.gen_range(-1.0..1.0),
                base + rng.gen_range(-1.0..1.0),
            ]);
            ys.push(y);
        }
        (xs, ys)
    }

    #[test]
    fn logreg_learns_separable_data() {
        let (xs, ys) = separable(800, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let m = LogisticRegression::train(&xs, &ys, 10, 0.1, 1e-4, &mut rng);
        let (tx, ty) = separable(400, 3);
        let acc = tx
            .iter()
            .zip(&ty)
            .filter(|(x, &y)| m.predict(x) == y)
            .count() as f64
            / 400.0;
        assert!(acc > 0.9, "acc={acc}");
        assert!(m.log_loss(&tx, &ty) < 0.4);
    }

    #[test]
    fn gnb_learns_separable_data() {
        let (xs, ys) = separable(800, 4);
        let m = GaussianNb::train(&xs, &ys);
        let (tx, ty) = separable(400, 5);
        let acc = tx
            .iter()
            .zip(&ty)
            .filter(|(x, &y)| m.predict(x) == y)
            .count() as f64
            / 400.0;
        assert!(acc > 0.9, "acc={acc}");
    }

    #[test]
    fn more_data_means_lower_loss() {
        let (tx, ty) = separable(1000, 6);
        let mut losses = Vec::new();
        for n in [20, 100, 600] {
            let (xs, ys) = separable(n, 7);
            let mut rng = StdRng::seed_from_u64(8);
            let m = LogisticRegression::train(&xs, &ys, 15, 0.05, 1e-4, &mut rng);
            losses.push(m.log_loss(&tx, &ty));
        }
        assert!(losses[0] > losses[2], "losses={losses:?}");
    }

    #[test]
    fn design_matrix_skips_incomplete_rows() {
        let schema = Schema::new(vec![
            Field::new("x", DataType::Float),
            Field::new("y", DataType::Bool).with_role(Role::Target),
        ]);
        let mut t = Table::new(schema);
        t.push_row(vec![Value::Float(1.0), Value::Bool(true)])
            .unwrap();
        t.push_row(vec![Value::Null, Value::Bool(false)]).unwrap();
        t.push_row(vec![Value::Float(2.0), Value::Null]).unwrap();
        let (xs, ys, keep) = design_matrix(&t, &["x"], "y").unwrap();
        assert_eq!(xs.len(), 1);
        assert_eq!(ys, vec![true]);
        assert_eq!(keep, vec![0]);
    }

    #[test]
    fn evaluate_reports_group_gaps() {
        let schema = Schema::new(vec![
            Field::new("g", DataType::Str).with_role(Role::Sensitive),
            Field::new("x", DataType::Float),
            Field::new("y", DataType::Bool).with_role(Role::Target),
        ]);
        let mut t = Table::new(schema);
        // group a: y = x > 0 (model will be right); group b: y inverted
        for i in 0..100 {
            let x = if i % 2 == 0 { 1.0 } else { -1.0 };
            let g = if i < 50 { "a" } else { "b" };
            let y = if g == "a" { x > 0.0 } else { x < 0.0 };
            t.push_row(vec![Value::str(g), Value::Float(x), Value::Bool(y)])
                .unwrap();
        }
        let spec = GroupSpec::new(vec!["g"]);
        let eval = evaluate(&t, &["x"], "y", &spec, |x| x[0] > 0.0).unwrap();
        assert!((eval.accuracy - 0.5).abs() < 1e-9);
        let a = eval
            .group_accuracy
            .iter()
            .find(|(g, _)| g == "(a)")
            .unwrap();
        let b = eval
            .group_accuracy
            .iter()
            .find(|(g, _)| g == "(b)")
            .unwrap();
        assert_eq!(a.1, 1.0);
        assert_eq!(b.1, 0.0);
        assert!(eval.equalized_odds > 0.9);
    }
}
