//! Power-law learning-curve fitting.
//!
//! Slice Tuner's allocation needs, per slice, a prediction of how much
//! additional data reduces loss. Empirically `loss(n) ≈ b·n^{-a}` with
//! `a, b > 0`, which is linear in log-log space, so we fit by least
//! squares on `(ln n, ln loss)`.

/// A fitted `loss(n) = b · n^{-a}` curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LearningCurve {
    /// Decay exponent (≥ 0).
    pub a: f64,
    /// Scale.
    pub b: f64,
}

impl LearningCurve {
    /// Fit from `(n, loss)` observations (needs ≥ 2 points with positive
    /// `n` and `loss`). Returns `None` when the fit is impossible.
    pub fn fit(points: &[(usize, f64)]) -> Option<LearningCurve> {
        let logs: Vec<(f64, f64)> = points
            .iter()
            .filter(|(n, l)| *n > 0 && *l > 0.0)
            .map(|(n, l)| ((*n as f64).ln(), l.ln()))
            .collect();
        if logs.len() < 2 {
            return None;
        }
        let m = logs.len() as f64;
        let sx: f64 = logs.iter().map(|(x, _)| x).sum();
        let sy: f64 = logs.iter().map(|(_, y)| y).sum();
        let sxx: f64 = logs.iter().map(|(x, _)| x * x).sum();
        let sxy: f64 = logs.iter().map(|(x, y)| x * y).sum();
        let denom = m * sxx - sx * sx;
        if denom.abs() < 1e-12 {
            return None;
        }
        let slope = (m * sxy - sx * sy) / denom;
        let intercept = (sy - slope * sx) / m;
        Some(LearningCurve {
            a: (-slope).max(0.0),
            b: intercept.exp(),
        })
    }

    /// Predicted loss at training size `n`.
    pub fn loss_at(&self, n: usize) -> f64 {
        if n == 0 {
            return self.b;
        }
        self.b * (n as f64).powf(-self.a)
    }

    /// Predicted loss reduction from growing `n` by `delta` examples.
    pub fn marginal_gain(&self, n: usize, delta: usize) -> f64 {
        (self.loss_at(n) - self.loss_at(n + delta)).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn recovers_exact_power_law() {
        let truth = LearningCurve { a: 0.5, b: 3.0 };
        let pts: Vec<(usize, f64)> = [10, 50, 100, 400]
            .iter()
            .map(|&n| (n, truth.loss_at(n)))
            .collect();
        let fit = LearningCurve::fit(&pts).unwrap();
        assert!((fit.a - 0.5).abs() < 1e-9);
        assert!((fit.b - 3.0).abs() < 1e-9);
    }

    #[test]
    fn noisy_fit_is_close() {
        let truth = LearningCurve { a: 0.4, b: 2.0 };
        let pts: Vec<(usize, f64)> = (1..=20)
            .map(|i| {
                let n = i * 50;
                let noise = 1.0 + 0.05 * ((i as f64 * 13.7).sin());
                (n, truth.loss_at(n) * noise)
            })
            .collect();
        let fit = LearningCurve::fit(&pts).unwrap();
        assert!((fit.a - 0.4).abs() < 0.05, "a={}", fit.a);
    }

    #[test]
    fn degenerate_inputs_rejected() {
        assert!(LearningCurve::fit(&[]).is_none());
        assert!(LearningCurve::fit(&[(10, 1.0)]).is_none());
        assert!(LearningCurve::fit(&[(10, 1.0), (10, 2.0)]).is_none()); // same x
        assert!(LearningCurve::fit(&[(0, 1.0), (10, 0.0)]).is_none()); // filtered out
    }

    #[test]
    fn marginal_gain_is_diminishing() {
        let c = LearningCurve { a: 0.5, b: 1.0 };
        let g1 = c.marginal_gain(100, 100);
        let g2 = c.marginal_gain(1000, 100);
        assert!(g1 > g2);
        assert!(g2 > 0.0);
    }

    proptest! {
        #[test]
        fn loss_is_monotone_decreasing(a in 0.01f64..2.0, b in 0.1f64..10.0,
                                       n in 1usize..10_000) {
            let c = LearningCurve { a, b };
            prop_assert!(c.loss_at(n) >= c.loss_at(n + 1) - 1e-12);
            prop_assert!(c.marginal_gain(n, 10) >= 0.0);
        }
    }
}
