//! Aggregate estimates with confidence intervals.

/// A point estimate with a normal-approximation 95% confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AqpEstimate {
    /// The point estimate.
    pub value: f64,
    /// Standard error of the estimate.
    pub std_err: f64,
}

impl AqpEstimate {
    /// Build from a point estimate and its standard error.
    pub fn new(value: f64, std_err: f64) -> Self {
        AqpEstimate { value, std_err }
    }

    /// Estimate from i.i.d. per-sample contributions whose mean is the
    /// target quantity (Horvitz–Thompson style): sample mean ± sample
    /// standard error.
    pub fn from_contributions(contributions: &[f64]) -> Self {
        let n = contributions.len();
        if n == 0 {
            return AqpEstimate::new(0.0, f64::INFINITY);
        }
        let mean = contributions.iter().sum::<f64>() / n as f64;
        if n == 1 {
            return AqpEstimate::new(mean, f64::INFINITY);
        }
        let var = contributions
            .iter()
            .map(|c| (c - mean).powi(2))
            .sum::<f64>()
            / (n as f64 - 1.0);
        AqpEstimate::new(mean, (var / n as f64).sqrt())
    }

    /// 95% confidence interval `(lo, hi)`.
    pub fn ci95(&self) -> (f64, f64) {
        (
            self.value - 1.96 * self.std_err,
            self.value + 1.96 * self.std_err,
        )
    }

    /// True iff `truth` lies in the 95% CI.
    pub fn covers(&self, truth: f64) -> bool {
        let (lo, hi) = self.ci95();
        lo <= truth && truth <= hi
    }

    /// Relative error against a non-zero ground truth.
    pub fn relative_error(&self, truth: f64) -> f64 {
        debug_assert!(truth != 0.0);
        (self.value - truth).abs() / truth.abs()
    }
}

/// Quantile estimate from a *uniform* sample of the target population
/// (e.g. a uniform join sample): the sample's nearest-rank quantile, with
/// a distribution-free 95% confidence interval on the quantile's *rank*
/// (binomial argument), mapped back to values.
pub fn quantile_estimate(sample: &[f64], q: f64) -> Option<(f64, (f64, f64))> {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
    if sample.is_empty() {
        return None;
    }
    let mut v = sample.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let point = v[rank - 1];
    // rank CI: q·n ± 1.96·√(n·q·(1−q))
    let half = 1.96 * (n as f64 * q * (1.0 - q)).sqrt();
    let lo = ((q * n as f64 - half).floor().max(1.0) as usize).min(n);
    let hi = ((q * n as f64 + half).ceil().min(n as f64) as usize).max(1);
    Some((point, (v[lo - 1], v[hi - 1])))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contributions_mean_and_stderr() {
        let e = AqpEstimate::from_contributions(&[2.0, 4.0, 6.0, 8.0]);
        assert_eq!(e.value, 5.0);
        // sample var = 20/3, se = sqrt(20/3/4)
        assert!((e.std_err - (20.0 / 3.0f64 / 4.0).sqrt()).abs() < 1e-12);
        let (lo, hi) = e.ci95();
        assert!(lo < 5.0 && hi > 5.0);
        assert!(e.covers(5.0));
        assert!(!e.covers(100.0));
    }

    #[test]
    fn degenerate_inputs() {
        let empty = AqpEstimate::from_contributions(&[]);
        assert_eq!(empty.value, 0.0);
        assert!(empty.std_err.is_infinite());
        let one = AqpEstimate::from_contributions(&[3.0]);
        assert_eq!(one.value, 3.0);
        assert!(one.std_err.is_infinite());
    }

    #[test]
    fn relative_error_is_symmetric_around_truth() {
        let e = AqpEstimate::new(110.0, 1.0);
        assert!((e.relative_error(100.0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn quantile_estimate_brackets_truth() {
        // uniform 0..1000 population, sample of 500 evenly spaced points
        let sample: Vec<f64> = (0..500).map(|i| (i * 2) as f64).collect();
        let (median, (lo, hi)) = quantile_estimate(&sample, 0.5).unwrap();
        assert!((median - 498.0).abs() <= 2.0);
        assert!(lo <= 500.0 && hi >= 496.0);
        assert!(lo <= median && median <= hi);
        // extreme quantiles stay in range
        let (p0, _) = quantile_estimate(&sample, 0.0).unwrap();
        assert_eq!(p0, 0.0);
        let (p100, _) = quantile_estimate(&sample, 1.0).unwrap();
        assert_eq!(p100, 998.0);
        assert!(quantile_estimate(&[], 0.5).is_none());
    }
}
