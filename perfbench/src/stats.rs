//! Order statistics for the benchmark's reported timings.

/// A percentile is reported only when at least this many samples lie
/// beyond it, so a tail value never rests on a handful of observations.
const MIN_BEYOND: usize = 10;

/// Nearest-rank `q`-quantile (`0 < q < 1`) of `samples`. Refuses when
/// fewer than [`MIN_BEYOND`] samples rank above it: p99 needs at least
/// 1000 samples, p50 at least 20.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    if !(q > 0.0 && q < 1.0) {
        return Err(format!("percentile {q} outside (0, 1)"));
    }
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n < rank + MIN_BEYOND {
        return Err(format!(
            "p{} of {n} samples has {} beyond it; need {MIN_BEYOND}",
            q * 100.0,
            n.saturating_sub(rank)
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// Middle value of a small sample (mean of the two middle values when
/// the count is even); `0.0` for an empty one.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=999).map(f64::from).collect();
        assert!(
            percentile(&samples, 0.99).is_err(),
            "999 samples leave 9 beyond p99"
        );
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.99), Ok(990.0));
        assert_eq!(percentile(&samples, 0.5), Ok(500.0));
    }

    #[test]
    fn median_refusal_and_small_samples() {
        assert!(percentile(&[1.0; 19], 0.5).is_err());
        assert!(percentile(&[1.0; 20], 0.5).is_ok());
        assert!(percentile(&[1.0; 100], 1.0).is_err());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
