//! Discrete categorical distributions.

use std::collections::BTreeMap;

use serde::Serialize;

/// A discrete probability distribution over `k` categories, stored densely.
///
/// Categories are indexed `0..k`; the mapping from domain values to indices
/// is owned by the caller (e.g. [`rdi_table::GroupKey`] order). Probabilities
/// always sum to 1 (enforced at construction by normalization).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Categorical {
    probs: Vec<f64>,
}

impl Categorical {
    /// Build from non-negative weights (normalized to sum to 1).
    ///
    /// # Panics
    /// Panics if `weights` is empty, contains a negative or non-finite
    /// value, or sums to zero.
    pub fn from_weights(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "empty distribution");
        let sum: f64 = weights.iter().sum();
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0) && sum > 0.0,
            "weights must be non-negative, finite, and not all zero"
        );
        Categorical {
            probs: weights.iter().map(|w| w / sum).collect(),
        }
    }

    /// Build from integer counts.
    pub fn from_counts(counts: &[usize]) -> Self {
        let w: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
        Categorical::from_weights(&w)
    }

    /// Uniform distribution over `k` categories.
    pub fn uniform(k: usize) -> Self {
        assert!(k > 0);
        Categorical {
            probs: vec![1.0 / k as f64; k],
        }
    }

    /// Build from counts with additive (Laplace) smoothing `alpha`.
    ///
    /// Smoothing keeps divergence computations finite when an empirical
    /// distribution has empty categories.
    pub fn from_counts_smoothed(counts: &[usize], alpha: f64) -> Self {
        let w: Vec<f64> = counts.iter().map(|&c| c as f64 + alpha).collect();
        Categorical::from_weights(&w)
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// True iff the distribution has no categories (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// Probability of category `i`.
    pub fn p(&self, i: usize) -> f64 {
        self.probs[i]
    }

    /// The probability vector.
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Sample a category index using the supplied uniform variate
    /// `u ∈ [0, 1)`. Deterministic given `u`; pair with any RNG.
    pub fn sample_with(&self, u: f64) -> usize {
        let mut acc = 0.0;
        for (i, p) in self.probs.iter().enumerate() {
            acc += p;
            if u < acc {
                return i;
            }
        }
        self.probs.len() - 1
    }

    /// Sample using an RNG from the `rand` ecosystem.
    pub fn sample<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.sample_with(rng.gen::<f64>())
    }

    /// Index of the most probable category.
    pub fn argmax(&self) -> usize {
        // `probs` is non-empty by construction; 0 is unreachable.
        self.probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Mix with another distribution: `(1-w)·self + w·other`.
    ///
    /// # Panics
    /// Panics if lengths differ or `w ∉ [0,1]`.
    pub fn mix(&self, other: &Categorical, w: f64) -> Categorical {
        assert_eq!(self.len(), other.len());
        assert!((0.0..=1.0).contains(&w));
        Categorical {
            probs: self
                .probs
                .iter()
                .zip(&other.probs)
                .map(|(a, b)| (1.0 - w) * a + w * b)
                .collect(),
        }
    }
}

/// Build aligned dense distributions from two count maps over the same
/// (unioned) domain. Returns `(domain, p, q)` with the domain sorted for
/// determinism.
pub fn align_counts<K: Ord + Clone>(
    p_counts: &BTreeMap<K, usize>,
    q_counts: &BTreeMap<K, usize>,
    alpha: f64,
) -> (Vec<K>, Categorical, Categorical) {
    let mut domain: Vec<K> = p_counts.keys().chain(q_counts.keys()).cloned().collect();
    domain.sort();
    domain.dedup();
    let p: Vec<usize> = domain
        .iter()
        .map(|k| p_counts.get(k).copied().unwrap_or(0))
        .collect();
    let q: Vec<usize> = domain
        .iter()
        .map(|k| q_counts.get(k).copied().unwrap_or(0))
        .collect();
    (
        domain,
        Categorical::from_counts_smoothed(&p, alpha),
        Categorical::from_counts_smoothed(&q, alpha),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normalizes_weights() {
        let d = Categorical::from_weights(&[2.0, 2.0]);
        assert_eq!(d.probs(), &[0.5, 0.5]);
    }

    #[test]
    #[should_panic]
    fn rejects_all_zero() {
        Categorical::from_weights(&[0.0, 0.0]);
    }

    #[test]
    fn smoothing_fills_empty_categories() {
        let d = Categorical::from_counts_smoothed(&[0, 10], 1.0);
        assert!(d.p(0) > 0.0);
        assert!((d.p(0) + d.p(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sample_with_respects_cdf() {
        let d = Categorical::from_weights(&[0.25, 0.5, 0.25]);
        assert_eq!(d.sample_with(0.0), 0);
        assert_eq!(d.sample_with(0.3), 1);
        assert_eq!(d.sample_with(0.9), 2);
        assert_eq!(d.sample_with(0.999999), 2);
    }

    #[test]
    fn empirical_sampling_converges() {
        let d = Categorical::from_weights(&[0.2, 0.8]);
        let mut rng = StdRng::seed_from_u64(7);
        let n = 20_000;
        let ones = (0..n).filter(|_| d.sample(&mut rng) == 1).count();
        let frac = ones as f64 / n as f64;
        assert!((frac - 0.8).abs() < 0.02, "frac={frac}");
    }

    #[test]
    fn mix_interpolates() {
        let a = Categorical::from_weights(&[1.0, 0.0001]);
        let b = Categorical::uniform(2);
        let m = a.mix(&b, 1.0);
        assert_eq!(m, b);
    }

    #[test]
    fn align_counts_unions_domains() {
        let mut p = BTreeMap::new();
        p.insert("a", 3usize);
        let mut q = BTreeMap::new();
        q.insert("b", 3usize);
        let (dom, pd, qd) = align_counts(&p, &q, 0.5);
        assert_eq!(dom, vec!["a", "b"]);
        assert!(pd.p(0) > pd.p(1));
        assert!(qd.p(1) > qd.p(0));
    }

    #[test]
    fn argmax_picks_mode() {
        let d = Categorical::from_weights(&[0.1, 0.7, 0.2]);
        assert_eq!(d.argmax(), 1);
    }
}
