//! Slice Tuner-style selective data acquisition (Tae & Whang, SIGMOD 2021).
//!
//! Data slices (e.g. demographic groups) have different learning curves:
//! some are data-hungry, some saturate early. Acquiring the same amount
//! everywhere wastes budget on saturated slices while starving the ones
//! that drive both average loss and *unfairness* (the max loss gap across
//! slices). [`allocate_budget`] distributes a budget by greedy marginal
//! gain over the fitted curves — the water-filling scheme that Slice
//! Tuner's convex optimization reduces to for decreasing convex curves —
//! with an optional fairness weight that prioritizes the worst slice.

use serde::Serialize;

use crate::curve::LearningCurve;

/// Pilot observations for one slice: `(name, current size, [(n, loss)…])`.
pub type SlicePilot = (String, usize, Vec<(usize, f64)>);

/// The acquisition state of one slice.
#[derive(Debug, Clone, Serialize)]
pub struct SliceState {
    /// Slice name (e.g. a group key rendering).
    pub name: String,
    /// Examples currently held.
    pub current: usize,
    /// Fitted learning curve.
    pub curve: LearningCurve,
}

/// Allocate `budget` additional examples across slices in `chunk`-sized
/// steps, greedily maximizing `marginal loss reduction +
/// fairness_weight · (is the slice currently worst?)`.
///
/// Returns per-slice additional example counts (sums to ≤ budget, short
/// only by a final partial chunk).
pub fn allocate_budget(
    slices: &[SliceState],
    budget: usize,
    chunk: usize,
    fairness_weight: f64,
) -> Vec<usize> {
    assert!(chunk > 0);
    assert!(fairness_weight >= 0.0);
    let mut alloc = vec![0usize; slices.len()];
    if slices.is_empty() {
        return alloc;
    }
    let mut spent = 0;
    while spent + chunk <= budget {
        // current predicted losses
        let losses: Vec<f64> = slices
            .iter()
            .zip(&alloc)
            .map(|(s, &a)| s.curve.loss_at(s.current + a))
            .collect();
        let worst = losses.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut best = (f64::NEG_INFINITY, 0usize);
        for (i, s) in slices.iter().enumerate() {
            let gain = s.curve.marginal_gain(s.current + alloc[i], chunk);
            let fairness_bonus = if (losses[i] - worst).abs() < 1e-12 {
                fairness_weight * gain
            } else {
                0.0
            };
            let score = gain + fairness_bonus;
            if score > best.0 {
                best = (score, i);
            }
        }
        alloc[best.1] += chunk;
        spent += chunk;
    }
    alloc
}

/// Convenience driver: fit curves from pilot runs and allocate.
#[derive(Debug, Clone)]
pub struct SliceTuner {
    /// Slice states with fitted curves.
    pub slices: Vec<SliceState>,
    /// Acquisition step size.
    pub chunk: usize,
    /// Fairness weight λ.
    pub fairness_weight: f64,
}

impl SliceTuner {
    /// Build from per-slice pilot observations `(name, current size,
    /// [(n, loss)…])`. Slices whose curve cannot be fitted get a flat
    /// curve at their last observed loss (no predicted gain).
    pub fn from_pilot(pilots: &[SlicePilot], chunk: usize, fairness_weight: f64) -> Self {
        let slices = pilots
            .iter()
            .map(|(name, current, pts)| {
                let curve = LearningCurve::fit(pts).unwrap_or(LearningCurve {
                    a: 0.0,
                    b: pts.last().map(|(_, l)| *l).unwrap_or(1.0),
                });
                SliceState {
                    name: name.clone(),
                    current: *current,
                    curve,
                }
            })
            .collect();
        SliceTuner {
            slices,
            chunk,
            fairness_weight,
        }
    }

    /// Allocate a budget over the slices.
    pub fn allocate(&self, budget: usize) -> Vec<(String, usize)> {
        allocate_budget(&self.slices, budget, self.chunk, self.fairness_weight)
            .into_iter()
            .zip(&self.slices)
            .map(|(a, s)| (s.name.clone(), a))
            .collect()
    }

    /// Predicted (average loss, max loss gap) after an allocation.
    pub fn predict_outcome(&self, alloc: &[usize]) -> (f64, f64) {
        assert_eq!(alloc.len(), self.slices.len());
        let losses: Vec<f64> = self
            .slices
            .iter()
            .zip(alloc)
            .map(|(s, &a)| s.curve.loss_at(s.current + a))
            .collect();
        let avg = losses.iter().sum::<f64>() / losses.len().max(1) as f64;
        let max = losses.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = losses.iter().cloned().fold(f64::INFINITY, f64::min);
        (avg, max - min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slice(name: &str, current: usize, a: f64, b: f64) -> SliceState {
        SliceState {
            name: name.into(),
            current,
            curve: LearningCurve { a, b },
        }
    }

    #[test]
    fn budget_flows_to_data_hungry_slice() {
        // slice "hungry" has a steep curve & few examples; "sated" is flat
        let slices = vec![
            slice("hungry", 50, 0.8, 5.0),
            slice("sated", 5_000, 0.8, 5.0),
        ];
        let alloc = allocate_budget(&slices, 1_000, 50, 0.0);
        assert!(alloc[0] > alloc[1], "alloc={alloc:?}");
        assert_eq!(alloc.iter().sum::<usize>(), 1_000);
    }

    #[test]
    fn uniform_slices_get_even_split() {
        let slices = vec![slice("a", 100, 0.5, 2.0), slice("b", 100, 0.5, 2.0)];
        let alloc = allocate_budget(&slices, 400, 50, 0.0);
        assert_eq!(alloc[0] + alloc[1], 400);
        assert!((alloc[0] as i64 - alloc[1] as i64).abs() <= 50);
    }

    #[test]
    fn selective_beats_uniform_on_loss_and_gap() {
        let tuner = SliceTuner {
            slices: vec![
                slice("minority", 30, 0.6, 4.0),
                slice("majority", 3_000, 0.6, 4.0),
            ],
            chunk: 25,
            fairness_weight: 1.0,
        };
        let budget = 1_000;
        let smart: Vec<usize> = tuner.allocate(budget).into_iter().map(|(_, a)| a).collect();
        let uniform = vec![budget / 2, budget / 2];
        let (smart_avg, smart_gap) = tuner.predict_outcome(&smart);
        let (uni_avg, uni_gap) = tuner.predict_outcome(&uniform);
        assert!(smart_avg <= uni_avg + 1e-12);
        assert!(
            smart_gap < uni_gap,
            "smart_gap={smart_gap} uni_gap={uni_gap}"
        );
    }

    #[test]
    fn from_pilot_fits_curves() {
        let c = LearningCurve { a: 0.5, b: 2.0 };
        let pilots = vec![(
            "s".to_string(),
            100,
            vec![
                (10, c.loss_at(10)),
                (50, c.loss_at(50)),
                (100, c.loss_at(100)),
            ],
        )];
        let tuner = SliceTuner::from_pilot(&pilots, 10, 0.0);
        assert!((tuner.slices[0].curve.a - 0.5).abs() < 1e-9);
    }

    #[test]
    fn unfittable_pilot_gets_flat_curve() {
        let pilots = vec![("s".to_string(), 100, vec![(10, 1.0)])];
        let tuner = SliceTuner::from_pilot(&pilots, 10, 0.0);
        assert_eq!(tuner.slices[0].curve.a, 0.0);
        // flat curve → no gain → allocation still terminates
        let alloc = tuner.allocate(100);
        assert_eq!(alloc[0].1, 100); // single slice gets everything anyway
    }

    #[test]
    fn empty_slices_and_zero_budget() {
        assert!(allocate_budget(&[], 100, 10, 0.0).is_empty());
        let slices = vec![slice("a", 10, 0.5, 1.0)];
        assert_eq!(allocate_budget(&slices, 0, 10, 0.0), vec![0]);
        assert_eq!(allocate_budget(&slices, 5, 10, 0.0), vec![0]); // budget < chunk
    }
}
