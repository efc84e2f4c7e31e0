//! # rdi-entitycollect
//!
//! Distribution-aware crowdsourced entity collection (tutorial §4.1,
//! after Fan et al., TKDE 2019).
//!
//! The open-world problem: a requester wants entities (e.g. points of
//! interest) whose category distribution matches a target (e.g. evenly
//! spread over city districts), but each crowd worker submits entities
//! from their own latent distribution — the tourist knows downtown, the
//! student knows the campus area. The collector therefore iterates
//! between (a) estimating each worker's distribution from their
//! submissions so far and (b) selecting the workers whose expected
//! contribution moves the collected distribution closest to the target.
//!
//! [`run_collection`] simulates the loop and records the divergence
//! trajectory, with [`WorkerSelection::Adaptive`] (the paper's approach)
//! and [`WorkerSelection::Random`] (baseline).

//!
//! ```
//! use rand::SeedableRng;
//! use rdi_entitycollect::{run_collection, SimulatedWorker, WorkerSelection};
//! use rdi_fairness::Categorical;
//!
//! let workers: Vec<SimulatedWorker> = (0..3).map(|i| {
//!     let mut w = vec![0.1; 3];
//!     w[i] = 1.0;
//!     SimulatedWorker { name: format!("w{i}"), latent: Categorical::from_weights(&w), batch: 5 }
//! }).collect();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let trace = run_collection(&workers, &Categorical::uniform(3), 60,
//!                            WorkerSelection::Adaptive, &mut rng);
//! assert!(*trace.divergence.last().unwrap() < 0.05);
//! ```
#![warn(missing_docs)]
#![forbid(unsafe_code)]

use rand::Rng;
use rdi_fairness::{kl_divergence, Categorical};

/// A simulated crowd worker with a latent entity distribution.
#[derive(Debug, Clone)]
pub struct SimulatedWorker {
    /// Worker name.
    pub name: String,
    /// Latent distribution over entity categories (hidden from the
    /// collector).
    pub latent: Categorical,
    /// Entities submitted per assignment.
    pub batch: usize,
}

impl SimulatedWorker {
    /// Submit one batch of entity category indices.
    pub fn submit<R: Rng>(&self, rng: &mut R) -> Vec<usize> {
        (0..self.batch).map(|_| self.latent.sample(rng)).collect()
    }
}

/// How the collector picks the next worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerSelection {
    /// Uniformly random worker each round (baseline).
    Random,
    /// Estimate each worker's distribution from their history
    /// (Laplace-smoothed) and pick the worker whose *expected* batch
    /// minimizes the post-round KL(target ‖ collected).
    Adaptive,
}

/// Per-round record of a collection run.
#[derive(Debug, Clone)]
pub struct CollectionTrace {
    /// KL(target ‖ collected) after each round (smoothed).
    pub divergence: Vec<f64>,
    /// Total entities collected.
    pub total_entities: usize,
    /// Final per-category counts.
    pub counts: Vec<usize>,
    /// Assignments given to each worker.
    pub assignments: Vec<usize>,
}

/// Current collected counts → smoothed empirical distribution.
fn empirical(counts: &[usize]) -> Categorical {
    Categorical::from_counts_smoothed(counts, 0.5)
}

/// Simulate `rounds` assignment rounds over `workers` toward `target`.
pub fn run_collection<R: Rng>(
    workers: &[SimulatedWorker],
    target: &Categorical,
    rounds: usize,
    selection: WorkerSelection,
    rng: &mut R,
) -> CollectionTrace {
    assert!(!workers.is_empty(), "need at least one worker");
    let k = target.len();
    for w in workers {
        assert_eq!(w.latent.len(), k, "worker domain mismatch");
    }
    let mut counts = vec![0usize; k];
    // per-worker observation history
    let mut histories: Vec<Vec<usize>> = vec![vec![0; k]; workers.len()];
    let mut submissions = vec![0usize; workers.len()];
    let mut assignments = vec![0usize; workers.len()];
    let mut divergence = Vec::with_capacity(rounds);

    for _round in 0..rounds {
        let chosen = match selection {
            WorkerSelection::Random => rng.gen_range(0..workers.len()),
            WorkerSelection::Adaptive => {
                // Estimate each worker's distribution; unknown workers get
                // a uniform prior, so every worker is worth one probe.
                let mut best = (f64::INFINITY, 0usize);
                for (i, w) in workers.iter().enumerate() {
                    let est = Categorical::from_counts_smoothed(&histories[i], 1.0);
                    // expected post-round counts
                    let mut hypothetical: Vec<f64> =
                        counts.iter().map(|&c| c as f64 + 0.5).collect();
                    for (h, p) in hypothetical.iter_mut().zip(est.probs()) {
                        *h += p * w.batch as f64;
                    }
                    let hypo = Categorical::from_weights(&hypothetical);
                    let d = kl_divergence(target, &hypo);
                    if d < best.0 {
                        best = (d, i);
                    }
                }
                best.1
            }
        };
        assignments[chosen] += 1;
        for cat in workers[chosen].submit(rng) {
            counts[cat] += 1;
            histories[chosen][cat] += 1;
        }
        submissions[chosen] += workers[chosen].batch;
        divergence.push(kl_divergence(target, &empirical(&counts)));
    }

    CollectionTrace {
        divergence,
        total_entities: counts.iter().sum(),
        counts,
        assignments,
    }
}

/// Simulate `rounds` rounds selecting a **set of `m` workers** per round
/// (the paper's setting: each task round assigns several workers at
/// once). Adaptive selection is greedy: workers are added to the round's
/// set one at a time, each minimizing the expected post-set KL given the
/// workers already chosen.
pub fn run_collection_batch<R: Rng>(
    workers: &[SimulatedWorker],
    target: &Categorical,
    rounds: usize,
    m: usize,
    selection: WorkerSelection,
    rng: &mut R,
) -> CollectionTrace {
    assert!(!workers.is_empty() && m >= 1 && m <= workers.len());
    let k = target.len();
    for w in workers {
        assert_eq!(w.latent.len(), k, "worker domain mismatch");
    }
    let mut counts = vec![0usize; k];
    let mut histories: Vec<Vec<usize>> = vec![vec![0; k]; workers.len()];
    let mut assignments = vec![0usize; workers.len()];
    let mut divergence = Vec::with_capacity(rounds);

    for _round in 0..rounds {
        let chosen: Vec<usize> = match selection {
            WorkerSelection::Random => {
                // m distinct random workers (partial Fisher–Yates)
                let mut idx: Vec<usize> = (0..workers.len()).collect();
                for i in 0..m {
                    let j = rng.gen_range(i..idx.len());
                    idx.swap(i, j);
                }
                idx.truncate(m);
                idx
            }
            WorkerSelection::Adaptive => {
                let mut set = Vec::with_capacity(m);
                let mut hypothetical: Vec<f64> = counts.iter().map(|&c| c as f64 + 0.5).collect();
                for _ in 0..m {
                    let mut best = (f64::INFINITY, usize::MAX);
                    for (i, w) in workers.iter().enumerate() {
                        if set.contains(&i) {
                            continue;
                        }
                        let est = Categorical::from_counts_smoothed(&histories[i], 1.0);
                        let mut h = hypothetical.clone();
                        for (hh, p) in h.iter_mut().zip(est.probs()) {
                            *hh += p * w.batch as f64;
                        }
                        let d = kl_divergence(target, &Categorical::from_weights(&h));
                        if d < best.0 {
                            best = (d, i);
                        }
                    }
                    let i = best.1;
                    set.push(i);
                    let est = Categorical::from_counts_smoothed(&histories[i], 1.0);
                    for (hh, p) in hypothetical.iter_mut().zip(est.probs()) {
                        *hh += p * workers[i].batch as f64;
                    }
                }
                set
            }
        };
        for &i in &chosen {
            assignments[i] += 1;
            for cat in workers[i].submit(rng) {
                counts[cat] += 1;
                histories[i][cat] += 1;
            }
        }
        divergence.push(kl_divergence(target, &empirical(&counts)));
    }

    CollectionTrace {
        divergence,
        total_entities: counts.iter().sum(),
        counts,
        assignments,
    }
}

/// Budgeted, cost-aware collection (after the *incentive-based* entity
/// collection of Chai, Fan, Li — ICDE 2018): each worker charges
/// `costs[i]` per assignment, the requester has a `budget`, and the
/// adaptive strategy greedily picks the worker with the best *expected KL
/// reduction per unit cost* until no affordable worker remains.
pub fn run_collection_budgeted<R: Rng>(
    workers: &[SimulatedWorker],
    costs: &[f64],
    target: &Categorical,
    budget: f64,
    selection: WorkerSelection,
    rng: &mut R,
) -> (CollectionTrace, f64) {
    assert_eq!(workers.len(), costs.len(), "one cost per worker");
    assert!(!workers.is_empty());
    assert!(costs.iter().all(|&c| c > 0.0), "costs must be positive");
    let k = target.len();
    for w in workers {
        assert_eq!(w.latent.len(), k, "worker domain mismatch");
    }
    let mut counts = vec![0usize; k];
    let mut histories: Vec<Vec<usize>> = vec![vec![0; k]; workers.len()];
    let mut assignments = vec![0usize; workers.len()];
    let mut divergence = Vec::new();
    let mut spent = 0.0;

    loop {
        let affordable: Vec<usize> = (0..workers.len())
            .filter(|&i| spent + costs[i] <= budget)
            .collect();
        if affordable.is_empty() {
            break;
        }
        let chosen = match selection {
            WorkerSelection::Random => affordable[rng.gen_range(0..affordable.len())],
            WorkerSelection::Adaptive => {
                let current_kl = kl_divergence(target, &empirical(&counts));
                let mut best = (f64::NEG_INFINITY, affordable[0]);
                for &i in &affordable {
                    let est = Categorical::from_counts_smoothed(&histories[i], 1.0);
                    let mut hypothetical: Vec<f64> =
                        counts.iter().map(|&c| c as f64 + 0.5).collect();
                    for (h, p) in hypothetical.iter_mut().zip(est.probs()) {
                        *h += p * workers[i].batch as f64;
                    }
                    let d = kl_divergence(target, &Categorical::from_weights(&hypothetical));
                    let gain_per_cost = (current_kl - d) / costs[i];
                    if gain_per_cost > best.0 {
                        best = (gain_per_cost, i);
                    }
                }
                best.1
            }
        };
        spent += costs[chosen];
        assignments[chosen] += 1;
        for cat in workers[chosen].submit(rng) {
            counts[cat] += 1;
            histories[chosen][cat] += 1;
        }
        divergence.push(kl_divergence(target, &empirical(&counts)));
    }

    (
        CollectionTrace {
            divergence,
            total_entities: counts.iter().sum(),
            counts,
            assignments,
        },
        spent,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn specialists(k: usize, batch: usize) -> Vec<SimulatedWorker> {
        // worker i submits almost only category i
        (0..k)
            .map(|i| {
                let mut w = vec![0.05; k];
                w[i] = 1.0;
                SimulatedWorker {
                    name: format!("w{i}"),
                    latent: Categorical::from_weights(&w),
                    batch,
                }
            })
            .collect()
    }

    #[test]
    fn adaptive_converges_to_uniform_target() {
        let workers = specialists(4, 10);
        let target = Categorical::uniform(4);
        let mut rng = StdRng::seed_from_u64(1);
        let trace = run_collection(&workers, &target, 80, WorkerSelection::Adaptive, &mut rng);
        assert_eq!(trace.total_entities, 800);
        // final distribution close to uniform
        let final_kl = *trace.divergence.last().unwrap();
        assert!(final_kl < 0.02, "final_kl={final_kl}");
        // divergence shrinks over time
        assert!(trace.divergence[5] > final_kl);
    }

    #[test]
    fn adaptive_beats_random_against_skewed_workers() {
        // 1 worker knows the rare category, 5 workers flood category 0
        let mut workers = vec![];
        for i in 0..5 {
            workers.push(SimulatedWorker {
                name: format!("common{i}"),
                latent: Categorical::from_weights(&[0.9, 0.1]),
                batch: 10,
            });
        }
        workers.push(SimulatedWorker {
            name: "rare".into(),
            latent: Categorical::from_weights(&[0.1, 0.9]),
            batch: 10,
        });
        let target = Categorical::uniform(2);
        let runs = 10;
        let mut adaptive_sum = 0.0;
        let mut random_sum = 0.0;
        for seed in 0..runs {
            let mut rng = StdRng::seed_from_u64(100 + seed);
            let a = run_collection(&workers, &target, 40, WorkerSelection::Adaptive, &mut rng);
            adaptive_sum += a.divergence.last().unwrap();
            let mut rng = StdRng::seed_from_u64(200 + seed);
            let r = run_collection(&workers, &target, 40, WorkerSelection::Random, &mut rng);
            random_sum += r.divergence.last().unwrap();
        }
        assert!(
            adaptive_sum < random_sum * 0.6,
            "adaptive={adaptive_sum} random={random_sum}"
        );
    }

    #[test]
    fn adaptive_tracks_nonuniform_target() {
        let workers = specialists(3, 5);
        let target = Categorical::from_weights(&[0.6, 0.3, 0.1]);
        let mut rng = StdRng::seed_from_u64(7);
        let trace = run_collection(&workers, &target, 120, WorkerSelection::Adaptive, &mut rng);
        let emp = Categorical::from_counts_smoothed(&trace.counts, 0.5);
        for (e, t) in emp.probs().iter().zip(target.probs()) {
            assert!((e - t).abs() < 0.07, "emp={e} target={t}");
        }
    }

    #[test]
    fn assignments_sum_to_rounds() {
        let workers = specialists(2, 3);
        let target = Categorical::uniform(2);
        let mut rng = StdRng::seed_from_u64(9);
        let trace = run_collection(&workers, &target, 25, WorkerSelection::Random, &mut rng);
        assert_eq!(trace.assignments.iter().sum::<usize>(), 25);
        assert_eq!(trace.divergence.len(), 25);
    }

    #[test]
    fn batch_selection_converges_and_uses_distinct_workers() {
        let workers = specialists(4, 8);
        let target = Categorical::uniform(4);
        let mut rng = StdRng::seed_from_u64(31);
        let trace = run_collection_batch(
            &workers,
            &target,
            30,
            4,
            WorkerSelection::Adaptive,
            &mut rng,
        );
        assert_eq!(trace.assignments.iter().sum::<usize>(), 30 * 4);
        assert_eq!(trace.total_entities, 30 * 4 * 8);
        assert!(
            *trace.divergence.last().unwrap() < 0.01,
            "final KL {}",
            trace.divergence.last().unwrap()
        );
        // with a uniform target and one specialist per category, the
        // greedy set should assign all four specialists about equally
        let min_a = trace.assignments.iter().min().unwrap();
        let max_a = trace.assignments.iter().max().unwrap();
        assert!(max_a - min_a <= 15, "assignments {:?}", trace.assignments);
    }

    #[test]
    fn batch_adaptive_beats_batch_random() {
        // 6 flooders of category 0, 2 specialists of category 1
        let mut workers = vec![];
        for i in 0..6 {
            workers.push(SimulatedWorker {
                name: format!("c{i}"),
                latent: Categorical::from_weights(&[0.95, 0.05]),
                batch: 8,
            });
        }
        for i in 0..2 {
            workers.push(SimulatedWorker {
                name: format!("r{i}"),
                latent: Categorical::from_weights(&[0.05, 0.95]),
                batch: 8,
            });
        }
        let target = Categorical::uniform(2);
        let mut a_sum = 0.0;
        let mut r_sum = 0.0;
        for seed in 0..8 {
            let mut rng = StdRng::seed_from_u64(400 + seed);
            a_sum += run_collection_batch(
                &workers,
                &target,
                25,
                2,
                WorkerSelection::Adaptive,
                &mut rng,
            )
            .divergence
            .last()
            .unwrap();
            let mut rng = StdRng::seed_from_u64(500 + seed);
            r_sum +=
                run_collection_batch(&workers, &target, 25, 2, WorkerSelection::Random, &mut rng)
                    .divergence
                    .last()
                    .unwrap();
        }
        assert!(a_sum < r_sum * 0.5, "adaptive {a_sum} random {r_sum}");
    }

    #[test]
    fn budgeted_collection_respects_budget_and_prefers_value() {
        // the rare-category specialist costs 2×; still worth buying some
        let workers = vec![
            SimulatedWorker {
                name: "cheap_common".into(),
                latent: Categorical::from_weights(&[0.95, 0.05]),
                batch: 10,
            },
            SimulatedWorker {
                name: "pricey_rare".into(),
                latent: Categorical::from_weights(&[0.05, 0.95]),
                batch: 10,
            },
        ];
        let costs = vec![1.0, 2.0];
        let target = Categorical::uniform(2);
        let mut rng = StdRng::seed_from_u64(50);
        let (trace, spent) = run_collection_budgeted(
            &workers,
            &costs,
            &target,
            60.0,
            WorkerSelection::Adaptive,
            &mut rng,
        );
        assert!(spent <= 60.0);
        // budget binding: can't afford even the cheapest next assignment
        assert!(spent > 60.0 - 2.0 - 1e-9);
        assert!(trace.assignments[1] > 0, "must buy the rare specialist");
        let final_kl = *trace.divergence.last().unwrap();
        assert!(final_kl < 0.05, "final_kl={final_kl}");
    }

    #[test]
    fn budgeted_adaptive_beats_budgeted_random() {
        let workers = vec![
            SimulatedWorker {
                name: "c0".into(),
                latent: Categorical::from_weights(&[0.9, 0.1]),
                batch: 10,
            },
            SimulatedWorker {
                name: "c1".into(),
                latent: Categorical::from_weights(&[0.9, 0.1]),
                batch: 10,
            },
            SimulatedWorker {
                name: "rare".into(),
                latent: Categorical::from_weights(&[0.1, 0.9]),
                batch: 10,
            },
        ];
        let costs = vec![1.0, 1.0, 1.5];
        let target = Categorical::uniform(2);
        let mut a = 0.0;
        let mut r = 0.0;
        for seed in 0..8 {
            let mut rng = StdRng::seed_from_u64(600 + seed);
            a += run_collection_budgeted(
                &workers,
                &costs,
                &target,
                40.0,
                WorkerSelection::Adaptive,
                &mut rng,
            )
            .0
            .divergence
            .last()
            .unwrap();
            let mut rng = StdRng::seed_from_u64(700 + seed);
            r += run_collection_budgeted(
                &workers,
                &costs,
                &target,
                40.0,
                WorkerSelection::Random,
                &mut rng,
            )
            .0
            .divergence
            .last()
            .unwrap();
        }
        assert!(a < r, "adaptive {a} random {r}");
    }

    #[test]
    #[should_panic(expected = "domain mismatch")]
    fn mismatched_worker_domain_panics() {
        let workers = vec![SimulatedWorker {
            name: "w".into(),
            latent: Categorical::uniform(3),
            batch: 1,
        }];
        let target = Categorical::uniform(2);
        let mut rng = StdRng::seed_from_u64(1);
        run_collection(&workers, &target, 1, WorkerSelection::Random, &mut rng);
    }
}
