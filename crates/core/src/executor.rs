//! The resilient tailoring executor: retries, circuit breakers, and
//! graceful degradation.
//!
//! [`run_resilient`] is a driver over the shared tailoring draw loop
//! ([`rdi_tailor::run_draw_loop`], the same loop behind
//! [`rdi_tailor::run_tailoring`]). Its draw step calls the fallible
//! [`Source::try_draw`] and treats failures as data rather than
//! aborting:
//!
//! * each failed attempt is retried up to
//!   [`rdi_fault::ResilienceConfig::max_attempts`] times with capped
//!   exponential backoff charged to a virtual [`rdi_fault::TickClock`]
//!   (never a wall-clock sleep);
//! * a per-source [`rdi_fault::RecoveringBreaker`] quarantines a
//!   source for the rest of the run after `breaker_threshold`
//!   consecutive failed attempts (the executor never asks it to
//!   [`admit`](rdi_fault::RecoveringBreaker::admit), so it never
//!   half-opens); draws routed to a quarantined source are
//!   redirected to a live source chosen by the `core.redirect`
//!   selection policy (default: the next live one, cyclically by
//!   index);
//! * when every source is quarantined the run **degrades** instead of
//!   erroring: it returns the partial collection plus typed
//!   [`ProvenanceEvent`]s naming every quarantined source and the rows
//!   that could not be collected.
//!
//! Determinism: the executor consumes the run RNG in exactly the same
//! order as `run_tailoring` (one `policy.choose`, then one `try_draw`
//! per attempt), so with fault-free sources the outcome — collected
//! table, counters, provenance — is bitwise identical to the legacy
//! runner's.
//!
//! Every integer operation here is checked or saturating (clippy's
//! `arithmetic_side_effects` is denied): attempt counts, health
//! tallies and backoff ticks stop at their maximum rather than wrap.

#![deny(clippy::arithmetic_side_effects)]

use rand::Rng;
use rdi_fault::{RecoveringBreaker, ResilienceConfig, TickClock};
use rdi_obs::{Histogram, ProvenanceEvent};
use rdi_policy::{Candidate, ExemplarSite, PolicyId, PolicySet, Score};
use rdi_tailor::{run_draw_loop, DrawStep, DtProblem, Policy, Source, SourceError, TailorOutcome};

use crate::metrics;

/// The `core.redirect` decision: which healthy source absorbs a draw
/// aimed at quarantined `chosen`, plus the exemplar event on the run's
/// first redirect.
///
/// Candidates are the non-quarantined sources at cyclic offsets
/// `1..len` from the chosen source, scored `-offset` (an [`Score::I64`])
/// so the default `dir=max` params pick the *closest* live source —
/// exactly the historic "next live source, cyclically by index" rule —
/// while `dir=min` flips to the farthest. An empty candidate set is the
/// auditable "every source quarantined" outcome.
///
/// Redirects fire per draw (thousands per degraded run), so like the
/// `tailor.keep` site this is an [`ExemplarSite`]: the first decision
/// emits the full `PolicyDecision` event (returned for the caller's
/// event stream) and every later one is only tallied.
fn redirect_target(
    site: &mut ExemplarSite,
    chosen: usize,
    breakers: &[RecoveringBreaker],
    health: &[SourceHealth],
) -> (Option<usize>, Option<ProvenanceEvent>) {
    let mut candidates = Vec::new();
    let mut indices = Vec::new();
    // every index but `chosen`, cyclically from `chosen + 1`
    let cyclic = (chosen..breakers.len()).chain(0..chosen).skip(1);
    for (off, i) in (1i64..).zip(cyclic) {
        if !breakers[i].is_open() {
            candidates.push(Candidate::new(
                health[i].name.clone(),
                Score::I64(off.saturating_neg()),
            ));
            indices.push(i);
        }
    }
    let (event, ranking) = site.decide(&candidates);
    (ranking.first().map(|&w| indices[w]), event)
}

/// How one source fared over a resilient run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceHealth {
    /// Source name.
    pub name: String,
    /// Physical attempts issued (first tries + retries).
    pub attempts: u64,
    /// Attempts that returned a record.
    pub successes: u64,
    /// Failed attempts per failure mode, indexed by
    /// [`SourceError::index`].
    pub failures_by_kind: [u64; 4],
    /// Retries spent (attempts beyond each logical draw's first).
    pub retries: u64,
    /// Logical draws abandoned after exhausting attempts or hitting the
    /// breaker.
    pub abandoned_draws: u64,
    /// Set once the circuit breaker opened.
    pub quarantined: Option<Quarantine>,
}

/// When and why a source's breaker opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quarantine {
    /// Consecutive failed attempts that tripped the breaker.
    pub consecutive_failures: u32,
    /// Virtual tick at which it opened.
    pub at_tick: u64,
}

impl SourceHealth {
    fn new(name: &str) -> Self {
        SourceHealth {
            name: name.to_string(),
            attempts: 0,
            successes: 0,
            failures_by_kind: [0; 4],
            retries: 0,
            abandoned_draws: 0,
            quarantined: None,
        }
    }

    /// Total failed attempts across all modes (saturating).
    pub fn failures_total(&self) -> u64 {
        self.failures_by_kind
            .iter()
            .fold(0, |total, &n| total.saturating_add(n))
    }

    /// The non-zero `(kind, count)` pairs in stable taxonomy order.
    pub fn failures_by_kind_named(&self) -> Vec<(String, u64)> {
        SourceError::ALL
            .iter()
            .map(|e| (e.kind().to_string(), self.failures_by_kind[e.index()]))
            .filter(|(_, n)| *n > 0)
            .collect()
    }
}

/// Everything a resilient run produces.
#[derive(Debug, Clone)]
pub struct ResilientOutcome {
    /// The ordinary tailoring outcome (collected table, counts, cost —
    /// cost is charged per *attempt*, so retries are paid for).
    pub tailor: TailorOutcome,
    /// Per-source fault/retry/quarantine accounting, in source order.
    pub health: Vec<SourceHealth>,
    /// Typed provenance: `SourceQuarantined` events in occurrence
    /// order, then one `SourceFaults` summary per affected source in
    /// source order.
    pub events: Vec<ProvenanceEvent>,
    /// True when requirements went unmet *because of* source failures
    /// (quarantines or faults), as opposed to an ordinary budget cap.
    pub degraded: bool,
    /// Virtual backoff ticks accrued across all retries.
    pub backoff_ticks: u64,
}

impl ResilientOutcome {
    /// Names of quarantined sources, in source order.
    pub fn quarantined(&self) -> Vec<String> {
        self.health
            .iter()
            .filter(|h| h.quarantined.is_some())
            .map(|h| h.name.clone())
            .collect()
    }

    /// Rows still missing per group (`lo` minus collected, saturating).
    pub fn missing_per_group(&self, problem: &DtProblem) -> Vec<usize> {
        self.tailor
            .per_group
            .iter()
            .zip(&problem.requirements)
            .map(|(&c, r)| r.lo.saturating_sub(c))
            .collect()
    }
}

/// Drive `policy` against fallible `sources` until the problem's
/// requirements are met, `max_draws` logical draws have been issued, or
/// every source is quarantined. The `core.redirect` and `tailor.keep`
/// decision sites take their params from `policies` (an empty
/// [`PolicySet`] runs both on their documented defaults).
///
/// Never fails on *source* trouble — `Err` is reserved for structural
/// problems (invalid problem, mismatched schemas, no sources, a policy
/// choosing a source out of range), same as
/// [`rdi_tailor::run_tailoring`]. See the module docs for semantics.
pub fn run_resilient<S: Source, R: Rng>(
    sources: &mut [S],
    problem: &DtProblem,
    policy: &mut dyn Policy,
    rng: &mut R,
    max_draws: usize,
    config: &ResilienceConfig,
    policies: &PolicySet,
) -> rdi_table::Result<ResilientOutcome> {
    config.validate();
    // `admit` is never called, so the cooldown never elapses: a tripped
    // breaker quarantines its source for the rest of the run.
    let mut breakers: Vec<RecoveringBreaker> = (0..sources.len())
        .map(|_| RecoveringBreaker::new(config.breaker_threshold, u64::MAX))
        .collect();
    let mut health: Vec<SourceHealth> = sources
        .iter()
        .map(|s| SourceHealth::new(s.name()))
        .collect();
    let mut clock = TickClock::new();
    let mut events: Vec<ProvenanceEvent> = Vec::new();
    let mut backoff_ticks = 0u64;
    let mut all_quarantined = false;
    let mut redirect =
        ExemplarSite::new(PolicyId::REDIRECT, policies.params_for(PolicyId::REDIRECT));

    // Resolved before the first draw: a run that draws nothing still
    // lists the histogram.
    let attempts_hist: &Histogram = &metrics::ATTEMPTS_PER_DRAW;

    let tailor = run_draw_loop(
        sources,
        problem,
        policy,
        rng,
        max_draws,
        policies.params_for(PolicyId::TAILOR_KEEP),
        |sources, chosen, rng| {
            // Redirect a pick of a quarantined source through the
            // `core.redirect` policy (default: closest live source,
            // cyclically by index). No live source left → the run
            // degrades instead of spinning.
            let s = if breakers[chosen].is_open() {
                let (winner, event) = redirect_target(&mut redirect, chosen, &breakers, &health);
                events.extend(event);
                let Some(s) = winner else {
                    all_quarantined = true;
                    return DrawStep::Stop;
                };
                s
            } else {
                chosen
            };
            if s != chosen {
                metrics::REDIRECTS.inc();
            }

            // One logical draw: up to max_attempts physical attempts,
            // each paid for, with backoff between failures.
            let mut attempt: u32 = 0;
            let mut drawn = None;
            loop {
                attempt = attempt.saturating_add(1);
                health[s].attempts = health[s].attempts.saturating_add(1);
                match sources[s].try_draw(rng) {
                    Ok(d) => {
                        breakers[s].record_success();
                        health[s].successes = health[s].successes.saturating_add(1);
                        drawn = Some(d);
                        break;
                    }
                    Err(e) => {
                        let failures = &mut health[s].failures_by_kind[e.index()];
                        *failures = failures.saturating_add(1);
                        metrics::FAULTS.inc();
                        if breakers[s].record_failure(clock.now()).tripped() {
                            let q = Quarantine {
                                consecutive_failures: breakers[s].consecutive_failures(),
                                at_tick: clock.now(),
                            };
                            health[s].quarantined = Some(q);
                            events.push(ProvenanceEvent::SourceQuarantined {
                                source: health[s].name.clone(),
                                consecutive_failures: q.consecutive_failures,
                                at_tick: q.at_tick,
                            });
                            metrics::BREAKER_TRIPS.inc();
                            break; // no more attempts against a quarantined source
                        }
                        if attempt >= config.max_attempts {
                            break;
                        }
                        let wait = config.backoff.delay(attempt);
                        clock.advance(wait);
                        backoff_ticks = backoff_ticks.saturating_add(wait);
                        health[s].retries = health[s].retries.saturating_add(1);
                        metrics::RETRIES.inc();
                    }
                }
            }
            attempts_hist.record(f64::from(attempt));

            // A failed logical draw still counts against the budget and
            // is reported to the policy as an unproductive draw, so
            // policies learn to avoid flaky sources exactly as they
            // avoid useless ones.
            if drawn.is_none() {
                health[s].abandoned_draws = health[s].abandoned_draws.saturating_add(1);
                metrics::ABANDONED_DRAWS.inc();
            }
            DrawStep::Drew {
                source: s,
                attempts: attempt,
                draw: drawn,
            }
        },
    )?;
    metrics::BACKOFF_TICKS.add(backoff_ticks);

    for h in &health {
        if h.failures_total() > 0 {
            events.push(ProvenanceEvent::SourceFaults {
                source: h.name.clone(),
                by_kind: h.failures_by_kind_named(),
                retries: h.retries,
            });
        }
    }

    let any_faults = health.iter().any(|h| h.failures_total() > 0);
    let degraded = all_quarantined || (!tailor.satisfied && any_faults);

    Ok(ResilientOutcome {
        tailor,
        health,
        events,
        degraded,
        backoff_ticks,
    })
}

#[cfg(test)]
#[allow(
    clippy::arithmetic_side_effects,
    reason = "test fixtures count small, known quantities"
)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rdi_fault::{FaultSpec, FaultySource};
    use rdi_policy::PolicyParams;
    use rdi_table::{DataType, Field, GroupKey, GroupSpec, Role, Schema, Table, Value};
    use rdi_tailor::{run_tailoring, RandomPolicy, TableSource};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("g", DataType::Str).with_role(Role::Sensitive)
        ])
    }

    fn problem(na: usize, nb: usize) -> DtProblem {
        DtProblem::exact_counts(
            GroupSpec::new(vec!["g"]),
            vec![
                (GroupKey(vec![Value::str("a")]), na),
                (GroupKey(vec![Value::str("b")]), nb),
            ],
        )
    }

    fn source(name: &str, frac_a: f64, n: usize, p: &DtProblem) -> TableSource {
        let mut t = Table::new(schema());
        for i in 0..n {
            let g = if (i as f64) < frac_a * n as f64 {
                "a"
            } else {
                "b"
            };
            t.push_row(vec![Value::str(g)]).unwrap();
        }
        TableSource::new(name, t, 1.0, p).unwrap()
    }

    #[test]
    fn fault_free_run_is_bitwise_identical_to_legacy_runner() {
        let p = problem(40, 40);
        let mut legacy_sources = vec![source("s0", 0.5, 500, &p), source("s1", 0.2, 500, &p)];
        let mut new_sources = legacy_sources.clone();
        let mut pol_a = RandomPolicy::new(2);
        let mut pol_b = RandomPolicy::new(2);
        let mut rng_a = StdRng::seed_from_u64(77);
        let mut rng_b = StdRng::seed_from_u64(77);
        let legacy =
            run_tailoring(&mut legacy_sources, &p, &mut pol_a, &mut rng_a, 100_000).unwrap();
        let res = run_resilient(
            &mut new_sources,
            &p,
            &mut pol_b,
            &mut rng_b,
            100_000,
            &ResilienceConfig::default(),
            &PolicySet::new(),
        )
        .unwrap();
        assert_eq!(res.tailor.collected, legacy.collected);
        assert_eq!(res.tailor.per_group, legacy.per_group);
        assert_eq!(res.tailor.per_source_draws, legacy.per_source_draws);
        assert_eq!(res.tailor.draws, legacy.draws);
        assert_eq!(res.tailor.total_cost, legacy.total_cost);
        assert_eq!(res.tailor.decisions, legacy.decisions);
        assert!(!res.degraded);
        assert!(res.events.is_empty());
        assert_eq!(res.backoff_ticks, 0);
    }

    #[test]
    fn thirty_percent_faults_complete_without_panic() {
        let p = problem(50, 50);
        let mut sources: Vec<FaultySource<TableSource>> = (0..3)
            .map(|i| {
                FaultySource::new(
                    source(&format!("s{i}"), 0.5, 500, &p),
                    FaultSpec::uniform(0.3),
                    100 + i as u64,
                )
            })
            .collect();
        let mut policy = RandomPolicy::new(3);
        let mut rng = StdRng::seed_from_u64(5);
        let res = run_resilient(
            &mut sources,
            &p,
            &mut policy,
            &mut rng,
            1_000_000,
            &ResilienceConfig::default(),
            &PolicySet::new(),
        )
        .unwrap();
        assert!(res.tailor.satisfied, "30% faults should only slow the run");
        assert!(!res.degraded);
        let faults: u64 = res.health.iter().map(|h| h.failures_total()).sum();
        assert!(faults > 0, "faults must have been observed");
        let retries: u64 = res.health.iter().map(|h| h.retries).sum();
        assert!(retries > 0, "retries must have been spent");
        assert!(res.backoff_ticks > 0);
        // fault summaries name every affected source
        let summarized: Vec<&str> = res
            .events
            .iter()
            .filter_map(|e| match e {
                ProvenanceEvent::SourceFaults { source, .. } => Some(source.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(summarized, vec!["s0", "s1", "s2"]);
    }

    #[test]
    fn dead_source_is_quarantined_and_run_succeeds_off_the_live_one() {
        let p = problem(20, 20);
        let mut sources = vec![
            FaultySource::new(source("dead", 0.5, 500, &p), FaultSpec::dead(), 9),
            FaultySource::new(source("live", 0.5, 500, &p), FaultSpec::none(), 10),
        ];
        let mut policy = RandomPolicy::new(2);
        let mut rng = StdRng::seed_from_u64(6);
        let res = run_resilient(
            &mut sources,
            &p,
            &mut policy,
            &mut rng,
            1_000_000,
            &ResilienceConfig::default(),
            &PolicySet::new(),
        )
        .unwrap();
        assert!(res.tailor.satisfied);
        assert!(!res.degraded, "requirements met: not degraded");
        assert_eq!(res.quarantined(), vec!["dead".to_string()]);
        let q = res.health[0].quarantined.expect("dead source quarantined");
        assert_eq!(q.consecutive_failures, 5);
        assert!(matches!(
            &res.events[0],
            ProvenanceEvent::SourceQuarantined { source, .. } if source == "dead"
        ));
        // after quarantine the dead source receives no further attempts
        assert_eq!(res.health[0].attempts, u64::from(q.consecutive_failures));
    }

    #[test]
    fn redirect_policy_override_flips_the_absorbing_source() {
        let p = problem(20, 20);
        let run = |policies: &PolicySet| {
            let mut sources = vec![
                FaultySource::new(source("dead", 0.5, 500, &p), FaultSpec::dead(), 9),
                FaultySource::new(source("near", 0.5, 500, &p), FaultSpec::none(), 10),
                FaultySource::new(source("far", 0.5, 500, &p), FaultSpec::none(), 11),
            ];
            let mut policy = RandomPolicy::new(3);
            let mut rng = StdRng::seed_from_u64(6);
            run_resilient(
                &mut sources,
                &p,
                &mut policy,
                &mut rng,
                1_000_000,
                &ResilienceConfig::default(),
                policies,
            )
            .unwrap()
        };
        let default = run(&PolicySet::new());
        let flipped =
            run(&PolicySet::new().with(PolicyId::REDIRECT, PolicyParams::new().with("dir", "min")));
        let winner = |res: &ResilientOutcome| {
            res.events
                .iter()
                .find_map(|e| match e {
                    ProvenanceEvent::PolicyDecision { policy, winner, .. }
                        if *policy == "core.redirect" =>
                    {
                        winner.as_deref().map(String::from)
                    }
                    _ => None,
                })
                .expect("redirect exemplar emitted")
        };
        assert_eq!(winner(&default), "near", "default: closest live source");
        assert_eq!(winner(&flipped), "far", "dir=min: farthest live source");
        assert_ne!(
            default.tailor.per_source_draws, flipped.tailor.per_source_draws,
            "the override must reroute real draws"
        );
    }

    #[test]
    fn redirect_walks_the_sources_cyclically_from_the_chosen_one() {
        let health = ["s0", "s1", "s2", "s3"].map(SourceHealth::new);
        let mut breakers: Vec<RecoveringBreaker> = (0..4)
            .map(|_| RecoveringBreaker::new(1, u64::MAX))
            .collect();
        for i in [2, 3] {
            assert!(breakers[i].record_failure(0).tripped());
        }
        let target = |params: PolicyParams| {
            let mut site = ExemplarSite::new(PolicyId::REDIRECT, params);
            redirect_target(&mut site, 2, &breakers, &health).0
        };
        assert_eq!(
            target(PolicyParams::new()),
            Some(0),
            "closest, past the end"
        );
        assert_eq!(target(PolicyParams::new().with("dir", "min")), Some(1));
    }

    #[test]
    fn failure_tallies_saturate() {
        let mut h = SourceHealth::new("s");
        h.failures_by_kind = [u64::MAX, 1, 0, 0];
        assert_eq!(h.failures_total(), u64::MAX);
    }

    #[test]
    fn all_sources_dead_degrades_instead_of_spinning() {
        let p = problem(10, 10);
        let mut sources = vec![
            FaultySource::new(source("d0", 0.5, 100, &p), FaultSpec::dead(), 1),
            FaultySource::new(source("d1", 0.5, 100, &p), FaultSpec::dead(), 2),
        ];
        let mut policy = RandomPolicy::new(2);
        let mut rng = StdRng::seed_from_u64(7);
        let res = run_resilient(
            &mut sources,
            &p,
            &mut policy,
            &mut rng,
            1_000_000,
            &ResilienceConfig::default(),
            &PolicySet::new(),
        )
        .unwrap();
        assert!(!res.tailor.satisfied);
        assert!(res.degraded);
        assert_eq!(res.quarantined(), vec!["d0".to_string(), "d1".to_string()]);
        assert_eq!(res.missing_per_group(&p), vec![10, 10]);
        assert_eq!(res.tailor.collected.num_rows(), 0);
        // far fewer than max_draws logical draws were issued
        assert!(res.tailor.draws < 100);
    }

    #[test]
    fn cost_is_charged_per_attempt() {
        let p = problem(5, 5);
        let mut sources = vec![FaultySource::new(
            source("s", 0.5, 100, &p),
            FaultSpec::uniform(0.5),
            3,
        )];
        let mut policy = RandomPolicy::new(1);
        let mut rng = StdRng::seed_from_u64(8);
        let res = run_resilient(
            &mut sources,
            &p,
            &mut policy,
            &mut rng,
            100_000,
            &ResilienceConfig::default(),
            &PolicySet::new(),
        )
        .unwrap();
        let attempts: u64 = res.health.iter().map(|h| h.attempts).sum();
        assert!(attempts as usize > res.tailor.draws, "retries happened");
        assert_eq!(
            res.tailor.total_cost, attempts as f64,
            "unit cost × attempts"
        );
    }

    #[test]
    fn identical_seeds_identical_outcomes() {
        let run = || {
            let p = problem(15, 15);
            let mut sources = vec![
                FaultySource::new(source("s0", 0.5, 200, &p), FaultSpec::uniform(0.4), 50),
                FaultySource::new(source("s1", 0.3, 200, &p), FaultSpec::uniform(0.2), 51),
            ];
            let mut policy = RandomPolicy::new(2);
            let mut rng = StdRng::seed_from_u64(12);
            run_resilient(
                &mut sources,
                &p,
                &mut policy,
                &mut rng,
                1_000_000,
                &ResilienceConfig::default(),
                &PolicySet::new(),
            )
            .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.tailor.collected, b.tailor.collected);
        assert_eq!(a.health, b.health);
        assert_eq!(a.events, b.events);
        assert_eq!(a.backoff_ticks, b.backoff_ticks);
    }
}
