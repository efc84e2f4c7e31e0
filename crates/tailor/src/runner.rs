//! The tailoring draw loop.
//!
//! [`run_draw_loop`] is the one implementation of "draw from sources
//! until every group is covered": validation, the per-group `remaining`
//! vector, `Policy::choose`, the draw/cost tallies, the audited
//! `tailor.keep` verdict and the `tailor.*` counters. Runners differ
//! only in how one chosen source is drawn, which they pass in as a
//! step closure: [`run_tailoring`] and [`run_tailoring_dedup`] here,
//! and `rdi-core`'s resilient executor (retries, breakers, redirects).
//!
//! Every integer operation on the draw and cost tallies is checked or
//! saturating (clippy's `arithmetic_side_effects` is denied here): a
//! count stops at `usize::MAX` rather than wrap.

#![deny(clippy::arithmetic_side_effects)]

use std::collections::BTreeSet;

use rand::Rng;
use rdi_obs::ProvenanceEvent;
use rdi_policy::{Candidate, ExemplarSite, PolicyId, PolicyParams, Score};
use rdi_table::{Table, TableError};

use crate::metrics;
use crate::policy::Policy;
use crate::problem::DtProblem;
use crate::source::{Draw, Source};

/// Result of a tailoring run.
#[derive(Debug, Clone)]
pub struct TailorOutcome {
    /// Total cost paid across all draws.
    pub total_cost: f64,
    /// Total draws issued (including discarded ones).
    pub draws: usize,
    /// Per-group collected counts (parallel to the problem's groups).
    pub per_group: Vec<usize>,
    /// Whether every group reached its `lo` requirement.
    pub satisfied: bool,
    /// The collected (kept) tuples.
    pub collected: Table,
    /// Draws issued to each source.
    pub per_source_draws: Vec<usize>,
    /// `PolicyDecision` audit events for this run's `tailor.keep`
    /// verdicts: the *exemplar* event from the first verdict. Every
    /// verdict is counted in the `policy.*` metrics.
    pub decisions: Vec<ProvenanceEvent>,
}

/// The `tailor.keep` decision site: audited keep/drop verdicts for
/// drawn records, routed through an [`ExemplarSite`].
///
/// Every verdict ranks two candidates — `keep` scored `2` when the
/// record's group is still under its `hi` cap (else `0`) and `drop`
/// scored a constant `1` — so under the default `dir=max` params the
/// historic "keep while under the cap" rule is reproduced exactly, and
/// overriding `dir=min` inverts it auditablely.
///
/// Keep/drop fires once per useful draw (tens of thousands per run), so
/// the first verdict of a run emits the full `PolicyDecision` event
/// (the exemplar, carried on [`TailorOutcome::decisions`]) and every
/// later verdict is only tallied in the `policy.*` counters.
#[derive(Debug)]
struct KeepDrop {
    site: ExemplarSite,
    exemplar: Option<ProvenanceEvent>,
}

impl KeepDrop {
    fn new(params: PolicyParams) -> Self {
        KeepDrop {
            site: ExemplarSite::new(PolicyId::TAILOR_KEEP, params),
            exemplar: None,
        }
    }

    /// One keep (true) / drop (false) verdict; `eligible` is the
    /// caller's input signal (group still under its `hi` cap).
    fn decide(&mut self, eligible: bool) -> bool {
        let candidates = [
            Candidate::new("keep", Score::U64(if eligible { 2 } else { 0 })),
            Candidate::new("drop", Score::U64(1)),
        ];
        let (event, ranking) = self.site.decide(&candidates);
        if event.is_some() {
            self.exemplar = event;
        }
        ranking.first() == Some(&0)
    }
}

/// What a runner's step did with the source the policy chose.
#[derive(Debug)]
pub enum DrawStep {
    /// One logical draw against `source` (the chosen one, or whichever
    /// source the step redirected it to). It paid `attempts` attempts,
    /// each charged the source's fee, and yielded `draw`; `None` is an
    /// unproductive draw that still counts against the budget.
    Drew {
        /// Index into `sources` of the source actually drawn from.
        source: usize,
        /// Paid attempts (first try plus retries).
        attempts: u32,
        /// The record, or `None` when no usable record came back.
        draw: Option<Draw>,
    },
    /// End the run now without counting a draw.
    Stop,
}

/// Drive `policy` against `sources` until the problem's requirements are
/// met, `max_draws` draws have been issued, or `step` returns
/// [`DrawStep::Stop`].
///
/// Each iteration the policy picks a source from the per-group
/// `remaining` counts, and `step(sources, chosen, rng)` performs the
/// draw. A record is reported to the policy as useful iff its group
/// still needs samples; it is kept iff the `tailor.keep` verdict (under
/// `keep_params`; empty = keep while `collected < hi`) says so.
/// Out-of-scope and unproductive draws are paid for and discarded.
///
/// All sources must share one schema (the integration step proper —
/// schema matching — is handled upstream by `rdi-discovery`). `Err` is
/// reserved for such structural problems, including a policy that
/// picks a source index out of range.
pub fn run_draw_loop<S, R, F>(
    sources: &mut [S],
    problem: &DtProblem,
    policy: &mut dyn Policy,
    rng: &mut R,
    max_draws: usize,
    keep_params: PolicyParams,
    mut step: F,
) -> rdi_table::Result<TailorOutcome>
where
    S: Source,
    R: Rng,
    F: FnMut(&mut [S], usize, &mut R) -> DrawStep,
{
    problem.validate()?;
    let schema = shared_schema(sources)?;
    let mut per_group = vec![0usize; problem.num_groups()];
    let mut per_source_draws = vec![0usize; sources.len()];
    let mut total_cost = 0.0;
    let mut draws = 0usize;
    let mut collected = Table::new(schema);
    let mut keepdrop = KeepDrop::new(keep_params);

    let satisfied = |per_group: &[usize]| -> bool {
        per_group
            .iter()
            .zip(&problem.requirements)
            .all(|(&c, r)| c >= r.lo)
    };

    while !satisfied(&per_group) && draws < max_draws {
        let remaining: Vec<usize> = per_group
            .iter()
            .zip(&problem.requirements)
            .map(|(&c, r)| r.lo.saturating_sub(c))
            .collect();
        let chosen = policy.choose(&remaining, rng);
        if chosen >= sources.len() {
            return Err(source_out_of_range(&*policy, chosen, sources.len()));
        }
        let DrawStep::Drew {
            source: s,
            attempts,
            draw,
        } = step(sources, chosen, rng)
        else {
            break;
        };
        draws = draws.saturating_add(1);
        per_source_draws[s] = per_source_draws[s].saturating_add(1);
        for _ in 0..attempts {
            total_cost += sources[s].cost();
        }
        let Some((group, row)) = draw else {
            policy.observe(s, None);
            continue;
        };
        policy.observe(s, group.filter(|&gi| remaining[gi] > 0));
        if let Some(gi) = group {
            // keep while under the hi cap — audited as `tailor.keep`
            if keepdrop.decide(per_group[gi] < problem.requirements[gi].hi) {
                per_group[gi] = per_group[gi].saturating_add(1);
                collected.push_row(row)?;
            }
        }
    }

    let ok = satisfied(&per_group);
    record_outcome(&per_group, draws, total_cost);
    Ok(TailorOutcome {
        total_cost,
        draws,
        per_group,
        satisfied: ok,
        collected,
        per_source_draws,
        decisions: keepdrop.exemplar.into_iter().collect(),
    })
}

/// The schema every source shares, or a structural error when there
/// are no sources or their schemas differ.
fn shared_schema<S: Source>(sources: &[S]) -> rdi_table::Result<rdi_table::Schema> {
    let first = sources
        .first()
        .ok_or_else(|| TableError::SchemaMismatch("no sources".into()))?;
    if let Some(s) = sources.iter().find(|s| s.schema() != first.schema()) {
        return Err(TableError::SchemaMismatch(format!(
            "source `{}` schema differs; integrate schemas before tailoring",
            s.name()
        )));
    }
    Ok(first.schema().clone())
}

/// The structural error for a policy that picked source index `chosen`
/// from only `len` sources.
pub(crate) fn source_out_of_range(policy: &dyn Policy, chosen: usize, len: usize) -> TableError {
    TableError::SchemaMismatch(format!(
        "policy `{}` chose source index {chosen}, out of range for {len} source(s)",
        policy.name()
    ))
}

/// Publish a finished run's tallies onto the global [`rdi_obs`]
/// registry: total draws, per-group collected progress, and the run's
/// cost (gauge; last run wins).
fn record_outcome(per_group: &[usize], draws: usize, total_cost: f64) {
    metrics::RUNS.inc();
    metrics::DRAWS.add(draws as u64);
    let kept = per_group
        .iter()
        .fold(0usize, |sum, &c| sum.saturating_add(c));
    metrics::KEPT.add(kept as u64);
    metrics::add_group_kept(per_group);
    metrics::LAST_COST.set(total_cost);
}

/// Tailoring over sources drawn once per pick, the fault-free runner
/// (see [`run_draw_loop`] for the semantics). Each draw costs the
/// source's fee whether or not the tuple is useful; a failed
/// [`Source::try_draw`] is a paid, unproductive draw. Bounded retries
/// and quarantine live in `rdi-core`'s resilient executor.
pub fn run_tailoring<S: Source, R: Rng>(
    sources: &mut [S],
    problem: &DtProblem,
    policy: &mut dyn Policy,
    rng: &mut R,
    max_draws: usize,
) -> rdi_table::Result<TailorOutcome> {
    run_draw_loop(
        sources,
        problem,
        policy,
        rng,
        max_draws,
        PolicyParams::new(),
        |sources, s, rng| DrawStep::Drew {
            source: s,
            attempts: 1,
            draw: sources[s].try_draw(rng).ok(),
        },
    )
}

/// Dedup-aware tailoring for **overlapping sources** (tutorial §5: "data
/// sources may or may not have overlap").
///
/// Identical to [`run_tailoring`] except a drawn tuple only counts when
/// its `id_column` value has not been collected before — re-drawing a
/// record another source already supplied wastes its cost, exactly the
/// effect overlap-aware source selection must reason about. Returns the
/// outcome plus the number of duplicate draws paid for.
pub fn run_tailoring_dedup<S: Source, R: Rng>(
    sources: &mut [S],
    problem: &DtProblem,
    policy: &mut dyn Policy,
    id_column: &str,
    rng: &mut R,
    max_draws: usize,
) -> rdi_table::Result<(TailorOutcome, usize)> {
    // with no sources the loop reports the error before any draw
    let id_idx = sources
        .first()
        .map_or(Ok(0), |s| s.schema().index_of(id_column))?;
    let mut seen = BTreeSet::new();
    let mut duplicates = 0usize;
    let outcome = run_draw_loop(
        sources,
        problem,
        policy,
        rng,
        max_draws,
        PolicyParams::new(),
        |sources, s, rng| {
            let draw = sources[s].try_draw(rng).ok().filter(|(_, row)| {
                let id = row[id_idx].clone();
                let fresh = !id.is_null() && seen.insert(id);
                duplicates = duplicates.saturating_add(usize::from(!fresh));
                fresh
            });
            DrawStep::Drew {
                source: s,
                attempts: 1,
                draw,
            }
        },
    )?;
    metrics::DUPLICATES.add(duplicates as u64);
    Ok((outcome, duplicates))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{RandomPolicy, RatioColl};
    use crate::problem::CountRequirement;
    use crate::source::{SourceError, TableSource};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rdi_table::{DataType, Field, GroupKey, GroupSpec, Role, Schema, Value};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("g", DataType::Str).with_role(Role::Sensitive)
        ])
    }

    fn source(name: &str, frac_a: f64, n: usize, cost: f64, p: &DtProblem) -> TableSource {
        let mut t = Table::new(schema());
        for i in 0..n {
            let g = if (i as f64) < frac_a * n as f64 {
                "a"
            } else {
                "b"
            };
            t.push_row(vec![Value::str(g)]).unwrap();
        }
        TableSource::new(name, t, cost, p).unwrap()
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

    #[test]
    fn collects_exact_requirements() {
        let p = problem(5, 7);
        let mut sources = vec![source("s0", 0.5, 100, 1.0, &p)];
        let mut policy = RandomPolicy::new(1);
        let mut rng = StdRng::seed_from_u64(1);
        let out = run_tailoring(&mut sources, &p, &mut policy, &mut rng, 100_000).unwrap();
        assert!(out.satisfied);
        assert!(out.per_group[0] >= 5 && out.per_group[1] >= 7);
        assert_eq!(
            out.collected.num_rows(),
            out.per_group.iter().sum::<usize>()
        );
        assert_eq!(out.total_cost, out.draws as f64);
    }

    #[test]
    fn hi_cap_discards_surplus() {
        let p = DtProblem::ranged(
            GroupSpec::new(vec!["g"]),
            vec![
                (
                    GroupKey(vec![Value::str("a")]),
                    CountRequirement::range(2, 2),
                ),
                (
                    GroupKey(vec![Value::str("b")]),
                    CountRequirement::range(50, 50),
                ),
            ],
        );
        let mut sources = vec![source("s0", 0.9, 100, 1.0, &p)];
        let mut policy = RandomPolicy::new(1);
        let mut rng = StdRng::seed_from_u64(2);
        let out = run_tailoring(&mut sources, &p, &mut policy, &mut rng, 1_000_000).unwrap();
        assert!(out.satisfied);
        // group a capped at exactly 2 despite 90% abundance
        assert_eq!(out.per_group[0], 2);
        assert_eq!(out.per_group[1], 50);
        assert_eq!(out.collected.num_rows(), 52);
    }

    #[test]
    fn max_draws_caps_run() {
        let p = problem(1000, 1000);
        let mut sources = vec![source("s0", 0.5, 100, 1.0, &p)];
        let mut policy = RandomPolicy::new(1);
        let mut rng = StdRng::seed_from_u64(3);
        let out = run_tailoring(&mut sources, &p, &mut policy, &mut rng, 50).unwrap();
        assert!(!out.satisfied);
        assert_eq!(out.draws, 50);
    }

    #[test]
    fn ratio_coll_cheaper_than_random_when_minority_is_rare() {
        let p = problem(20, 20);
        // s0 is the only decent source of "a"; s1 nearly pure "b".
        let mut rng = StdRng::seed_from_u64(4);
        let run = |policy: &mut dyn Policy, rng: &mut StdRng| -> f64 {
            let mut sources = vec![
                source("s0", 0.5, 1000, 1.0, &p),
                source("s1", 0.01, 1000, 1.0, &p),
            ];
            let mut total = 0.0;
            for _ in 0..10 {
                let out = run_tailoring(&mut sources, &p, policy, rng, 1_000_000).unwrap();
                assert!(out.satisfied);
                total += out.total_cost;
            }
            total / 10.0
        };
        let sources = vec![
            source("s0", 0.5, 1000, 1.0, &p),
            source("s1", 0.01, 1000, 1.0, &p),
        ];
        let mut rc = RatioColl::from_sources(&sources);
        let mut rand_pol = RandomPolicy::new(2);
        let smart = run(&mut rc, &mut rng);
        let dumb = run(&mut rand_pol, &mut rng);
        assert!(smart < dumb, "ratio_coll {smart} should beat random {dumb}");
    }

    fn keyed_source(name: &str, ids: std::ops::Range<i64>, p: &DtProblem) -> TableSource {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("g", DataType::Str).with_role(Role::Sensitive),
        ]);
        let mut t = Table::new(schema);
        for i in ids {
            let g = if i % 2 == 0 { "a" } else { "b" };
            t.push_row(vec![Value::Int(i), Value::str(g)]).unwrap();
        }
        TableSource::new(name, t, 1.0, p).unwrap()
    }

    fn keyed_problem(n: usize) -> DtProblem {
        DtProblem::exact_counts(
            GroupSpec::new(vec!["g"]),
            vec![
                (GroupKey(vec![Value::str("a")]), n),
                (GroupKey(vec![Value::str("b")]), n),
            ],
        )
    }

    #[test]
    fn dedup_collects_unique_rows_only() {
        let p = keyed_problem(30);
        // two fully-overlapping sources over ids 0..100
        let mut sources = vec![
            keyed_source("s0", 0..100, &p),
            keyed_source("s1", 0..100, &p),
        ];
        let mut policy = RandomPolicy::new(2);
        let mut rng = StdRng::seed_from_u64(9);
        let (out, duplicates) =
            run_tailoring_dedup(&mut sources, &p, &mut policy, "id", &mut rng, 1_000_000).unwrap();
        assert!(out.satisfied);
        // every collected id distinct
        let ids = out.collected.distinct("id").unwrap();
        assert_eq!(ids.len(), out.collected.num_rows());
        assert!(duplicates > 0, "sampling with replacement must hit repeats");
        assert!(out.draws >= out.collected.num_rows() + duplicates);
    }

    #[test]
    fn overlap_makes_collection_more_expensive_than_disjoint() {
        let p = keyed_problem(40);
        let mut rng = StdRng::seed_from_u64(10);
        let runs = 10;
        let mut cost_overlap = 0.0;
        let mut cost_disjoint = 0.0;
        for _ in 0..runs {
            let mut overlapping = vec![
                keyed_source("s0", 0..100, &p),
                keyed_source("s1", 0..100, &p),
            ];
            let mut policy = RandomPolicy::new(2);
            let (out, _) =
                run_tailoring_dedup(&mut overlapping, &p, &mut policy, "id", &mut rng, 1_000_000)
                    .unwrap();
            cost_overlap += out.total_cost;

            let mut disjoint = vec![
                keyed_source("s0", 0..100, &p),
                keyed_source("s1", 100..200, &p),
            ];
            let mut policy = RandomPolicy::new(2);
            let (out, _) =
                run_tailoring_dedup(&mut disjoint, &p, &mut policy, "id", &mut rng, 1_000_000)
                    .unwrap();
            cost_disjoint += out.total_cost;
        }
        assert!(
            cost_overlap > cost_disjoint,
            "overlap {cost_overlap} vs disjoint {cost_disjoint}"
        );
    }

    #[test]
    fn dedup_requires_valid_id_column() {
        let p = keyed_problem(1);
        let mut sources = vec![keyed_source("s0", 0..10, &p)];
        let mut policy = RandomPolicy::new(1);
        let mut rng = StdRng::seed_from_u64(11);
        assert!(run_tailoring_dedup(&mut sources, &p, &mut policy, "nope", &mut rng, 10).is_err());
    }

    /// A source whose every attempt fails: the single-attempt runners
    /// pay for each failure as an unproductive draw and stop at the
    /// budget instead of retrying forever.
    struct AlwaysFails(TableSource);

    impl Source for AlwaysFails {
        fn name(&self) -> &str {
            self.0.name()
        }
        fn cost(&self) -> f64 {
            self.0.cost()
        }
        fn schema(&self) -> &Schema {
            self.0.schema()
        }
        fn frequencies(&self) -> &[f64] {
            self.0.frequencies()
        }
        fn try_draw(&mut self, _rng: &mut dyn rand::RngCore) -> Result<Draw, SourceError> {
            Err(SourceError::Unavailable)
        }
    }

    #[test]
    fn always_failing_source_ends_at_max_draws() {
        let p = problem(1, 1);
        let mut sources = vec![AlwaysFails(source("dead", 0.5, 10, 2.0, &p))];
        let mut policy = RandomPolicy::new(1);
        let mut rng = StdRng::seed_from_u64(12);
        let out = run_tailoring(&mut sources, &p, &mut policy, &mut rng, 40).unwrap();
        assert!(!out.satisfied);
        assert_eq!(out.draws, 40);
        assert_eq!(out.per_source_draws, vec![40]);
        assert_eq!(out.total_cost, 80.0, "every failed attempt is paid");
        assert_eq!(out.collected.num_rows(), 0);
        assert!(out.decisions.is_empty(), "no record reached keep/drop");

        let (out, duplicates) =
            run_tailoring_dedup(&mut sources, &p, &mut policy, "g", &mut rng, 40).unwrap();
        assert!(!out.satisfied);
        assert_eq!(out.draws, 40);
        assert_eq!(duplicates, 0, "a failed draw is not a duplicate");
    }

    /// A policy that ignores how many sources there are.
    struct OutOfRange;

    impl Policy for OutOfRange {
        fn choose(&mut self, _remaining: &[usize], _rng: &mut dyn rand::RngCore) -> usize {
            7
        }
        fn name(&self) -> &'static str {
            "out_of_range"
        }
    }

    #[test]
    fn out_of_range_policy_is_a_typed_error() {
        let p = problem(1, 1);
        let mut sources = vec![source("s0", 0.5, 10, 1.0, &p)];
        let mut rng = StdRng::seed_from_u64(13);
        let err = run_tailoring(&mut sources, &p, &mut OutOfRange, &mut rng, 10).unwrap_err();
        assert_eq!(
            err,
            TableError::SchemaMismatch(
                "policy `out_of_range` chose source index 7, out of range for 1 source(s)".into()
            )
        );
        let keyed = keyed_problem(1);
        let mut sources = vec![keyed_source("s0", 0..10, &keyed)];
        assert!(
            run_tailoring_dedup(&mut sources, &keyed, &mut OutOfRange, "id", &mut rng, 10).is_err()
        );
    }

    #[test]
    fn mismatched_schemas_rejected() {
        let p = problem(1, 1);
        let other_schema = Schema::new(vec![
            Field::new("g", DataType::Str).with_role(Role::Sensitive),
            Field::new("x", DataType::Int),
        ]);
        let mut t2 = Table::new(other_schema);
        t2.push_row(vec![Value::str("a"), Value::Int(1)]).unwrap();
        let mut sources = vec![
            source("s0", 0.5, 10, 1.0, &p),
            TableSource::new("s1", t2, 1.0, &p).unwrap(),
        ];
        let mut policy = RandomPolicy::new(2);
        let mut rng = StdRng::seed_from_u64(5);
        assert!(run_tailoring(&mut sources, &p, &mut policy, &mut rng, 10).is_err());
    }
}
