//! The selection API: candidates in, a decision out that can only be
//! read by counting it.

use std::sync::Arc;

use rdi_obs::ProvenanceEvent;

use crate::metrics::counters;
use crate::params::PolicyParams;
use crate::rank::{RankByScore, WinningEnd};
use crate::score::Score;
use crate::PolicyId;

/// One option under consideration: a stable key (source name, table
/// id, cache-entry key, tenant, `"keep"`/`"drop"`) and its score under
/// the deciding policy.
///
/// The key is shared (`Arc<str>`), so a site whose ids are already
/// shared — registered table ids, cache audit keys — builds its
/// candidates with refcount bumps instead of string copies.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Stable identity used for tie-breaking and audit output.
    pub key: Arc<str>,
    /// Score under the deciding policy.
    pub score: Score,
}

impl Candidate {
    /// Convenience constructor: takes `&str`, `String` or a shared
    /// `Arc<str>`.
    pub fn new(key: impl Into<Arc<str>>, score: Score) -> Self {
        Candidate {
            key: key.into(),
            score,
        }
    }
}

/// A selection policy: the one workspace-wide decision API.
///
/// Implementations must be pure — the decision is a function of the
/// candidate set and the params alone (no clocks, no RNGs, no interior
/// mutability), which is what makes every decision replayable from its
/// `PolicyDecision` event.
pub trait SelectionPolicy {
    /// The decision site this policy instance serves.
    fn id(&self) -> PolicyId;

    /// Rank `candidates` under `params`. An empty candidate slice
    /// yields an empty ranking — "no eligible option" is itself an
    /// auditable outcome.
    fn choose<'a>(
        &self,
        candidates: &'a [Candidate],
        params: &'a PolicyParams,
    ) -> SelectionDecision<'a>;
}

/// The outcome of one [`SelectionPolicy::choose`] call, borrowing the
/// candidates and params it was made over.
///
/// Its fields are private, and it has exactly two readers, each of
/// which counts the decision (`policy.decisions` and
/// `policy.{id}.decisions`) before handing over the ranking:
///
/// * [`record`](SelectionDecision::record) also returns the decision's
///   `ProvenanceEvent::PolicyDecision`, which the caller emits before
///   acting on the ranking;
/// * [`tally`](SelectionDecision::tally) only counts. It serves the
///   high-rate sites after their first, recorded decision (see
///   [`ExemplarSite`]).
///
/// So no caller can act on a decision that was never counted:
///
/// ```
/// use rdi_policy::{Candidate, PolicyId, PolicyParams, RankByScore, Score, SelectionPolicy};
///
/// let candidates = [Candidate::new("a", Score::U64(1)), Candidate::new("b", Score::U64(2))];
/// let params = PolicyParams::new();
/// let decision = RankByScore::new(PolicyId::UNION_RANK).choose(&candidates, &params);
/// let (event, ranking) = decision.record();
/// assert_eq!(ranking, vec![1, 0]);
/// assert!(event.render().starts_with("policy `discovery.union_rank` chose `b`"));
/// ```
///
/// Reading the ranking without counting it does not compile:
///
/// ```compile_fail,E0616
/// use rdi_policy::{Candidate, PolicyId, PolicyParams, RankByScore, Score, SelectionPolicy};
///
/// let candidates = [Candidate::new("a", Score::U64(1))];
/// let params = PolicyParams::new();
/// let decision = RankByScore::new(PolicyId::UNION_RANK).choose(&candidates, &params);
/// let winner = decision.ranking.first();
/// ```
///
/// Neither does discarding a decision:
///
/// ```compile_fail
/// #![deny(unused_must_use)]
/// use rdi_policy::{Candidate, PolicyId, PolicyParams, RankByScore, Score, SelectionPolicy};
///
/// let candidates = [Candidate::new("a", Score::U64(1))];
/// let params = PolicyParams::new();
/// RankByScore::new(PolicyId::UNION_RANK).choose(&candidates, &params);
/// ```
///
/// nor discarding the event that `record` returns:
///
/// ```compile_fail
/// #![deny(unused_must_use)]
/// use rdi_policy::{Candidate, PolicyId, PolicyParams, RankByScore, Score, SelectionPolicy};
///
/// let candidates = [Candidate::new("a", Score::U64(1))];
/// let params = PolicyParams::new();
/// let decision = RankByScore::new(PolicyId::UNION_RANK).choose(&candidates, &params);
/// decision.record();
/// ```
#[must_use = "a decision takes effect only through `record` or `tally`"]
#[derive(Debug)]
pub struct SelectionDecision<'a> {
    policy: PolicyId,
    candidates: &'a [Candidate],
    params: &'a PolicyParams,
    /// Index into `candidates` of the best one (`None` without any).
    winner: Option<usize>,
    /// Indices into `candidates`, best first: the full ranking, or its
    /// first `limit` entries under [`RankByScore::choose_top`].
    ranking: Vec<usize>,
    /// Candidates sharing the winner's exact score (0 without one).
    ties: usize,
    /// Rule that separated tied candidates (`"none"` if untied).
    tie_break: &'static str,
}

impl<'a> SelectionDecision<'a> {
    /// A decision by `policy` over `candidates` and `params`: a policy
    /// builds it and only `record`/`tally` read it, even in this crate.
    pub(crate) fn new(
        policy: PolicyId,
        candidates: &'a [Candidate],
        params: &'a PolicyParams,
        winner: Option<usize>,
        ranking: Vec<usize>,
        ties: usize,
        tie_break: &'static str,
    ) -> Self {
        SelectionDecision {
            policy,
            candidates,
            params,
            winner,
            ranking,
            ties,
            tie_break,
        }
    }

    /// Count the decision and return its `PolicyDecision` event with
    /// the ranking (indices into the candidate slice, best first). The
    /// caller emits the event into its audit stream *before* acting on
    /// the ranking.
    ///
    /// The event shares the winner's key with its candidate; the only
    /// text rendered is the winner's score and the params.
    #[must_use = "the event is the decision's audit record: emit it before acting on the ranking"]
    pub fn record(self) -> (ProvenanceEvent, Vec<usize>) {
        let winner = self.winner.map(|i| &self.candidates[i]);
        let event = record(
            self.policy,
            self.params,
            self.candidates.len(),
            winner,
            self.ties,
            self.tie_break,
        );
        (event, self.ranking)
    }

    /// Count the decision and return its ranking, emitting no event:
    /// two counter increments through held handles.
    #[must_use = "tallying a decision without acting on it counts a decision that took no effect"]
    pub fn tally(self) -> Vec<usize> {
        count(self.policy);
        self.ranking
    }
}

/// The outcome of one [`RankByScore::choose_ascending`] call: a
/// decision over candidates the caller holds in ascending order of
/// unique scores, of which only the winner was built.
///
/// Like [`SelectionDecision`], it can only be read by counting it.
#[must_use = "a decision takes effect only through `record`"]
#[derive(Debug)]
pub struct OrderedDecision<'a> {
    policy: PolicyId,
    /// How many candidates the caller holds.
    considered: usize,
    params: &'a PolicyParams,
    /// The candidate at the winning end (`None` when none are held).
    winner: Option<Candidate>,
    end: WinningEnd,
}

impl<'a> OrderedDecision<'a> {
    /// A decision by `policy` over `considered` held candidates: only
    /// [`RankByScore::choose_ascending`] builds one.
    pub(crate) fn new(
        policy: PolicyId,
        considered: usize,
        params: &'a PolicyParams,
        winner: Option<Candidate>,
        end: WinningEnd,
    ) -> Self {
        OrderedDecision {
            policy,
            considered,
            params,
            winner,
            end,
        }
    }

    /// Count the decision and return its `PolicyDecision` event with
    /// the end the ranking starts from: the caller walks its held
    /// candidates from that end, emitting the event first. The event is
    /// the one [`SelectionDecision::record`] returns for the same
    /// candidates, and it takes the winner's key without copying it.
    #[must_use = "the event is the decision's audit record: emit it before acting on the ranking"]
    pub fn record(self) -> (ProvenanceEvent, WinningEnd) {
        let ties = usize::from(self.winner.is_some());
        let event = record(
            self.policy,
            self.params,
            self.considered,
            self.winner.as_ref(),
            ties,
            "none",
        );
        (event, self.end)
    }
}

/// Count a decision and build its `PolicyDecision` event: the one
/// recording path of every decision type. The winner's key is shared;
/// the only text rendered is its score and the params.
fn record(
    policy: PolicyId,
    params: &PolicyParams,
    considered: usize,
    winner: Option<&Candidate>,
    ties: usize,
    tie_break: &'static str,
) -> ProvenanceEvent {
    count(policy);
    ProvenanceEvent::PolicyDecision {
        policy: policy.as_str(),
        params_hash: params.hash(),
        considered,
        winner: winner.map(|c| Arc::clone(&c.key)),
        winner_score: winner.map(|c| c.score.render()).unwrap_or_default(),
        ties,
        tie_break,
        params: params.render(),
    }
}

fn count(id: PolicyId) {
    let (total, site) = counters(id);
    total.inc();
    site.inc();
}

/// A high-rate decision site (a verdict per draw): the first decision
/// of a run is recorded in full — the run's exemplar event — and every
/// later one only tallied, so the provenance stream gets one event per
/// run while the `policy.*` counters still count every decision.
#[derive(Debug)]
pub struct ExemplarSite {
    policy: RankByScore,
    params: PolicyParams,
    recorded: bool,
}

impl ExemplarSite {
    /// A [`RankByScore`] site for `id` deciding under `params`. Both
    /// counters are resolved here, so a run that never decides still
    /// lists them (at zero) in the metrics snapshot.
    pub fn new(id: PolicyId, params: PolicyParams) -> Self {
        counters(id);
        ExemplarSite {
            policy: RankByScore::new(id),
            params,
            recorded: false,
        }
    }

    /// Rank `candidates`: the ranking, plus the exemplar event when
    /// this is the site's first decision.
    #[must_use = "the first decision's event is the run's exemplar: emit it"]
    pub fn decide(&mut self, candidates: &[Candidate]) -> (Option<ProvenanceEvent>, Vec<usize>) {
        let decision = self.policy.choose(candidates, &self.params);
        if self.recorded {
            (None, decision.tally())
        } else {
            self.recorded = true;
            let (event, ranking) = decision.record();
            (Some(event), ranking)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SelectionPolicy;
    use proptest::prelude::*;

    /// The audit record as it was built before decisions were read only
    /// by recording them: a plain-data rationale, taken from the
    /// decision with the candidates and params passed in again.
    struct Rationale {
        policy: &'static str,
        params_hash: u64,
        considered: usize,
        winner: Option<Arc<str>>,
        winner_score: String,
        ties: usize,
        tie_break: &'static str,
        params: String,
    }

    fn rationale(
        d: &SelectionDecision,
        candidates: &[Candidate],
        params: &PolicyParams,
    ) -> Rationale {
        let winner = d.winner;
        Rationale {
            policy: d.policy.as_str(),
            params_hash: params.hash(),
            considered: candidates.len(),
            winner: winner.map(|i| Arc::clone(&candidates[i].key)),
            winner_score: winner
                .map(|i| candidates[i].score.render())
                .unwrap_or_default(),
            ties: d.ties,
            tie_break: d.tie_break,
            params: params.render(),
        }
    }

    /// The event and per-site counter key the old emission built from a
    /// rationale.
    fn reference_event(r: Rationale) -> (ProvenanceEvent, String) {
        let key = format!("policy.{}.decisions", r.policy);
        let event = ProvenanceEvent::PolicyDecision {
            policy: r.policy,
            params_hash: r.params_hash,
            considered: r.considered,
            winner: r.winner,
            winner_score: r.winner_score,
            ties: r.ties,
            tie_break: r.tie_break,
            params: r.params,
        };
        (event, key)
    }

    /// Keys with unicode and shared prefixes; a pool this small makes
    /// duplicate keys and exact ties common.
    const KEYS: [&str; 6] = ["a", "b", "é", "日本", "ab", "a"];

    /// One score of each kind, drawn from small pools so ties occur.
    fn score(kind: usize, v: u64) -> Score {
        match kind {
            0 => Score::U64(v),
            1 => Score::F64(v as f64 / 2.0),
            2 => Score::I64(1 - v as i64),
            _ => Score::Tuple(vec![Score::U64(v % 2), Score::F64(v as f64)]),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Over random candidate sets — empty, all tied, mixed score
        /// kinds, unicode keys, either `dir` and `tie` — `record` returns
        /// the event, ranking and per-site counter the old rationale
        /// path built.
        #[test]
        fn record_matches_the_rationale_reference(
            spec in proptest::collection::vec((0usize..6, 0usize..4, 0u64..3), 0..12),
            tied in 0usize..4,
            site in 0usize..7,
            dir in 0usize..3,
            tie in 0usize..3,
        ) {
            // `tied == 0` scores every candidate alike
            let candidates: Vec<Candidate> = spec
                .iter()
                .map(|&(k, kind, v)| {
                    let s = if tied == 0 { Score::U64(1) } else { score(kind, v) };
                    Candidate::new(KEYS[k], s)
                })
                .collect();
            let mut params = PolicyParams::new();
            if dir > 0 {
                params.set("dir", ["max", "min"][dir - 1]);
            }
            if tie > 0 {
                params.set("tie", ["key_asc", "key_desc"][tie - 1]);
            }
            let id = PolicyId::ALL[site];
            let policy = RankByScore::new(id);

            let reference = policy.choose(&candidates, &params);
            let (expected, key) = reference_event(rationale(&reference, &candidates, &params));
            let expected_ranking = reference.tally();
            let (event, ranking) = policy.choose(&candidates, &params).record();

            prop_assert_eq!(event.render(), expected.render());
            prop_assert_eq!(format!("{event:?}"), format!("{expected:?}"));
            prop_assert_eq!(ranking, expected_ranking);
            let (total, site) = counters(id);
            prop_assert!(std::ptr::eq(site, &*rdi_obs::counter(&key)));
            prop_assert!(std::ptr::eq(total, &*rdi_obs::counter("policy.decisions")));
        }
    }

    /// `dir` values as a site may pass them: `choose` reads every one
    /// other than `min` as `max`.
    const DIRS: [Option<&str>; 5] = [None, Some("min"), Some("max"), Some("MIN"), Some("")];
    const TIES: [Option<&str>; 3] = [None, Some("key_asc"), Some("key_desc")];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Over up to 300 candidates held in ascending order of unique
        /// `U64` scores, under every `dir` and `tie` form, the ordered
        /// entry point records what `choose(..).record()` records: the
        /// same rendered event and `Debug`, the same winner, a walk from
        /// its end that visits the candidates in `choose`'s ranking
        /// order, and both counters through the same handles. It builds
        /// at most one candidate.
        #[test]
        fn ascending_decision_matches_choose(
            mut scores in proptest::collection::vec(any::<u64>(), 0..=300),
            dir in 0usize..5,
            tie in 0usize..3,
            site in 0usize..7,
        ) {
            scores.sort_unstable();
            scores.dedup();
            // keys follow no order of their own, so only the scores rank
            let candidates: Vec<Candidate> = scores
                .iter()
                .map(|&s| Candidate::new(format!("e{}", s.rotate_left(17) % 1000), Score::U64(s)))
                .collect();
            let mut params = PolicyParams::new();
            if let Some(d) = DIRS[dir] {
                params.set("dir", d);
            }
            if let Some(t) = TIES[tie] {
                params.set("tie", t);
            }
            let id = PolicyId::ALL[site];
            let policy = RankByScore::new(id);
            let (total, per_site) = counters(id);
            let read = || (total.get(), per_site.get());

            let before = read();
            let (expected, ranking) = policy.choose(&candidates, &params).record();
            let between = read();
            let mut built = 0;
            let (event, end) = policy
                .choose_ascending(candidates.len(), candidates.iter(), &params, |c| {
                    built += 1;
                    c.clone()
                })
                .record();
            let after = read();

            prop_assert_eq!(event.render(), expected.render());
            prop_assert_eq!(format!("{event:?}"), format!("{expected:?}"));
            let winner = |e: &ProvenanceEvent| match e {
                ProvenanceEvent::PolicyDecision { winner, .. } => winner.clone(),
                _ => None,
            };
            prop_assert_eq!(winner(&event), winner(&expected));
            prop_assert_eq!(built, usize::from(!candidates.is_empty()));
            let walked: Vec<usize> = match end {
                WinningEnd::Lowest => (0..candidates.len()).collect(),
                WinningEnd::Highest => (0..candidates.len()).rev().collect(),
            };
            prop_assert_eq!(walked, ranking);
            // other tests in this binary may count concurrently, so each
            // decision shows as a rise of at least one on both counters
            prop_assert!(between.0 > before.0 && between.1 > before.1);
            prop_assert!(after.0 > between.0 && after.1 > between.1);
        }
    }

    #[test]
    fn exemplar_site_records_once_then_tallies() {
        let mut site = ExemplarSite::new(PolicyId::TAILOR_KEEP, PolicyParams::new());
        let candidates = [
            Candidate::new("keep", Score::U64(2)),
            Candidate::new("drop", Score::U64(1)),
        ];
        let (first, ranking) = site.decide(&candidates);
        assert_eq!(ranking, vec![0, 1]);
        assert_eq!(
            first.map(|e| e.render()).as_deref(),
            Some(
                "policy `tailor.keep` chose `keep` (score 2) from 2 candidate(s); ties=1 \
                 tie_break=none params=∅ params_hash=af63bc4c8601b62c"
            )
        );
        for _ in 0..3 {
            let (event, ranking) = site.decide(&candidates);
            assert!(event.is_none());
            assert_eq!(ranking, vec![0, 1]);
        }
    }
}
