//! The default policy family: rank by score with a documented,
//! parameterized tie-break.

use std::cmp::Ordering;

use crate::decision::{Candidate, OrderedDecision, SelectionDecision, SelectionPolicy};
use crate::params::PolicyParams;
use crate::PolicyId;

/// Rank candidates by score and break ties by key — the default policy
/// behind every decision site. Two params steer it:
///
/// | param | values | default | meaning |
/// |---|---|---|---|
/// | `dir` | `max` / `min` | `max` | does a larger score win? |
/// | `tie` | `key_asc` / `key_desc` | `key_asc` | key order among equal scores |
///
/// The full tie-break chain is **score (per `dir`) → key (per `tie`) →
/// first-seen input order** (the last rung only matters for exact
/// duplicates, which well-formed sites never produce). With unique
/// keys the decision is permutation-invariant; every rung is
/// documented in DESIGN.md's tie-break catalog.
///
/// Composite orderings (aging *then* weight, eligibility *then*
/// distance) are expressed as [`crate::Score::Tuple`] scores, not as
/// extra policy types, so one rule catalog covers every site.
#[derive(Debug, Clone, Copy)]
pub struct RankByScore {
    id: PolicyId,
}

impl RankByScore {
    /// The ranking policy for one decision site.
    pub const fn new(id: PolicyId) -> Self {
        RankByScore { id }
    }

    /// Decide over `len` candidates that the caller holds in ascending
    /// order of unique scores, building only the winner: the entry
    /// point takes the item at the winning end of `held` (which yields
    /// the `len` held items in that order) and turns it into the one
    /// [`Candidate`] the decision records.
    ///
    /// With unique scores the full ranking is the held order read from
    /// the winning end, whatever `tie` says, so the decision records
    /// exactly what [`SelectionPolicy::choose`] over all `len`
    /// candidates would (same event, same counters) and its
    /// [`record`](OrderedDecision::record) names the end to walk from.
    /// The caller owns the promises of order, uniqueness and `len`: a
    /// repeated score would bring in `choose`'s key tie-break, which is
    /// never consulted here.
    pub fn choose_ascending<'a, T>(
        &self,
        len: usize,
        mut held: impl DoubleEndedIterator<Item = T>,
        params: &'a PolicyParams,
        candidate: impl FnOnce(T) -> Candidate,
    ) -> OrderedDecision<'a> {
        let (end, winner) = if max_wins(params) {
            (WinningEnd::Highest, held.next_back())
        } else {
            (WinningEnd::Lowest, held.next())
        };
        OrderedDecision::new(self.id, len, params, winner.map(candidate), end)
    }

    /// Rank only the best `limit` of `candidates`: the first `limit`
    /// entries of [`SelectionPolicy::choose`]'s ranking, found by
    /// selecting them under the same total order (score, then key, then
    /// index) and sorting only those. The winner, `ties` (counted over
    /// every candidate) and `tie_break` are those of the full ranking,
    /// so the decision records the same event for any `limit`, 0
    /// included; `choose` is this form with `limit = len`.
    pub fn choose_top<'a>(
        &self,
        candidates: &'a [Candidate],
        params: &'a PolicyParams,
        limit: usize,
    ) -> SelectionDecision<'a> {
        let max_wins = max_wins(params);
        let key_desc = params.get("tie") == Some("key_desc");
        let order = |&a: &usize, &b: &usize| {
            let score = candidates[a].score.cmp_total(&candidates[b].score);
            let score = if max_wins { score.reverse() } else { score };
            // keys are compared only between equal scores
            score
                .then_with(|| {
                    let key = candidates[a].key.cmp(&candidates[b].key);
                    if key_desc {
                        key.reverse()
                    } else {
                        key
                    }
                })
                .then_with(|| a.cmp(&b))
        };

        let mut ranking: Vec<usize> = (0..candidates.len()).collect();
        // the winner is ranked even when `limit` is 0: the event names it
        let ranked = limit.max(1);
        if ranked < ranking.len() {
            ranking.select_nth_unstable_by(ranked - 1, order);
            ranking.truncate(ranked);
        }
        // the order is total (indices are distinct), so an unstable
        // sort gives the one ranking a stable sort would
        ranking.sort_unstable_by(order);
        let winner = ranking.first().copied();
        ranking.truncate(limit);

        let ties = match winner {
            Some(w) => candidates
                .iter()
                .filter(|c| c.score.cmp_total(&candidates[w].score) == Ordering::Equal)
                .count(),
            None => 0,
        };
        let tie_break = if ties > 1 {
            if key_desc {
                "key_desc"
            } else {
                "key_asc"
            }
        } else {
            "none"
        };
        SelectionDecision::new(
            self.id, candidates, params, winner, ranking, ties, tie_break,
        )
    }
}

/// Which end of a sequence held in ascending score order ranks first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WinningEnd {
    /// The lowest score wins (`dir=min`): the ranking reads front to
    /// back.
    Lowest,
    /// The highest score wins (any other `dir`, or none): the ranking
    /// reads back to front.
    Highest,
}

/// Does a larger score win under `params`? Every `dir` other than
/// `min`, and a missing one, means yes.
fn max_wins(params: &PolicyParams) -> bool {
    params.get("dir").unwrap_or("max") != "min"
}

impl SelectionPolicy for RankByScore {
    fn id(&self) -> PolicyId {
        self.id
    }

    fn choose<'a>(
        &self,
        candidates: &'a [Candidate],
        params: &'a PolicyParams,
    ) -> SelectionDecision<'a> {
        self.choose_top(candidates, params, candidates.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Score;
    use proptest::prelude::*;
    use rdi_obs::ProvenanceEvent;

    /// What a recorded decision shows.
    #[derive(Debug)]
    struct Seen {
        ranking: Vec<usize>,
        keys: Vec<String>,
        winner: Option<String>,
        ties: usize,
        tie_break: &'static str,
        considered: usize,
        params_hash: u64,
    }

    /// Record `d`, made over `c`, and read its ranking and event.
    fn seen(d: SelectionDecision<'_>, c: &[Candidate]) -> Seen {
        let (event, ranking) = d.record();
        let ProvenanceEvent::PolicyDecision {
            winner,
            ties,
            tie_break,
            considered,
            params_hash,
            ..
        } = event
        else {
            panic!("not a policy decision: {event:?}");
        };
        Seen {
            keys: ranking.iter().map(|&i| c[i].key.to_string()).collect(),
            ranking,
            winner: winner.map(|w| w.to_string()),
            ties,
            tie_break,
            considered,
            params_hash,
        }
    }

    fn cands(items: &[(&str, f64)]) -> Vec<Candidate> {
        items
            .iter()
            .map(|(k, s)| Candidate::new(*k, Score::F64(*s)))
            .collect()
    }

    #[test]
    fn ranks_score_descending_then_key_ascending_by_default() {
        let p = RankByScore::new(PolicyId::UNION_RANK);
        let c = cands(&[("b", 0.5), ("a", 0.9), ("c", 0.5)]);
        let d = seen(p.choose(&c, &PolicyParams::new()), &c);
        assert_eq!(d.winner.as_deref(), Some("a"));
        assert_eq!(d.keys, vec!["a", "b", "c"]);
        assert_eq!(d.ties, 1);
        assert_eq!(d.tie_break, "none");
        assert_eq!(d.considered, 3);
    }

    #[test]
    fn tie_param_flips_the_winner_and_the_hash() {
        let p = RankByScore::new(PolicyId::UNION_RANK);
        let c = cands(&[("alpha", 1.0), ("beta", 1.0)]);
        let default = PolicyParams::new();
        let flipped = PolicyParams::new().with("tie", "key_desc");
        let d1 = seen(p.choose(&c, &default), &c);
        let d2 = seen(p.choose(&c, &flipped), &c);
        assert_eq!(d1.winner.as_deref(), Some("alpha"));
        assert_eq!(d2.winner.as_deref(), Some("beta"));
        assert_eq!(d1.ties, 2);
        assert_eq!(d1.tie_break, "key_asc");
        assert_eq!(d2.tie_break, "key_desc");
        assert_ne!(d1.params_hash, d2.params_hash);
    }

    #[test]
    fn min_direction_inverts_the_ranking() {
        let p = RankByScore::new(PolicyId::CACHE_EVICT);
        let c = vec![
            Candidate::new("new", Score::U64(9)),
            Candidate::new("old", Score::U64(1)),
        ];
        let d = seen(p.choose(&c, &PolicyParams::new().with("dir", "min")), &c);
        assert_eq!(d.winner.as_deref(), Some("old"));
    }

    #[test]
    fn empty_candidates_yield_no_winner() {
        let p = RankByScore::new(PolicyId::REDIRECT);
        let d = seen(p.choose(&[], &PolicyParams::new()), &[]);
        assert_eq!(d.winner, None);
        assert_eq!(d.ties, 0);
        assert!(d.ranking.is_empty());
        assert_eq!(d.considered, 0);
    }

    #[test]
    fn tuple_scores_order_lexicographically() {
        // Admission shape: (aging, weight) descending, then name.
        let p = RankByScore::new(PolicyId::ADMIT_RESERVE);
        let c = vec![
            Candidate::new("bob", Score::Tuple(vec![Score::U64(0), Score::U64(5)])),
            Candidate::new("amy", Score::Tuple(vec![Score::U64(2), Score::U64(1)])),
            Candidate::new("cat", Score::Tuple(vec![Score::U64(2), Score::U64(1)])),
        ];
        let d = seen(p.choose(&c, &PolicyParams::new()), &c);
        assert_eq!(d.keys, vec!["amy", "cat", "bob"]);
    }

    #[test]
    fn permutation_of_candidates_does_not_change_the_winner() {
        let p = RankByScore::new(PolicyId::UNION_RANK);
        let a = cands(&[("x", 0.3), ("y", 0.3), ("z", 0.1)]);
        let b = cands(&[("z", 0.1), ("y", 0.3), ("x", 0.3)]);
        let params = PolicyParams::new();
        let da = seen(p.choose(&a, &params), &a);
        let db = seen(p.choose(&b, &params), &b);
        assert_eq!(da.winner, db.winner);
        assert_eq!(da.keys, db.keys);
    }

    #[test]
    fn record_carries_the_audit_fields() {
        let p = RankByScore::new(PolicyId::UNION_RANK);
        let c = cands(&[("alpha", 1.0), ("beta", 1.0)]);
        let params = PolicyParams::new().with("tie", "key_desc");
        let (event, ranking) = p.choose(&c, &params).record();
        assert_eq!(ranking, vec![1, 0]);
        let ProvenanceEvent::PolicyDecision {
            policy,
            params_hash,
            considered,
            winner,
            winner_score,
            ties,
            tie_break,
            params: rendered,
        } = event
        else {
            panic!("not a policy decision: {event:?}");
        };
        assert_eq!(policy, "discovery.union_rank");
        assert_eq!(considered, 2);
        assert_eq!(winner.as_deref(), Some("beta"));
        assert_eq!(winner_score, "1");
        assert_eq!(ties, 2);
        assert_eq!(tie_break, "key_desc");
        assert_eq!(rendered, "tie=key_desc");
        assert_eq!(params_hash, params.hash());
    }

    /// The ranking as it was computed before keys were compared lazily:
    /// every comparison evaluates the key order, whether or not the
    /// scores tie.
    fn eager_ranking(candidates: &[Candidate], params: &PolicyParams) -> Vec<usize> {
        let max_wins = params.get("dir").unwrap_or("max") != "min";
        let key_desc = params.get("tie") == Some("key_desc");
        let mut ranking: Vec<usize> = (0..candidates.len()).collect();
        ranking.sort_by(|&a, &b| {
            let score = candidates[a].score.cmp_total(&candidates[b].score);
            let score = if max_wins { score.reverse() } else { score };
            let key = candidates[a].key.cmp(&candidates[b].key);
            let key = if key_desc { key.reverse() } else { key };
            score.then(key).then(a.cmp(&b))
        });
        ranking
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Small key and score pools, so most candidates tie on score
        /// and some share a key: the lazy tie-break must rank, count
        /// ties and name the tie-break exactly as the eager one.
        #[test]
        fn lazy_tie_break_matches_the_eager_one(
            spec in proptest::collection::vec((0usize..6, 0u64..3), 0..40),
            dir in 0usize..2,
            tie in 0usize..2,
        ) {
            const KEYS: [&str; 6] = ["a", "b", "c", "d", "a", "e"];
            let candidates: Vec<Candidate> = spec
                .iter()
                .map(|&(k, s)| Candidate::new(KEYS[k], Score::U64(s)))
                .collect();
            let params = PolicyParams::new()
                .with("dir", ["max", "min"][dir])
                .with("tie", ["key_asc", "key_desc"][tie]);
            let d = seen(
                RankByScore::new(PolicyId::CACHE_EVICT).choose(&candidates, &params),
                &candidates,
            );
            let eager = eager_ranking(&candidates, &params);
            prop_assert_eq!(&d.ranking, &eager);
            let expected_ties = eager.first().map_or(0, |&w| {
                candidates
                    .iter()
                    .filter(|c| c.score == candidates[w].score)
                    .count()
            });
            prop_assert_eq!(d.ties, expected_ties);
            let expected_tie_break = if expected_ties > 1 {
                ["key_asc", "key_desc"][tie]
            } else {
                "none"
            };
            prop_assert_eq!(d.tie_break, expected_tie_break);
        }

        /// For every `limit` from 0 to one past the candidate count, the
        /// top-`limit` ranking is the first `limit` entries of the full
        /// one, and its recorded event is the full decision's, byte for
        /// byte: the winner, `ties` and `tie_break` do not depend on how
        /// much is ranked. Scores and keys repeat, so every rung of the
        /// tie-break is exercised.
        #[test]
        fn top_limit_ranking_is_a_prefix_of_the_full_one(
            spec in proptest::collection::vec((0usize..6, 0u64..3), 0..40),
            dir in 0usize..2,
            tie in 0usize..2,
        ) {
            const KEYS: [&str; 6] = ["a", "b", "c", "d", "a", "e"];
            let candidates: Vec<Candidate> = spec
                .iter()
                .map(|&(k, s)| Candidate::new(KEYS[k], Score::F64(s as f64 / 2.0)))
                .collect();
            let params = PolicyParams::new()
                .with("dir", ["max", "min"][dir])
                .with("tie", ["key_asc", "key_desc"][tie]);
            let policy = RankByScore::new(PolicyId::UNION_RANK);
            let (full_event, full) = policy.choose(&candidates, &params).record();
            for limit in 0..=candidates.len() + 1 {
                let (event, top) = policy.choose_top(&candidates, &params, limit).record();
                prop_assert_eq!(&top[..], &full[..limit.min(full.len())]);
                prop_assert_eq!(format!("{event:?}"), format!("{full_event:?}"));
                prop_assert_eq!(event.render(), full_event.render());
            }
        }
    }
}
