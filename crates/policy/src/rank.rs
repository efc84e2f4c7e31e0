//! The default policy family: rank by score with a documented,
//! parameterized tie-break.

use std::cmp::Ordering;

use crate::decision::{Candidate, SelectionDecision, SelectionPolicy};
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
}

impl SelectionPolicy for RankByScore {
    fn id(&self) -> PolicyId {
        self.id
    }

    fn choose(&self, candidates: &[Candidate], params: &PolicyParams) -> SelectionDecision {
        let max_wins = params.get("dir").unwrap_or("max") != "min";
        let key_desc = params.get("tie") == Some("key_desc");

        let mut ranking: Vec<usize> = (0..candidates.len()).collect();
        ranking.sort_by(|&a, &b| {
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
        });

        let winner = ranking.first().copied();
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
        SelectionDecision {
            policy: self.id,
            params_hash: params.hash(),
            ranking,
            winner,
            ties,
            tie_break,
            considered: candidates.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Score;
    use proptest::prelude::*;

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
        let d = p.choose(&c, &PolicyParams::new());
        assert_eq!(d.winner_key(&c), Some("a"));
        let keys: Vec<&str> = d.ranking.iter().map(|&i| c[i].key.as_str()).collect();
        assert_eq!(keys, vec!["a", "b", "c"]);
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
        let d1 = p.choose(&c, &default);
        let d2 = p.choose(&c, &flipped);
        assert_eq!(d1.winner_key(&c), Some("alpha"));
        assert_eq!(d2.winner_key(&c), Some("beta"));
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
        let d = p.choose(&c, &PolicyParams::new().with("dir", "min"));
        assert_eq!(d.winner_key(&c), Some("old"));
    }

    #[test]
    fn empty_candidates_yield_no_winner() {
        let p = RankByScore::new(PolicyId::REDIRECT);
        let d = p.choose(&[], &PolicyParams::new());
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
        let d = p.choose(&c, &PolicyParams::new());
        let keys: Vec<&str> = d.ranking.iter().map(|&i| c[i].key.as_str()).collect();
        assert_eq!(keys, vec!["amy", "cat", "bob"]);
    }

    #[test]
    fn permutation_of_candidates_does_not_change_the_winner() {
        let p = RankByScore::new(PolicyId::UNION_RANK);
        let a = cands(&[("x", 0.3), ("y", 0.3), ("z", 0.1)]);
        let b = cands(&[("z", 0.1), ("y", 0.3), ("x", 0.3)]);
        let da = p.choose(&a, &PolicyParams::new());
        let db = p.choose(&b, &PolicyParams::new());
        assert_eq!(da.winner_key(&a), db.winner_key(&b));
        let ka: Vec<&str> = da.ranking.iter().map(|&i| a[i].key.as_str()).collect();
        let kb: Vec<&str> = db.ranking.iter().map(|&i| b[i].key.as_str()).collect();
        assert_eq!(ka, kb);
    }

    #[test]
    fn rationale_carries_the_audit_fields() {
        let p = RankByScore::new(PolicyId::UNION_RANK);
        let c = cands(&[("alpha", 1.0), ("beta", 1.0)]);
        let params = PolicyParams::new().with("tie", "key_desc");
        let d = p.choose(&c, &params);
        let r = d.rationale(&c, &params);
        assert_eq!(r.policy, "discovery.union_rank");
        assert_eq!(r.winner.as_deref(), Some("beta"));
        assert_eq!(r.winner_score, "1");
        assert_eq!(r.ties, 2);
        assert_eq!(r.tie_break, "key_desc");
        assert_eq!(r.params, "tie=key_desc");
        assert_eq!(r.params_hash, params.hash());
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
            let d = RankByScore::new(PolicyId::CACHE_EVICT).choose(&candidates, &params);
            let eager = eager_ranking(&candidates, &params);
            prop_assert_eq!(&d.ranking, &eager);
            prop_assert_eq!(d.winner, eager.first().copied());
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
    }
}
