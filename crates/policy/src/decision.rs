//! The selection API: candidates in, an auditable decision out.

use std::sync::Arc;

use crate::params::PolicyParams;
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
/// [`Rationale`].
pub trait SelectionPolicy {
    /// The decision site this policy instance serves.
    fn id(&self) -> PolicyId;

    /// Rank `candidates` under `params` and pick a winner. An empty
    /// candidate slice yields a decision with `winner == None` — "no
    /// eligible option" is itself an auditable outcome.
    fn choose(&self, candidates: &[Candidate], params: &PolicyParams) -> SelectionDecision;
}

/// The outcome of one [`SelectionPolicy::choose`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionDecision {
    /// The deciding site.
    pub policy: PolicyId,
    /// Canonical hash of the params the decision was made under.
    pub params_hash: u64,
    /// Indices into the candidate slice, best first (full ranking).
    pub ranking: Vec<usize>,
    /// `ranking[0]`, or `None` when no candidate was eligible.
    pub winner: Option<usize>,
    /// Candidates sharing the winner's exact score (≥ 1 when a winner
    /// exists; 0 otherwise).
    pub ties: usize,
    /// Name of the rule that separated tied candidates (`"none"` when
    /// the primary score was already decisive).
    pub tie_break: &'static str,
    /// Number of candidates considered.
    pub considered: usize,
}

impl SelectionDecision {
    /// The winning candidate's key, borrowed from the slice the
    /// decision was made over.
    pub fn winner_key<'a>(&self, candidates: &'a [Candidate]) -> Option<&'a str> {
        self.winner.map(|i| &*candidates[i].key)
    }

    /// Build the typed rationale for this decision. `params` must be
    /// the set the decision was made under (asserted via the hash in
    /// debug builds).
    pub fn rationale(&self, candidates: &[Candidate], params: &PolicyParams) -> Rationale {
        debug_assert_eq!(self.params_hash, params.hash());
        Rationale {
            policy: self.policy.as_str(),
            params_hash: self.params_hash,
            considered: self.considered,
            winner: self.winner.map(|i| Arc::clone(&candidates[i].key)),
            winner_score: self
                .winner
                .map(|i| candidates[i].score.render())
                .unwrap_or_default(),
            ties: self.ties,
            tie_break: self.tie_break,
            params: params.render(),
        }
    }
}

/// Why a winner won: the auditable record call sites emit as a
/// `ProvenanceEvent::PolicyDecision` *before* the decision takes
/// effect. Plain data so any crate can convert it without depending on
/// this one's internals; the winner shares the candidate's key.
#[derive(Debug, Clone, PartialEq)]
pub struct Rationale {
    /// The deciding site id (`PolicyId::as_str`).
    pub policy: &'static str,
    /// Canonical hash of the deciding params.
    pub params_hash: u64,
    /// Candidates considered.
    pub considered: usize,
    /// Winning key (the candidate's shared key), or `None` when
    /// nothing was eligible.
    pub winner: Option<Arc<str>>,
    /// The winner's rendered score (`""` when no winner).
    pub winner_score: String,
    /// Candidates sharing the winner's exact score.
    pub ties: usize,
    /// Rule that separated the tied candidates.
    pub tie_break: &'static str,
    /// Rendered `k=v` params (`∅` when default).
    pub params: String,
}
