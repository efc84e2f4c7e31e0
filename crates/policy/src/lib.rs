//! # rdi-policy
//!
//! The workspace-wide selection-policy engine: every tie-break and
//! winner-selection decision in the toolkit (union ranking, quarantine
//! redirect, tailoring keep/drop, cache eviction, admission ordering,
//! fair-query relaxation) routes through one API —
//! [`SelectionPolicy::choose`] — so each decision is *deterministic*,
//! *parameterized*, and *auditable*.
//!
//! The paper's core claim is that integration systems must account for
//! their choices: which source won, which table ranked first, which
//! rows were kept. Burying that logic in ad-hoc `sort_by` closures
//! makes the decision unexplainable at serving time. Here, instead:
//!
//! * every decision site owns a named [`PolicyId`];
//! * every choice is made by a [`SelectionPolicy`] over explicit
//!   [`Candidate`]s with totally-ordered [`Score`]s;
//! * every knob lives in [`PolicyParams`], whose canonical encoding
//!   hashes to a stable [`PolicyParams::hash`] (FNV-1a over a
//!   versioned byte layout) — fingerprints change **iff** the policy
//!   or its parameters change;
//! * every choice comes back as a [`SelectionDecision`] whose only
//!   readers count it: [`SelectionDecision::record`] returns the
//!   `ProvenanceEvent::PolicyDecision` the call site emits *before* the
//!   decision takes effect, and [`SelectionDecision::tally`] serves the
//!   high-rate sites ([`ExemplarSite`]) after their first recorded
//!   decision. Provenance is a property of the types, not of a lint.
//!
//! A site that already holds its candidates in ascending order of
//! unique scores (the sketch cache's recency map) decides through
//! [`RankByScore::choose_ascending`] instead: it builds only the
//! winner, records the event `choose` would, and tells the site which
//! end of its order to walk from.
//!
//! The crate depends only on `rdi-obs` (for the event type and the
//! `policy.*` counters), so it sits below every decision-making crate
//! in the graph.
//!
//! ## Determinism contract
//!
//! With unique candidate keys, [`SelectionPolicy::choose`] is a pure
//! function of the candidate *set* (permutation-invariant) and the
//! params; it reads no clocks, no RNGs, and no thread-local state, so
//! it is trivially invariant under `RDI_THREADS`. Exact duplicates
//! (same key *and* same score) fall back to first-seen input order,
//! which keeps the output deterministic for any fixed input sequence.
//! The root `tests/policy_determinism.rs` property-checks both.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod decision;
mod metrics;
mod params;
mod rank;
mod score;

pub use decision::{Candidate, ExemplarSite, OrderedDecision, SelectionDecision, SelectionPolicy};
pub use params::{fnv1a, PolicyParams, PolicySet, PARAMS_ENCODING_VERSION};
pub use rank::{RankByScore, WinningEnd};
pub use score::Score;

/// A stable, workspace-unique name for one decision site.
///
/// The id appears in provenance events, metric names
/// (`policy.{id}.decisions`), and the DESIGN.md decision-site catalog,
/// so it is part of the audit surface — renaming one is a breaking
/// change. Ids are only the constants below, each a slot in
/// [`PolicyId::ALL`], so a site's counters are found by index.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PolicyId(u8);

impl PolicyId {
    /// Union top-k candidate ranking (`rdi-discovery::union_search`,
    /// replayed warm by `rdi-serve`'s execute phase).
    pub const UNION_RANK: PolicyId = PolicyId(0);
    /// Joinability top-k candidate ranking (`rdi-serve`'s execute
    /// phase; same ranking rule as union, scored by containment).
    pub const JOIN_RANK: PolicyId = PolicyId(1);
    /// Quarantine redirect: which healthy source absorbs a draw aimed
    /// at a quarantined one (`rdi-core::run_resilient`).
    pub const REDIRECT: PolicyId = PolicyId(2);
    /// Tailoring keep/drop verdict for one drawn record
    /// (`rdi-tailor::run_tailoring*` and the resilient executor).
    pub const TAILOR_KEEP: PolicyId = PolicyId(3);
    /// Sketch-cache eviction victim ordering (`rdi-serve::SketchCache`).
    pub const CACHE_EVICT: PolicyId = PolicyId(4);
    /// Admission reserved-slot ordering across tenants
    /// (`rdi-serve::Admitter`).
    pub const ADMIT_RESERVE: PolicyId = PolicyId(5);
    /// Fair-range relaxation direction choice
    /// (`rdi-fairquery::relax_for_coverage`).
    pub const FAIRQUERY_RELAX: PolicyId = PolicyId(6);

    /// Every registered decision site, in stable order.
    pub const ALL: [PolicyId; 7] = [
        PolicyId::UNION_RANK,
        PolicyId::JOIN_RANK,
        PolicyId::REDIRECT,
        PolicyId::TAILOR_KEEP,
        PolicyId::CACHE_EVICT,
        PolicyId::ADMIT_RESERVE,
        PolicyId::FAIRQUERY_RELAX,
    ];

    /// The stable string forms, indexed like [`PolicyId::ALL`].
    const NAMES: [&'static str; 7] = [
        "discovery.union_rank",
        "discovery.join_rank",
        "core.redirect",
        "tailor.keep",
        "serve.cache_evict",
        "serve.admit_reserve",
        "fairquery.relax",
    ];

    /// The stable string form (used in metrics and provenance).
    pub fn as_str(self) -> &'static str {
        Self::NAMES[self.slot()]
    }

    /// This id's index into [`PolicyId::ALL`].
    fn slot(self) -> usize {
        usize::from(self.0)
    }
}

impl std::fmt::Debug for PolicyId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("PolicyId").field(&self.as_str()).finish()
    }
}

impl std::fmt::Display for PolicyId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_ids_are_unique_and_stable() {
        for (i, a) in PolicyId::ALL.iter().enumerate() {
            for b in PolicyId::ALL.iter().skip(i + 1) {
                assert_ne!(a.as_str(), b.as_str());
            }
        }
        assert_eq!(PolicyId::UNION_RANK.as_str(), "discovery.union_rank");
        assert_eq!(PolicyId::REDIRECT.to_string(), "core.redirect");
        for (i, id) in PolicyId::ALL.iter().enumerate() {
            assert_eq!(id.slot(), i);
        }
    }
}
