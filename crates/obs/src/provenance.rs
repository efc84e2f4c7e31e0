//! Typed provenance events (§2.5 transparency).
//!
//! The pipeline used to ship provenance as pre-rendered `Vec<String>`
//! lines — human-readable but unqueryable. These events carry the same
//! information as structured fields; [`ProvenanceEvent::render`]
//! reproduces the exact legacy line for each event, so scope notes and
//! log output are unchanged while audits and experiment harnesses can
//! now match on variants and read fields directly.

use std::sync::Arc;

/// One step of pipeline provenance.
#[derive(Debug, Clone, PartialEq)]
pub enum ProvenanceEvent {
    /// Tailoring began: the problem shape and chosen policy.
    TailoringStarted {
        /// Number of groups in the DT problem.
        groups: usize,
        /// Number of sources available.
        sources: usize,
        /// Source-selection policy name.
        policy: String,
    },
    /// Tailoring finished.
    TailoringFinished {
        /// Draws issued (kept + discarded).
        draws: usize,
        /// Total cost paid.
        cost: f64,
        /// Whether every group met its requirement.
        satisfied: bool,
        /// Collected count per group.
        per_group: Vec<usize>,
    },
    /// A column was imputed.
    Imputed {
        /// Imputed column name.
        column: String,
        /// Null count before imputation.
        nulls_before: usize,
        /// Null count after imputation.
        nulls_after: usize,
        /// Debug rendering of the strategy used.
        strategy: String,
    },
    /// The nutritional label was generated.
    LabelGenerated,
    /// The requirement audit ran.
    Audited {
        /// Requirements that passed.
        passed: usize,
        /// Requirements audited.
        total: usize,
    },
    /// A source produced failures that the resilient executor retried
    /// or absorbed (one summary event per affected source, emitted
    /// after tailoring finishes).
    SourceFaults {
        /// Source name.
        source: String,
        /// Failed attempts per failure mode, as `(kind, count)` pairs
        /// in stable taxonomy order; zero-count modes omitted.
        by_kind: Vec<(String, u64)>,
        /// Retries spent on this source (attempts beyond each first).
        retries: u64,
    },
    /// A source was quarantined by its circuit breaker and receives no
    /// further requests this run.
    SourceQuarantined {
        /// Source name.
        source: String,
        /// Consecutive failed attempts that tripped the breaker.
        consecutive_failures: u32,
        /// Virtual tick at which the breaker opened.
        at_tick: u64,
    },
    /// The run completed with partial data: some requirements could not
    /// be met because sources failed or were quarantined.
    Degraded {
        /// Names of quarantined sources.
        quarantined: Vec<String>,
        /// Rows still missing per group (group index order).
        missing_per_group: Vec<usize>,
    },
    /// A selection policy decided a winner (or found nothing
    /// eligible), as `rdi_policy::SelectionDecision::record` builds it.
    /// Emitted *before* the decision takes effect, one per recorded
    /// decision (high-rate sites record the first decision of a run and
    /// tally the rest — see DESIGN.md, "Policy engine").
    PolicyDecision {
        /// Decision-site id (`rdi_policy::PolicyId::as_str`).
        policy: &'static str,
        /// Canonical FNV-1a hash of the deciding params.
        params_hash: u64,
        /// Candidates considered.
        considered: usize,
        /// Winning candidate key, shared with the candidate; `None`
        /// when nothing was eligible.
        winner: Option<Arc<str>>,
        /// The winner's rendered score (`""` when no winner).
        winner_score: String,
        /// Candidates sharing the winner's exact score.
        ties: usize,
        /// Rule that separated tied candidates (`"none"` if untied).
        tie_break: &'static str,
        /// Rendered `k=v` params (`∅` for defaults).
        params: String,
    },
    /// Free-form annotation (escape hatch for custom stages).
    Note {
        /// The annotation text; rendered verbatim.
        text: String,
    },
}

impl ProvenanceEvent {
    /// The legacy human-readable line for this event — byte-identical
    /// to what the string-based provenance log used to record.
    pub fn render(&self) -> String {
        match self {
            ProvenanceEvent::TailoringStarted {
                groups,
                sources,
                policy,
            } => format!("tailoring: {groups} groups, {sources} sources, policy `{policy}`"),
            ProvenanceEvent::TailoringFinished {
                draws,
                cost,
                satisfied,
                per_group,
            } => format!(
                "tailoring finished: {draws} draws, cost {cost:.1}, satisfied={satisfied}; per-group counts {per_group:?}"
            ),
            ProvenanceEvent::Imputed {
                column,
                nulls_before,
                nulls_after,
                strategy,
            } => format!("imputed `{column}` ({nulls_before} → {nulls_after} nulls) with {strategy}"),
            ProvenanceEvent::LabelGenerated => "nutritional label generated".to_string(),
            ProvenanceEvent::Audited { passed, total } => {
                format!("audit: {passed}/{total} requirements passed")
            }
            ProvenanceEvent::SourceFaults {
                source,
                by_kind,
                retries,
            } => {
                let kinds = by_kind
                    .iter()
                    .map(|(k, n)| format!("{k}×{n}"))
                    .collect::<Vec<_>>()
                    .join(", ");
                format!("source `{source}` faults: {kinds}; {retries} retries")
            }
            ProvenanceEvent::SourceQuarantined {
                source,
                consecutive_failures,
                at_tick,
            } => format!(
                "source `{source}` quarantined after {consecutive_failures} consecutive failures (tick {at_tick})"
            ),
            ProvenanceEvent::Degraded {
                quarantined,
                missing_per_group,
            } => format!(
                "DEGRADED: quarantined sources {quarantined:?}; rows not collected per group {missing_per_group:?}"
            ),
            ProvenanceEvent::PolicyDecision {
                policy,
                params_hash,
                considered,
                winner,
                winner_score,
                ties,
                tie_break,
                params,
            } => match winner {
                Some(w) => format!(
                    "policy `{policy}` chose `{w}` (score {winner_score}) from {considered} \
                     candidate(s); ties={ties} tie_break={tie_break} params={params} \
                     params_hash={params_hash:016x}"
                ),
                None => format!(
                    "policy `{policy}` found no eligible candidate among {considered}; \
                     params={params} params_hash={params_hash:016x}"
                ),
            },
            ProvenanceEvent::Note { text } => text.clone(),
        }
    }
}

impl std::fmt::Display for ProvenanceEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// An ordered log of [`ProvenanceEvent`]s.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProvenanceLog(pub Vec<ProvenanceEvent>);

impl ProvenanceLog {
    /// An empty log.
    pub fn new() -> Self {
        ProvenanceLog::default()
    }

    /// Append an event.
    pub fn push(&mut self, event: ProvenanceEvent) {
        self.0.push(event);
    }

    /// The legacy rendered lines, in order.
    pub fn lines(&self) -> Vec<String> {
        self.0.iter().map(ProvenanceEvent::render).collect()
    }
}

impl std::ops::Deref for ProvenanceLog {
    type Target = [ProvenanceEvent];

    fn deref(&self) -> &[ProvenanceEvent] {
        &self.0
    }
}

impl<'a> IntoIterator for &'a ProvenanceLog {
    type Item = &'a ProvenanceEvent;
    type IntoIter = std::slice::Iter<'a, ProvenanceEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> ProvenanceLog {
        let mut log = ProvenanceLog::new();
        log.push(ProvenanceEvent::TailoringStarted {
            groups: 2,
            sources: 3,
            policy: "ratio_coll".into(),
        });
        log.push(ProvenanceEvent::TailoringFinished {
            draws: 120,
            cost: 120.0,
            satisfied: true,
            per_group: vec![60, 60],
        });
        log.push(ProvenanceEvent::Imputed {
            column: "x1".into(),
            nulls_before: 9,
            nulls_after: 0,
            strategy: "Mean".into(),
        });
        log.push(ProvenanceEvent::LabelGenerated);
        log.push(ProvenanceEvent::Audited {
            passed: 3,
            total: 4,
        });
        log
    }

    #[test]
    fn render_matches_legacy_lines() {
        assert_eq!(
            sample_log().lines(),
            vec![
                "tailoring: 2 groups, 3 sources, policy `ratio_coll`",
                "tailoring finished: 120 draws, cost 120.0, satisfied=true; per-group counts [60, 60]",
                "imputed `x1` (9 → 0 nulls) with Mean",
                "nutritional label generated",
                "audit: 3/4 requirements passed",
            ]
        );
    }

    #[test]
    fn resilience_events_render() {
        let faults = ProvenanceEvent::SourceFaults {
            source: "s1".into(),
            by_kind: vec![("unavailable".into(), 3), ("timeout".into(), 1)],
            retries: 4,
        };
        assert_eq!(
            faults.render(),
            "source `s1` faults: unavailable×3, timeout×1; 4 retries"
        );
        let quarantined = ProvenanceEvent::SourceQuarantined {
            source: "s1".into(),
            consecutive_failures: 5,
            at_tick: 17,
        };
        assert_eq!(
            quarantined.render(),
            "source `s1` quarantined after 5 consecutive failures (tick 17)"
        );
        let degraded = ProvenanceEvent::Degraded {
            quarantined: vec!["s1".into()],
            missing_per_group: vec![0, 12],
        };
        assert_eq!(
            degraded.render(),
            "DEGRADED: quarantined sources [\"s1\"]; rows not collected per group [0, 12]"
        );
    }

    fn policy_events() -> (ProvenanceEvent, ProvenanceEvent) {
        let chose = ProvenanceEvent::PolicyDecision {
            policy: "discovery.union_rank",
            params_hash: 0x0123_4567_89ab_cdef,
            considered: 3,
            winner: Some("alpha".into()),
            winner_score: "0.75".into(),
            ties: 2,
            tie_break: "key_asc",
            params: "∅".into(),
        };
        let none = ProvenanceEvent::PolicyDecision {
            policy: "core.redirect",
            params_hash: 1,
            considered: 0,
            winner: None,
            winner_score: String::new(),
            ties: 0,
            tie_break: "none",
            params: "dir=max".into(),
        };
        (chose, none)
    }

    #[test]
    fn policy_decision_renders_both_outcomes() {
        let (chose, none) = policy_events();
        assert_eq!(
            chose.render(),
            "policy `discovery.union_rank` chose `alpha` (score 0.75) from 3 candidate(s); \
             ties=2 tie_break=key_asc params=∅ params_hash=0123456789abcdef"
        );
        assert_eq!(
            none.render(),
            "policy `core.redirect` found no eligible candidate among 0; params=dir=max \
             params_hash=0000000000000001"
        );
    }

    #[test]
    fn display_delegates_to_render() {
        let e = ProvenanceEvent::Note { text: "hi".into() };
        assert_eq!(format!("{e}"), "hi");
    }
}
