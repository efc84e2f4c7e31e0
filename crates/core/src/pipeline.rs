//! The end-to-end responsible integration pipeline.
//!
//! `sources → tailor → clean → label → audit`, with every step appending
//! a typed [`ProvenanceEvent`] to a log that ships with the result
//! (§2.5 transparency). Events render to the same human-readable lines
//! the pipeline always emitted ([`ProvenanceEvent::render`]), and each
//! stage runs under an `rdi-obs` span so wall time lands in the global
//! metrics registry. The label is generated on its first read
//! ([`PipelineResult::label`]), so a caller that never reads it (a
//! serving tailor request) does not pay for it.
//!
//! Tailoring runs on the resilient executor ([`crate::executor`]): the
//! pipeline accepts any fallible [`Source`], retries transient
//! failures, quarantines sources whose circuit breakers trip, and —
//! rather than erroring — **degrades gracefully**, shipping partial
//! data with provenance and audit entries that name every degraded
//! source and the rows that could not be collected. With fault-free
//! sources the behaviour (data, provenance, metrics) is bitwise
//! identical to the pre-resilience pipeline.

use std::sync::OnceLock;

use rand::Rng;
use rdi_cleaning::{impute, ImputeStrategy};
use rdi_fault::ResilienceConfig;
use rdi_obs::ProvenanceEvent;
use rdi_policy::PolicySet;
use rdi_profile::{LabelConfig, NutritionalLabel};
use rdi_table::{GroupSpec, Table, TableError};
use rdi_tailor::{DtProblem, Policy, Source};

use crate::audit::{audit, AuditReport};
use crate::executor::{run_resilient, SourceHealth};
use crate::metrics;
use crate::requirement::RequirementSpec;

/// Why a pipeline run failed outright.
///
/// Source failures never produce a `PipelineError` — those are retried,
/// quarantined, and reported as degradation. Errors are reserved for
/// structural problems: an invalid problem, mismatched schemas, a
/// missing imputation column.
#[derive(Debug)]
pub enum PipelineError {
    /// A structural table/problem error from an underlying stage.
    Table(TableError),
}

impl From<TableError> for PipelineError {
    fn from(e: TableError) -> Self {
        PipelineError::Table(e)
    }
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Table(e) => write!(f, "pipeline error: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Table(e) => Some(e),
        }
    }
}

/// Pipeline configuration, assembled by [`crate::PipelineBuilder`] and
/// run through [`crate::BuiltPipeline::run`].
#[derive(Debug)]
pub struct Pipeline {
    /// The distribution-tailoring problem (what to collect).
    pub problem: DtProblem,
    /// Numeric columns to impute after collection (column, strategy).
    pub imputations: Vec<(String, ImputeStrategy)>,
    /// Label generation config.
    pub label_config: LabelConfig,
    /// Requirements to audit at the end.
    pub spec: RequirementSpec,
    /// Draw cap for tailoring.
    pub max_draws: usize,
}

/// Everything the pipeline produces. The nutritional label is built on
/// its first read ([`PipelineResult::label`]).
pub struct PipelineResult {
    /// The integrated, cleaned dataset.
    pub data: Table,
    /// The responsibility audit.
    pub audit: AuditReport,
    /// Step-by-step typed provenance log (render with
    /// [`ProvenanceEvent::render`] or [`PipelineResult::provenance_lines`]).
    pub provenance: Vec<ProvenanceEvent>,
    /// Total tailoring cost paid (per attempt — retries are paid for).
    pub total_cost: f64,
    /// True when the run shipped partial data because sources failed or
    /// were quarantined (see the `Degraded` provenance event for what
    /// is missing).
    pub degraded: bool,
    /// Names of sources quarantined by their circuit breakers.
    pub quarantined: Vec<String>,
    /// Per-source fault/retry/quarantine accounting, in source order.
    pub health: Vec<SourceHealth>,
    /// What the label is generated with, and the spec's scope notes it
    /// carries before the provenance lines.
    label_config: LabelConfig,
    scope_notes: Vec<String>,
    label: OnceLock<Result<NutritionalLabel, TableError>>,
}

impl PipelineResult {
    /// The nutritional label of [`PipelineResult::data`], carrying the
    /// spec's scope notes and then one note per provenance event (the
    /// complete log: label generation and the audit included).
    ///
    /// The label is generated on the first read, under an `rdi-obs`
    /// `label` span nested in whatever span the reader holds (the run's
    /// root span has closed by then), from `data` and `provenance` as
    /// they are at that read. It is kept: later reads return the same
    /// label and record nothing. A run whose label is never read never
    /// generates it, although its [`ProvenanceEvent::LabelGenerated`]
    /// event keeps its place in the log.
    ///
    /// # Errors
    /// A label-generation error surfaces here as
    /// [`PipelineError::Table`], not from
    /// [`crate::BuiltPipeline::run`]; every read returns it.
    pub fn label(&self) -> Result<&NutritionalLabel, PipelineError> {
        self.label
            .get_or_init(|| {
                let _span = rdi_obs::span(metrics::LABEL_SPAN);
                let mut label = NutritionalLabel::generate(&self.data, &self.label_config)?;
                for note in &self.scope_notes {
                    label.add_scope_note(note.clone());
                }
                for p in &self.provenance {
                    label.add_scope_note(p.render());
                }
                Ok(label)
            })
            .as_ref()
            .map_err(|e| PipelineError::Table(e.clone()))
    }

    /// The provenance log as legacy human-readable lines.
    pub fn provenance_lines(&self) -> Vec<String> {
        self.provenance
            .iter()
            .map(ProvenanceEvent::render)
            .collect()
    }
}

impl Pipeline {
    /// The execution path behind [`crate::BuiltPipeline::run`].
    /// `span_root` names the root `rdi-obs` span (`"pipeline"` by
    /// default; callers embedding the pipeline — e.g. `rdi-serve` —
    /// pick their own root to keep span trees separable).
    pub(crate) fn run_impl<S: Source, R: Rng>(
        &self,
        sources: &mut [S],
        policy: &mut dyn Policy,
        rng: &mut R,
        config: &ResilienceConfig,
        policies: &PolicySet,
        span_root: &str,
    ) -> Result<PipelineResult, PipelineError> {
        let _pipeline_span = rdi_obs::span(span_root);
        let mut provenance = Vec::new();
        provenance.push(ProvenanceEvent::TailoringStarted {
            groups: self.problem.num_groups(),
            sources: sources.len(),
            policy: policy.name().to_string(),
        });
        let outcome = {
            let _span = rdi_obs::span(metrics::TAILOR_SPAN);
            run_resilient(
                sources,
                &self.problem,
                policy,
                rng,
                self.max_draws,
                config,
                policies,
            )?
        };
        let missing = outcome.missing_per_group(&self.problem);
        let quarantined = outcome.quarantined();
        // policy audit exemplars (keep/drop verdicts) precede the
        // fault/quarantine events they may have influenced
        provenance.extend(outcome.tailor.decisions.iter().cloned());
        provenance.extend(outcome.events.iter().cloned());
        provenance.push(ProvenanceEvent::TailoringFinished {
            draws: outcome.tailor.draws,
            cost: outcome.tailor.total_cost,
            satisfied: outcome.tailor.satisfied,
            per_group: outcome.tailor.per_group.clone(),
        });
        if outcome.degraded {
            provenance.push(ProvenanceEvent::Degraded {
                quarantined: quarantined.clone(),
                missing_per_group: missing.clone(),
            });
        }

        let mut data = outcome.tailor.collected;
        for (column, strategy) in &self.imputations {
            let _span = rdi_obs::span(metrics::IMPUTE_SPAN);
            let before = data.column(column)?.null_count();
            data = impute(&data, column, strategy)?;
            let after = data.column(column)?.null_count();
            provenance.push(ProvenanceEvent::Imputed {
                column: column.clone(),
                nulls_before: before,
                nulls_after: after,
                strategy: format!("{strategy:?}"),
            });
        }

        provenance.push(ProvenanceEvent::LabelGenerated);

        let mut report = {
            let _span = rdi_obs::span(metrics::AUDIT_SPAN);
            audit(&data, &self.spec)?
        };
        // Disclose degradation in the audit itself: every quarantined
        // or failing source gets a line, and a degraded run names the
        // rows it could not collect.
        for h in &outcome.health {
            if let Some(q) = h.quarantined {
                report.degradation.push(format!(
                    "source `{}` quarantined after {} consecutive failures; {} draw(s) abandoned",
                    h.name, q.consecutive_failures, h.abandoned_draws
                ));
            } else if h.failures_total() > 0 {
                report.degradation.push(format!(
                    "source `{}` failed {} attempt(s) ({} retried, {} draw(s) abandoned)",
                    h.name,
                    h.failures_total(),
                    h.retries,
                    h.abandoned_draws
                ));
            }
        }
        if outcome.degraded {
            report.degradation.push(format!(
                "run degraded: rows not collected per group {missing:?}"
            ));
        }
        provenance.push(ProvenanceEvent::Audited {
            passed: report.findings.iter().filter(|f| f.passed).count(),
            total: report.findings.len(),
        });

        Ok(PipelineResult {
            data,
            audit: report,
            provenance,
            total_cost: outcome.tailor.total_cost,
            degraded: outcome.degraded,
            quarantined,
            health: outcome.health,
            label_config: self.label_config.clone(),
            scope_notes: self.spec.scope_notes.clone(),
            label: OnceLock::new(),
        })
    }
}

/// Convenience: groups over all sensitive attributes of a schema.
pub fn sensitive_groups(table: &Table) -> GroupSpec {
    GroupSpec::from_sensitive(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::requirement::Requirement;
    use crate::PipelineBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rdi_datagen::{skewed_sources, PopulationSpec, SourceConfig};
    use rdi_table::{GroupKey, Value};
    use rdi_tailor::{RatioColl, TableSource};

    #[test]
    fn end_to_end_pipeline_produces_balanced_audited_data() {
        let pop = PopulationSpec::two_group(0.15);
        let mut rng = StdRng::seed_from_u64(42);
        let generated = skewed_sources(
            &pop,
            &SourceConfig {
                num_sources: 3,
                rows_per_source: 4_000,
                concentration: 1.0,
                costs: vec![1.0],
            },
            &mut rng,
        );
        let problem = DtProblem::exact_counts(
            GroupSpec::new(vec!["group"]),
            vec![
                (GroupKey(vec![Value::str("maj")]), 150),
                (GroupKey(vec![Value::str("min")]), 150),
            ],
        );
        let mut sources: Vec<TableSource> = generated
            .into_iter()
            .enumerate()
            .map(|(i, g)| TableSource::new(format!("s{i}"), g.table, g.cost, &problem).unwrap())
            .collect();
        let mut policy = RatioColl::from_sources(&sources);

        let pipeline = PipelineBuilder::new(problem)
            .require(Requirement::GroupRepresentation {
                threshold: 100,
                max_uncovered_patterns: 0,
            })
            .require(Requirement::ScopeOfUse { min_scope_notes: 1 })
            .scope_note("synthetic two-group population, tailored to parity")
            .max_draws(1_000_000)
            .build();
        let result = pipeline.run(&mut sources, &mut policy, &mut rng).unwrap();
        assert!(
            result.audit.passed(),
            "audit: {:?}",
            result.audit.failures()
        );
        assert!(result.data.num_rows() >= 300);
        assert!(result.provenance.len() >= 4);
        assert!(result.total_cost > 0.0);
        // the label carries the FULL provenance log as scope notes:
        // every event (including label generation and the audit, which
        // happen after the label is created) plus the spec's own note
        let label = result.label().unwrap();
        for line in result.provenance_lines() {
            assert!(
                label.scope_notes.contains(&line),
                "label is missing provenance line `{line}`"
            );
        }
        assert!(label.scope_notes.iter().any(|n| n.starts_with("audit: ")));
        assert!(label
            .scope_notes
            .contains(&"nutritional label generated".to_string()));
        assert_eq!(
            label.scope_notes.len(),
            pipeline.pipeline().spec.scope_notes.len() + result.provenance.len()
        );
        // events are typed and ordered: tailoring start, the keep/drop
        // policy exemplar, tailoring finish, label generation, then the
        // audit last
        use rdi_obs::ProvenanceEvent as E;
        assert!(matches!(
            result.provenance.first(),
            Some(E::TailoringStarted { .. })
        ));
        assert!(matches!(
            result.provenance.get(1),
            Some(E::PolicyDecision { policy, .. }) if *policy == "tailor.keep"
        ));
        assert!(matches!(
            result.provenance.get(2),
            Some(E::TailoringFinished {
                satisfied: true,
                ..
            })
        ));
        assert!(matches!(result.provenance.last(), Some(E::Audited { .. })));
    }

    #[test]
    fn pipeline_survives_thirty_percent_fault_rate() {
        use rdi_fault::{FaultSpec, FaultySource};
        let pop = PopulationSpec::two_group(0.3);
        let mut rng = StdRng::seed_from_u64(21);
        let generated = skewed_sources(
            &pop,
            &SourceConfig {
                num_sources: 3,
                rows_per_source: 3_000,
                concentration: 1.0,
                costs: vec![1.0],
            },
            &mut rng,
        );
        let problem = DtProblem::exact_counts(
            GroupSpec::new(vec!["group"]),
            vec![
                (GroupKey(vec![Value::str("maj")]), 100),
                (GroupKey(vec![Value::str("min")]), 100),
            ],
        );
        let mut sources: Vec<FaultySource<TableSource>> = generated
            .into_iter()
            .enumerate()
            .map(|(i, g)| {
                FaultySource::new(
                    TableSource::new(format!("s{i}"), g.table, g.cost, &problem).unwrap(),
                    FaultSpec::uniform(0.3),
                    1_000 + i as u64,
                )
            })
            .collect();
        let mut policy = RatioColl::from_sources(&sources);
        let result = PipelineBuilder::new(problem)
            .scope_note("fault-injected run")
            .max_draws(1_000_000)
            .build()
            .run(&mut sources, &mut policy, &mut rng)
            .unwrap();
        assert!(!result.degraded, "30% faults should be absorbed by retries");
        assert!(result.data.num_rows() >= 200);
        // the audit discloses every failing source even on success
        assert_eq!(result.audit.degradation.len(), 3);
        assert!(result.audit.to_markdown().contains("## Degradation"));
        // fault summaries made it into provenance (between start and finish)
        use rdi_obs::ProvenanceEvent as E;
        let n_fault_events = result
            .provenance
            .iter()
            .filter(|e| matches!(e, E::SourceFaults { .. }))
            .count();
        assert_eq!(n_fault_events, 3);
        assert!(matches!(
            result.provenance.first(),
            Some(E::TailoringStarted { .. })
        ));
        // scope notes still carry the complete provenance log
        let label = result.label().unwrap();
        for line in result.provenance_lines() {
            assert!(label.scope_notes.contains(&line));
        }
    }

    #[test]
    fn pipeline_degrades_gracefully_when_a_required_source_dies() {
        use rdi_fault::{FaultSpec, FaultySource};
        use rdi_table::{DataType, Field, Role, Schema};
        let schema = Schema::new(vec![
            Field::new("g", DataType::Str).with_role(Role::Sensitive)
        ]);
        let make = |val: &str| {
            let mut t = Table::new(schema.clone());
            for _ in 0..200 {
                t.push_row(vec![Value::str(val)]).unwrap();
            }
            t
        };
        let problem = DtProblem::exact_counts(
            GroupSpec::new(vec!["g"]),
            vec![
                (GroupKey(vec![Value::str("a")]), 30),
                (GroupKey(vec![Value::str("b")]), 30),
            ],
        );
        // the only holder of group "b" never answers
        let mut sources = vec![
            FaultySource::new(
                TableSource::new("alive-a", make("a"), 1.0, &problem).unwrap(),
                FaultSpec::none(),
                1,
            ),
            FaultySource::new(
                TableSource::new("dead-b", make("b"), 1.0, &problem).unwrap(),
                FaultSpec::dead(),
                2,
            ),
        ];
        let mut policy = rdi_tailor::RandomPolicy::new(2);
        let mut rng = StdRng::seed_from_u64(3);
        let built = PipelineBuilder::new(problem)
            .scope_note("degradation test")
            .max_draws(2_000)
            .build();
        let result = built.run(&mut sources, &mut policy, &mut rng).unwrap();
        // completes without panic or error, with partial data
        assert!(result.degraded);
        assert_eq!(result.quarantined, vec!["dead-b".to_string()]);
        assert!(result.data.num_rows() >= 30, "group a fully collected");
        // provenance names the degraded source and the missing rows
        use rdi_obs::ProvenanceEvent as E;
        assert!(result
            .provenance
            .iter()
            .any(|e| matches!(e, E::SourceQuarantined { source, .. } if source == "dead-b")));
        let degraded_event = result
            .provenance
            .iter()
            .find_map(|e| match e {
                E::Degraded {
                    quarantined,
                    missing_per_group,
                } => Some((quarantined.clone(), missing_per_group.clone())),
                _ => None,
            })
            .expect("Degraded event present");
        assert_eq!(degraded_event.0, vec!["dead-b".to_string()]);
        assert_eq!(degraded_event.1[1], 30, "all of group b missing");
        // ... and so does the audit report
        assert!(result
            .audit
            .degradation
            .iter()
            .any(|l| l.contains("dead-b")));
        assert!(result
            .audit
            .degradation
            .iter()
            .any(|l| l.contains("rows not collected per group")));
        // the shipped label discloses the degradation as a scope note
        assert!(result
            .label()
            .unwrap()
            .scope_notes
            .iter()
            .any(|n| n.starts_with("DEGRADED:")));
        // health accounting: the dead source was quarantined with zero successes
        assert_eq!(result.health[1].successes, 0);
        assert!(result.health[1].quarantined.is_some());
        // the label built on first read is the one an eager build makes
        // (`Debug` prints every field, floats to their exact value)
        let pipeline = built.pipeline();
        let mut eager = NutritionalLabel::generate(&result.data, &pipeline.label_config).unwrap();
        for note in &pipeline.spec.scope_notes {
            eager.add_scope_note(note.clone());
        }
        for line in result.provenance_lines() {
            eager.add_scope_note(line);
        }
        let label = result.label().unwrap();
        assert_eq!(format!("{label:?}"), format!("{eager:?}"));
        assert_eq!(
            label.scope_notes.len(),
            pipeline.spec.scope_notes.len() + result.provenance.len()
        );
    }

    /// The label is generated once, on the first read, under a `label`
    /// span in the reader's span; a second read hands back the same
    /// label and records nothing.
    #[test]
    fn the_label_is_built_once_on_first_read() {
        let pop = PopulationSpec::two_group(0.5);
        let mut rng = StdRng::seed_from_u64(5);
        let table = pop.generate(400, &mut rng);
        let problem = DtProblem::exact_counts(
            GroupSpec::new(vec!["group"]),
            vec![
                (GroupKey(vec![Value::str("maj")]), 20),
                (GroupKey(vec![Value::str("min")]), 20),
            ],
        );
        let mut sources = vec![TableSource::new("s", table, 1.0, &problem).unwrap()];
        let mut policy = RatioColl::from_sources(&sources);
        let result = PipelineBuilder::new(problem)
            .span_root("lazy_label_run")
            .build()
            .run(&mut sources, &mut policy, &mut rng)
            .unwrap();
        // span names unique to this test: other tests share the registry
        let spans_under = |prefix: &str| {
            rdi_obs::global()
                .span_records()
                .iter()
                .filter(|r| r.path.starts_with(prefix))
                .map(|r| r.path.clone())
                .collect::<Vec<_>>()
        };
        // the run itself generated no label
        assert!(!spans_under("lazy_label_run").is_empty());
        assert!(!spans_under("lazy_label_run")
            .iter()
            .any(|p| p.ends_with("/label")));
        let (first, second) = {
            let _reader = rdi_obs::span("lazy_label_reader");
            (result.label().unwrap(), result.label().unwrap())
        };
        assert!(std::ptr::eq(first, second));
        assert_eq!(
            spans_under("lazy_label_reader/"),
            vec!["lazy_label_reader/label".to_string()]
        );
        assert!(std::ptr::eq(result.label().unwrap(), first));
        assert_eq!(spans_under("lazy_label_reader/").len(), 1);
    }

    #[test]
    fn pipeline_imputes_collected_data() {
        // single source, no skew; inject missingness into the source table
        let pop = PopulationSpec::two_group(0.5);
        let mut rng = StdRng::seed_from_u64(7);
        let mut table = pop.generate(3_000, &mut rng);
        // knock out x1 in 30% of rows
        for i in 0..table.num_rows() {
            if i % 3 == 0 {
                table.set_value(i, "x1", Value::Null).unwrap();
            }
        }
        let problem = DtProblem::exact_counts(
            GroupSpec::new(vec!["group"]),
            vec![
                (GroupKey(vec![Value::str("maj")]), 50),
                (GroupKey(vec![Value::str("min")]), 50),
            ],
        );
        let mut sources = vec![TableSource::new("s", table, 1.0, &problem).unwrap()];
        let mut policy = RatioColl::from_sources(&sources);
        let result = PipelineBuilder::new(problem)
            .impute(
                "x1",
                ImputeStrategy::GroupMean(GroupSpec::new(vec!["group"])),
            )
            .require(Requirement::CompletenessCorrectness {
                max_missing_fraction: 0.0,
            })
            .build()
            .run(&mut sources, &mut policy, &mut rng)
            .unwrap();
        assert_eq!(result.data.column("x1").unwrap().null_count(), 0);
        assert!(result.audit.passed());
    }
}
