//! Cross-crate integration tests: the full responsible-integration
//! pipeline from synthetic sources to a passing audit, exercised through
//! the umbrella crate's public API exactly as a downstream user would.

use rand::rngs::StdRng;
use rand::SeedableRng;
use responsible_data_integration::cleaning::ImputeStrategy;
use responsible_data_integration::core::prelude::*;
use responsible_data_integration::core::requirement::Requirement;
use responsible_data_integration::datagen::sources as rdi_source;
use responsible_data_integration::datagen::{
    healthcare_sources, inject_missing, HealthcareConfig, Mechanism, MissingSpec, PopulationSpec,
};
use responsible_data_integration::fairness::Categorical;
use responsible_data_integration::profile::NutritionalLabel;
use responsible_data_integration::table::{GroupKey, GroupSpec, Value};
use responsible_data_integration::tailor::prelude::*;

#[test]
fn skewed_sources_fail_audit_tailored_result_passes() {
    let pop = PopulationSpec::two_group(0.08);
    let mut rng = StdRng::seed_from_u64(100);
    // four sources with fixed, clearly skewed minority shares
    let generated: Vec<rdi_source::GeneratedSource> = [0.05, 0.10, 0.15, 0.02]
        .iter()
        .map(|&m| {
            let marginal = Categorical::from_weights(&[1.0 - m, m]);
            let table = pop.generate_with_marginals(8_000, &mut rng, Some(&marginal));
            rdi_source::GeneratedSource {
                table,
                marginal,
                cost: 1.0,
            }
        })
        .collect();

    // Every raw source fails the distribution requirement (TV to the
    // uniform reference is ≥ 0.35 for all of them).
    for g in &generated {
        let spec = RequirementSpec::default_for(&g.table).unwrap();
        let report = audit(&g.table, &spec).unwrap();
        let dist_finding = report
            .findings
            .iter()
            .find(|f| f.requirement == "underlying_distribution_representation")
            .unwrap();
        assert!(!dist_finding.passed, "raw skewed source should fail");
    }

    // Tailor exact parity and re-audit.
    let problem = DtProblem::ranged(
        GroupSpec::new(vec!["group"]),
        vec![
            (
                GroupKey(vec![Value::str("maj")]),
                CountRequirement::range(300, 300),
            ),
            (
                GroupKey(vec![Value::str("min")]),
                CountRequirement::range(300, 300),
            ),
        ],
    );
    let mut sources: Vec<TableSource> = generated
        .into_iter()
        .enumerate()
        .map(|(i, g)| TableSource::new(format!("s{i}"), g.table, g.cost, &problem).unwrap())
        .collect();
    let mut policy = RatioColl::from_sources(&sources);
    let out = run_tailoring(&mut sources, &problem, &mut policy, &mut rng, 5_000_000).unwrap();
    assert!(out.satisfied);
    assert_eq!(out.collected.num_rows(), 600);
    let spec = RequirementSpec::default_for(&out.collected).unwrap();
    assert!(audit(&out.collected, &spec).unwrap().passed());
}

#[test]
fn full_pipeline_with_imputation_and_provenance() {
    let mut rng = StdRng::seed_from_u64(101);
    let cfg = HealthcareConfig {
        population_size: 100,
        rows_per_hospital: 10_000,
    };
    let hospitals = healthcare_sources(&cfg, &mut rng);
    let problem = DtProblem::exact_counts(
        GroupSpec::new(vec!["race"]),
        ["white", "black", "hispanic", "asian"]
            .iter()
            .map(|r| (GroupKey(vec![Value::str(*r)]), 200))
            .collect(),
    );
    // Dirty one hospital's screening scores before wrapping it.
    let mut sources = Vec::new();
    for (i, (name, g)) in hospitals.into_iter().enumerate() {
        let table = if i == 0 {
            inject_missing(
                &g.table,
                &MissingSpec {
                    column: "screening_score".into(),
                    rate: 0.2,
                    mechanism: Mechanism::Mcar,
                },
                &mut rng,
            )
            .unwrap()
            .0
        } else {
            g.table
        };
        sources.push(TableSource::new(name, table, g.cost, &problem).unwrap());
    }
    let mut policy = RatioColl::from_sources(&sources);
    let built = PipelineBuilder::new(problem)
        .impute(
            "screening_score",
            ImputeStrategy::GroupMean(GroupSpec::new(vec!["race"])),
        )
        .require(Requirement::GroupRepresentation {
            threshold: 150,
            max_uncovered_patterns: 0,
        })
        .require(Requirement::CompletenessCorrectness {
            max_missing_fraction: 0.0,
        })
        .require(Requirement::ScopeOfUse { min_scope_notes: 1 })
        .scope_note("integration test data")
        .max_draws(5_000_000)
        .build();
    let result = built.run(&mut sources, &mut policy, &mut rng).unwrap();
    assert!(result.audit.passed(), "{:?}", result.audit.failures());
    assert_eq!(
        result.data.column("screening_score").unwrap().null_count(),
        0
    );
    // provenance records tailoring + imputation + audit, as typed events
    assert!(result.provenance.iter().any(|p| matches!(
        p,
        ProvenanceEvent::TailoringFinished {
            satisfied: true,
            ..
        }
    )));
    assert!(result.provenance.iter().any(|p| matches!(
        p,
        ProvenanceEvent::Imputed { column, nulls_after: 0, .. } if column == "screening_score"
    )));
    assert!(result
        .provenance
        .iter()
        .any(|p| matches!(p, ProvenanceEvent::Audited { .. })));
    // the rendered lines keep the legacy human-readable form
    assert!(result
        .provenance_lines()
        .iter()
        .any(|l| l.starts_with("tailoring: ")));
    // and the shipped label carries the complete log, audit included
    let label = result.label().unwrap();
    assert!(label.scope_notes.iter().any(|n| n.starts_with("audit: ")));
    // label carries group fractions for all four races
    assert_eq!(label.group_fractions.len(), 4);
    // the label built on first read is the one an eager build makes
    // from the shipped data, the spec's notes and the provenance lines
    // (`Debug` prints every field, floats to their exact value)
    let pipeline = built.pipeline();
    let mut eager = NutritionalLabel::generate(&result.data, &pipeline.label_config).unwrap();
    for note in &pipeline.spec.scope_notes {
        eager.add_scope_note(note.clone());
    }
    for line in result.provenance_lines() {
        eager.add_scope_note(line);
    }
    assert_eq!(format!("{label:?}"), format!("{eager:?}"));
    assert_eq!(
        label.scope_notes.len(),
        pipeline.spec.scope_notes.len() + result.provenance.len()
    );
}

#[test]
fn pipeline_reports_failure_when_requirements_unmeetable() {
    let pop = PopulationSpec::two_group(0.5);
    let mut rng = StdRng::seed_from_u64(102);
    let table = pop.generate(500, &mut rng);
    let problem = DtProblem::exact_counts(
        GroupSpec::new(vec!["group"]),
        vec![
            (GroupKey(vec![Value::str("maj")]), 10),
            (GroupKey(vec![Value::str("min")]), 10),
        ],
    );
    let mut sources = vec![TableSource::new("s", table, 1.0, &problem).unwrap()];
    let mut policy = RandomPolicy::new(1);
    let result = PipelineBuilder::new(problem)
        // impossible: zero scope notes provided but three required
        .require(Requirement::ScopeOfUse { min_scope_notes: 3 })
        .build()
        .run(&mut sources, &mut policy, &mut rng)
        .unwrap();
    assert!(!result.audit.passed());
    assert_eq!(result.audit.failures().len(), 1);
}
