//! The audit engine: measure a dataset against a [`RequirementSpec`].

use rdi_coverage::CoverageAnalyzer;
use rdi_fairness::association::table_association;
use rdi_fairness::{total_variation, Categorical};
use rdi_table::{GroupSpec, Role, Table};

use crate::requirement::{Requirement, RequirementSpec};

/// One requirement's audit outcome.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Requirement name.
    pub requirement: String,
    /// Did the dataset satisfy it?
    pub passed: bool,
    /// The measured quantity (interpretation depends on the requirement).
    pub metric: f64,
    /// Human-readable evidence.
    pub evidence: String,
}

/// The full audit result.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// Per-requirement findings, in spec order.
    pub findings: Vec<Finding>,
    /// Degradation disclosures: one line per source the pipeline could
    /// not fully collect from (quarantines, abandoned draws). Empty for
    /// a clean run; filled in by the pipeline, not by [`audit`] itself,
    /// because only the executor knows what failed.
    pub degradation: Vec<String>,
}

impl AuditReport {
    /// True iff every requirement passed.
    pub fn passed(&self) -> bool {
        self.findings.iter().all(|f| f.passed)
    }

    /// The findings that failed.
    pub fn failures(&self) -> Vec<&Finding> {
        self.findings.iter().filter(|f| !f.passed).collect()
    }

    /// Render as markdown.
    pub fn to_markdown(&self) -> String {
        let mut md = String::from("# Responsibility Audit\n\n| requirement | status | metric | evidence |\n|---|---|---|---|\n");
        for f in &self.findings {
            md.push_str(&format!(
                "| {} | {} | {:.4} | {} |\n",
                f.requirement,
                if f.passed { "✅ pass" } else { "❌ FAIL" },
                f.metric,
                f.evidence
            ));
        }
        if !self.degradation.is_empty() {
            md.push_str("\n## Degradation\n\n");
            for line in &self.degradation {
                md.push_str(&format!("- {line}\n"));
            }
        }
        md
    }
}

/// Audit `table` against `spec`.
pub fn audit(table: &Table, spec: &RequirementSpec) -> rdi_table::Result<AuditReport> {
    let mut findings = Vec::with_capacity(spec.requirements.len());
    for r in &spec.requirements {
        findings.push(check(table, r, spec)?);
    }
    Ok(AuditReport {
        findings,
        degradation: Vec::new(),
    })
}

fn check(table: &Table, r: &Requirement, spec: &RequirementSpec) -> rdi_table::Result<Finding> {
    let finding = match r {
        Requirement::UnderlyingDistributionRepresentation {
            attribute,
            domain,
            reference,
            max_total_variation,
        } => {
            // empirical distribution aligned to the reference domain
            let col = table.column(attribute)?;
            let mut counts = vec![0usize; domain.len()];
            let mut other = 0usize;
            for i in 0..table.num_rows() {
                let v = col.value(i);
                match domain.iter().position(|d| *d == v) {
                    Some(p) => counts[p] += 1,
                    None => other += 1,
                }
            }
            let tv = if counts.iter().sum::<usize>() == 0 {
                1.0
            } else {
                let emp = Categorical::from_counts_smoothed(&counts, 0.5);
                total_variation(&emp, reference)
            };
            Finding {
                requirement: r.name().into(),
                passed: tv <= *max_total_variation && other == 0,
                metric: tv,
                evidence: format!(
                    "TV(empirical, reference) = {tv:.4} on `{attribute}` (cap {max_total_variation}); {other} out-of-domain rows"
                ),
            }
        }
        Requirement::GroupRepresentation {
            threshold,
            max_uncovered_patterns,
        } => {
            let sensitive = table.schema().sensitive();
            if sensitive.is_empty() {
                Finding {
                    requirement: r.name().into(),
                    passed: false,
                    metric: f64::NAN,
                    evidence:
                        "no sensitive attributes annotated — cannot verify group representation"
                            .into(),
                }
            } else {
                let analyzer = CoverageAnalyzer::new(table, &sensitive, *threshold)?;
                let mups = analyzer.maximal_uncovered_patterns();
                let described: Vec<String> =
                    mups.iter().take(5).map(|m| analyzer.describe(m)).collect();
                let passed = mups.len() <= *max_uncovered_patterns;
                let evidence = if mups.is_empty() {
                    format!("all group patterns covered at τ={threshold}")
                } else {
                    // attach an actionable remediation preview
                    match rdi_coverage::remedy_greedy(&analyzer, sensitive.len()) {
                        Ok(plan) => format!(
                            "{} uncovered pattern(s): {} — remediation: collect {} more tuple(s), e.g. {}",
                            mups.len(),
                            described.join("; "),
                            plan.len(),
                            plan.first().map_or("-".to_string(), |row| {
                                sensitive
                                    .iter()
                                    .zip(row)
                                    .map(|(a, v)| format!("{a}={v}"))
                                    .collect::<Vec<_>>()
                                    .join(", ")
                            })
                        ),
                        Err(e) => format!(
                            "{} uncovered pattern(s): {} — remediation unavailable: {e}",
                            mups.len(),
                            described.join("; ")
                        ),
                    }
                };
                Finding {
                    requirement: r.name().into(),
                    passed,
                    metric: mups.len() as f64,
                    evidence,
                }
            }
        }
        Requirement::UnbiasedInformativeFeatures {
            min_target_association,
            max_sensitive_association,
        } => {
            let sensitive = table.schema().sensitive();
            let targets = table.schema().targets();
            let Some(target) = targets.first() else {
                return Ok(Finding {
                    requirement: r.name().into(),
                    passed: false,
                    metric: f64::NAN,
                    evidence: "no target attribute annotated".into(),
                });
            };
            let mut best_target_assoc: f64 = 0.0;
            let mut worst: Option<(String, f64)> = None;
            for f in table.schema().fields() {
                if f.role != Role::Feature {
                    continue;
                }
                best_target_assoc =
                    best_target_assoc.max(table_association(table, &f.name, target)?);
                for s in &sensitive {
                    let a = table_association(table, &f.name, s)?;
                    if worst.as_ref().is_none_or(|(_, w)| a > *w) {
                        worst = Some((f.name.clone(), a));
                    }
                }
            }
            let worst_bias = worst.as_ref().map_or(0.0, |(_, a)| *a);
            let passed = best_target_assoc >= *min_target_association
                && worst_bias < *max_sensitive_association;
            Finding {
                requirement: r.name().into(),
                passed,
                metric: worst_bias,
                evidence: format!(
                    "best feature↔target association {best_target_assoc:.3}; most biased feature {} ({worst_bias:.3}, cap {max_sensitive_association})",
                    worst.map_or("-".into(), |(n, _)| n)
                ),
            }
        }
        Requirement::CompletenessCorrectness {
            max_missing_fraction,
        } => {
            let nf = table.null_fractions();
            let worst = nf
                .iter()
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .cloned()
                .unwrap_or(("-".into(), 0.0));
            Finding {
                requirement: r.name().into(),
                passed: worst.1 <= *max_missing_fraction,
                metric: worst.1,
                evidence: format!(
                    "worst column `{}` is {:.1}% missing (cap {:.1}%)",
                    worst.0,
                    worst.1 * 100.0,
                    max_missing_fraction * 100.0
                ),
            }
        }
        Requirement::ScopeOfUse { min_scope_notes } => Finding {
            requirement: r.name().into(),
            passed: spec.scope_notes.len() >= *min_scope_notes,
            metric: spec.scope_notes.len() as f64,
            evidence: format!(
                "{} scope note(s) attached (need {min_scope_notes})",
                spec.scope_notes.len()
            ),
        },
        Requirement::ContinuousCoverage {
            attributes,
            k,
            radius,
            max_uncovered_fraction,
            probes,
        } => {
            use rand::SeedableRng;
            let cols: Vec<&rdi_table::Column> = attributes
                .iter()
                .map(|a| table.column(a))
                .collect::<rdi_table::Result<_>>()?;
            let mut points = Vec::new();
            for i in 0..table.num_rows() {
                if let Some(p) = cols
                    .iter()
                    .map(|c| c.value(i).as_f64())
                    .collect::<Option<Vec<f64>>>()
                {
                    points.push(p);
                }
            }
            if points.is_empty() {
                Finding {
                    requirement: r.name().into(),
                    passed: false,
                    metric: 1.0,
                    evidence: "no complete numeric points to build coverage over".into(),
                }
            } else {
                let d = attributes.len();
                let mut lo = vec![f64::INFINITY; d];
                let mut hi = vec![f64::NEG_INFINITY; d];
                for p in &points {
                    for j in 0..d {
                        lo[j] = lo[j].min(p[j]);
                        hi[j] = hi[j].max(p[j]);
                    }
                }
                let cov = rdi_coverage::NeighborhoodCoverage::new(points, *k, *radius);
                #[allow(
                    clippy::disallowed_methods,
                    reason = "a fixed seed: an audit is a function of the data alone"
                )]
                let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed);
                let frac = cov.uncovered_fraction(&lo, &hi, (*probes).max(1), &mut rng);
                Finding {
                    requirement: r.name().into(),
                    passed: frac <= *max_uncovered_fraction,
                    metric: frac,
                    evidence: format!(
                        "{:.1}% of the probed box uncovered (k={k}, r={radius}, cap {:.1}%)",
                        frac * 100.0,
                        max_uncovered_fraction * 100.0
                    ),
                }
            }
        }
    };
    Ok(finding)
}

/// Convenience: the empirical group fractions used by distribution checks.
pub fn empirical_fractions(
    table: &Table,
    attribute: &str,
) -> rdi_table::Result<Vec<(String, f64)>> {
    let spec = GroupSpec::new(vec![attribute]);
    Ok(spec
        .fractions(table)?
        .into_iter()
        .map(|(k, f)| (k.to_string(), f))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::requirement::RequirementSpec;
    use rdi_table::{DataType, Field, Schema, Value};

    fn table(minority: usize, missing: usize) -> Table {
        let schema = Schema::new(vec![
            Field::new("g", DataType::Str).with_role(Role::Sensitive),
            Field::new("x", DataType::Float),
            Field::new("y", DataType::Bool).with_role(Role::Target),
        ]);
        let mut t = Table::new(schema);
        for i in 0..100usize {
            // spread `minority` min-rows evenly so features stay independent
            let g = if (i + 1) * minority / 100 > i * minority / 100 {
                "min"
            } else {
                "maj"
            };
            let x = if i < missing {
                Value::Null
            } else {
                Value::Float((i % 7) as f64)
            };
            t.push_row(vec![Value::str(g), x, Value::Bool(i % 3 == 0)])
                .unwrap();
        }
        t
    }

    #[test]
    fn balanced_clean_table_passes_default_spec() {
        let t = table(50, 0);
        let spec = RequirementSpec::default_for(&t).unwrap();
        let report = audit(&t, &spec).unwrap();
        assert!(report.passed(), "failures: {:?}", report.failures());
    }

    #[test]
    fn skewed_table_fails_distribution_requirement() {
        let t = table(2, 0);
        let spec = RequirementSpec::default_for(&t).unwrap();
        let report = audit(&t, &spec).unwrap();
        assert!(!report.passed());
        let failed: Vec<&str> = report
            .failures()
            .iter()
            .map(|f| f.requirement.as_str())
            .collect();
        assert!(failed.contains(&"underlying_distribution_representation"));
    }

    #[test]
    fn missing_group_fails_coverage() {
        let t = table(0, 0); // "min" never appears → single group, covered
                             // force a 2-group domain via explicit requirement on observed data:
                             // instead check a table where min exists but a combo is missing
        let spec = RequirementSpec::default().with(Requirement::GroupRepresentation {
            threshold: 5,
            max_uncovered_patterns: 0,
        });
        let t2 = table(2, 0); // "min" has 2 < 5 rows
        let report = audit(&t2, &spec).unwrap();
        assert!(!report.passed());
        let _ = t;
    }

    #[test]
    fn heavy_missingness_fails_completeness() {
        let t = table(50, 40);
        let spec = RequirementSpec::default().with(Requirement::CompletenessCorrectness {
            max_missing_fraction: 0.2,
        });
        let report = audit(&t, &spec).unwrap();
        assert!(!report.passed());
        assert!((report.findings[0].metric - 0.4).abs() < 1e-12);
    }

    #[test]
    fn scope_of_use_counts_notes() {
        let t = table(50, 0);
        let spec = RequirementSpec::default().with(Requirement::ScopeOfUse { min_scope_notes: 1 });
        assert!(!audit(&t, &spec).unwrap().passed());
        let spec = spec.with_note("collected from 4 hospitals, 2026");
        assert!(audit(&t, &spec).unwrap().passed());
    }

    #[test]
    fn biased_feature_fails_feature_requirement() {
        let schema = Schema::new(vec![
            Field::new("g", DataType::Str).with_role(Role::Sensitive),
            Field::new("proxy", DataType::Float),
            Field::new("y", DataType::Bool).with_role(Role::Target),
        ]);
        let mut t = Table::new(schema);
        for i in 0..100 {
            let g = if i % 2 == 0 { "a" } else { "b" };
            // proxy encodes the group exactly
            let proxy = if i % 2 == 0 { 1.0 } else { 0.0 };
            t.push_row(vec![
                Value::str(g),
                Value::Float(proxy),
                Value::Bool(i % 3 == 0),
            ])
            .unwrap();
        }
        let spec = RequirementSpec::default().with(Requirement::UnbiasedInformativeFeatures {
            min_target_association: 0.0,
            max_sensitive_association: 0.8,
        });
        let report = audit(&t, &spec).unwrap();
        assert!(!report.passed());
        assert!(report.findings[0].evidence.contains("proxy"));
    }

    #[test]
    fn continuous_coverage_detects_holes() {
        // dense cluster near 0 plus a far outlier → big uncovered middle
        let schema = Schema::new(vec![
            Field::new("a", DataType::Float),
            Field::new("b", DataType::Float),
        ]);
        let mut t = Table::new(schema);
        for i in 0..200 {
            let x = (i % 20) as f64 * 0.01;
            t.push_row(vec![Value::Float(x), Value::Float(x)]).unwrap();
        }
        t.push_row(vec![Value::Float(100.0), Value::Float(100.0)])
            .unwrap();
        let spec = RequirementSpec::default().with(Requirement::ContinuousCoverage {
            attributes: vec!["a".into(), "b".into()],
            k: 3,
            radius: 1.0,
            max_uncovered_fraction: 0.2,
            probes: 400,
        });
        let report = audit(&t, &spec).unwrap();
        assert!(!report.passed());
        assert!(report.findings[0].metric > 0.8);

        // the dense cluster alone is fine
        let dense = t.take(&(0..200).collect::<Vec<_>>());
        let report = audit(&dense, &spec).unwrap();
        assert!(report.passed(), "{:?}", report.failures());
    }

    #[test]
    fn continuous_coverage_audit_is_deterministic() {
        let schema = Schema::new(vec![Field::new("a", DataType::Float)]);
        let mut t = Table::new(schema);
        for i in 0..50 {
            t.push_row(vec![Value::Float(i as f64)]).unwrap();
        }
        let spec = RequirementSpec::default().with(Requirement::ContinuousCoverage {
            attributes: vec!["a".into()],
            k: 2,
            radius: 2.0,
            max_uncovered_fraction: 0.1,
            probes: 300,
        });
        let a = audit(&t, &spec).unwrap();
        let b = audit(&t, &spec).unwrap();
        assert_eq!(a.findings[0].metric, b.findings[0].metric);
    }

    #[test]
    fn markdown_rendering() {
        let t = table(50, 0);
        let spec = RequirementSpec::default_for(&t).unwrap();
        let md = audit(&t, &spec).unwrap().to_markdown();
        assert!(md.contains("Responsibility Audit"));
        assert!(md.contains("group_representation"));
    }
}
