//! The five next-generation requirements (tutorial §2) as typed specs.

use rdi_fairness::Categorical;
use rdi_table::{Table, Value};

/// One parameterized requirement on a dataset.
#[derive(Debug, Clone)]
pub enum Requirement {
    /// §2.1 — the data's distribution over a sensitive attribute must be
    /// within `max_total_variation` of a reference (population)
    /// distribution.
    UnderlyingDistributionRepresentation {
        /// Attribute whose marginal is compared.
        attribute: String,
        /// Reference domain values (sorted), parallel to the reference
        /// distribution.
        domain: Vec<Value>,
        /// The reference distribution.
        reference: Categorical,
        /// Maximum allowed total variation distance.
        max_total_variation: f64,
    },
    /// §2.2 — every intersectional group of the sensitive attributes must
    /// have at least `threshold` rows (no maximal uncovered patterns).
    GroupRepresentation {
        /// Coverage threshold τ.
        threshold: usize,
        /// How many MUPs are tolerated (usually 0).
        max_uncovered_patterns: usize,
    },
    /// §2.3 — features must be informative (at least one feature with
    /// association ≥ `min_target_association` with the target) and
    /// unbiased (no feature with association ≥ `max_sensitive_association`
    /// with a sensitive attribute).
    UnbiasedInformativeFeatures {
        /// Required association with the target for at least one feature.
        min_target_association: f64,
        /// Bias cap against sensitive attributes for every feature.
        max_sensitive_association: f64,
    },
    /// §2.4 — per-column missingness must not exceed
    /// `max_missing_fraction`.
    CompletenessCorrectness {
        /// Cap on each column's null fraction.
        max_missing_fraction: f64,
    },
    /// §2.5 — the dataset must ship with scope-of-use metadata: at least
    /// `min_scope_notes` notes must be attached at audit time.
    ScopeOfUse {
        /// Minimum number of scope notes.
        min_scope_notes: usize,
    },
    /// §2.2 (continuous attributes, Asudeh et al. SIGMOD 2021) — a
    /// Monte-Carlo probe of the attributes' bounding box must find at
    /// most `max_uncovered_fraction` of query points uncovered, where a
    /// point is covered when ≥ `k` rows lie within Euclidean distance
    /// `radius`.
    ContinuousCoverage {
        /// Numeric attributes spanning the query space.
        attributes: Vec<String>,
        /// Neighbors required for coverage.
        k: usize,
        /// Neighborhood radius.
        radius: f64,
        /// Cap on the uncovered fraction of the probed box.
        max_uncovered_fraction: f64,
        /// Monte-Carlo probe count (seeded internally for determinism).
        probes: usize,
    },
}

impl Requirement {
    /// Short stable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Requirement::UnderlyingDistributionRepresentation { .. } => {
                "underlying_distribution_representation"
            }
            Requirement::GroupRepresentation { .. } => "group_representation",
            Requirement::UnbiasedInformativeFeatures { .. } => "unbiased_informative_features",
            Requirement::CompletenessCorrectness { .. } => "completeness_correctness",
            Requirement::ScopeOfUse { .. } => "scope_of_use",
            Requirement::ContinuousCoverage { .. } => "continuous_coverage",
        }
    }
}

/// A full dataset specification: the requirements plus the scope notes
/// that travel with the data (§2.5).
#[derive(Debug, Clone, Default)]
pub struct RequirementSpec {
    /// The requirements to audit.
    pub requirements: Vec<Requirement>,
    /// Scope-of-use notes attached to the dataset.
    pub scope_notes: Vec<String>,
}

impl RequirementSpec {
    /// A reasonable default specification derived from the table itself:
    /// uniform reference over the first sensitive attribute (TV ≤ 0.25),
    /// coverage τ = 1, feature bias cap 0.8, missingness cap 20%, and no
    /// scope-note requirement.
    pub fn default_for(table: &Table) -> rdi_table::Result<Self> {
        let mut requirements = vec![
            Requirement::GroupRepresentation {
                threshold: 1,
                max_uncovered_patterns: 0,
            },
            Requirement::CompletenessCorrectness {
                max_missing_fraction: 0.2,
            },
        ];
        if let Some(attr) = table.schema().sensitive().first() {
            let domain = table.distinct(attr)?;
            if !domain.is_empty() {
                requirements.push(Requirement::UnderlyingDistributionRepresentation {
                    attribute: attr.to_string(),
                    reference: Categorical::uniform(domain.len()),
                    domain,
                    max_total_variation: 0.25,
                });
            }
        }
        if !table.schema().targets().is_empty() {
            requirements.push(Requirement::UnbiasedInformativeFeatures {
                min_target_association: 0.0,
                max_sensitive_association: 0.8,
            });
        }
        Ok(RequirementSpec {
            requirements,
            scope_notes: Vec::new(),
        })
    }

    /// Builder: add a requirement.
    pub fn with(mut self, r: Requirement) -> Self {
        self.requirements.push(r);
        self
    }

    /// Builder: attach a scope note.
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.scope_notes.push(note.into());
        self
    }
}

/// Serializable summary of a requirement (for reports).
#[derive(Debug, Clone)]
pub struct RequirementSummary {
    /// Requirement name.
    pub name: String,
    /// Human-readable parameterization.
    pub params: String,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdi_table::{DataType, Field, Role, Schema};

    fn t() -> Table {
        let schema = Schema::new(vec![
            Field::new("g", DataType::Str).with_role(Role::Sensitive),
            Field::new("y", DataType::Bool).with_role(Role::Target),
        ]);
        let mut t = Table::new(schema);
        t.push_row(vec![Value::str("a"), Value::Bool(true)])
            .unwrap();
        t.push_row(vec![Value::str("b"), Value::Bool(false)])
            .unwrap();
        t
    }

    #[test]
    fn default_spec_covers_all_requirement_kinds() {
        let spec = RequirementSpec::default_for(&t()).unwrap();
        let names: Vec<&str> = spec.requirements.iter().map(|r| r.name()).collect();
        assert!(names.contains(&"group_representation"));
        assert!(names.contains(&"completeness_correctness"));
        assert!(names.contains(&"underlying_distribution_representation"));
        assert!(names.contains(&"unbiased_informative_features"));
    }

    #[test]
    fn builder_appends() {
        let spec = RequirementSpec::default()
            .with(Requirement::ScopeOfUse { min_scope_notes: 1 })
            .with_note("collected for testing");
        assert_eq!(spec.requirements.len(), 1);
        assert_eq!(spec.scope_notes.len(), 1);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(
            Requirement::CompletenessCorrectness {
                max_missing_fraction: 0.1
            }
            .name(),
            "completeness_correctness"
        );
    }
}
