//! The DT query: groups and count requirements.

use rdi_table::{GroupKey, GroupSpec, TableError, Value};
use serde::Serialize;

/// A per-group count requirement.
///
/// The original DT problem uses exact minimums (`lo = hi = ∞` semantics:
/// collect until `lo`, never discard). The tutorial's §5 extension allows
/// *ranges*: a group is satisfied at `lo` and samples are discarded once
/// `hi` is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct CountRequirement {
    /// Minimum count required for satisfaction.
    pub lo: usize,
    /// Maximum count kept; further samples of the group are discarded.
    /// `usize::MAX` means "keep everything".
    pub hi: usize,
}

impl CountRequirement {
    /// Exactly-`n` requirement (`lo = n`, unbounded keep).
    pub fn at_least(n: usize) -> Self {
        CountRequirement {
            lo: n,
            hi: usize::MAX,
        }
    }

    /// Range requirement `lo..=hi`.
    pub fn range(lo: usize, hi: usize) -> Self {
        assert!(lo <= hi, "lo must be ≤ hi");
        CountRequirement { lo, hi }
    }
}

/// A distribution-tailoring problem instance.
#[derive(Debug, Clone)]
pub struct DtProblem {
    /// How rows map to groups.
    pub spec: GroupSpec,
    /// Target groups, in index order (group `g` in the algorithms is an
    /// index into this vector).
    pub groups: Vec<GroupKey>,
    /// Requirement per group, parallel to `groups`.
    pub requirements: Vec<CountRequirement>,
}

impl DtProblem {
    /// Build a problem with `at_least` requirements.
    pub fn exact_counts(spec: GroupSpec, counts: Vec<(GroupKey, usize)>) -> Self {
        let (groups, requirements) = counts
            .into_iter()
            .map(|(k, n)| (k, CountRequirement::at_least(n)))
            .unzip();
        DtProblem {
            spec,
            groups,
            requirements,
        }
    }

    /// Build a problem with range requirements.
    pub fn ranged(spec: GroupSpec, counts: Vec<(GroupKey, CountRequirement)>) -> Self {
        let (groups, requirements) = counts.into_iter().unzip();
        DtProblem {
            spec,
            groups,
            requirements,
        }
    }

    /// Equal-representation problem: `n` of every distinct value of a
    /// single sensitive attribute.
    pub fn equal_over_values(attribute: &str, values: &[&str], n: usize) -> Self {
        let spec = GroupSpec::new(vec![attribute]);
        let counts = values
            .iter()
            .map(|v| (GroupKey(vec![Value::str(*v)]), n))
            .collect();
        DtProblem::exact_counts(spec, counts)
    }

    /// Number of target groups.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Validate the instance (non-empty, consistent ranges).
    pub fn validate(&self) -> rdi_table::Result<()> {
        if self.groups.is_empty() {
            return Err(TableError::SchemaMismatch(
                "DT problem needs at least one group".into(),
            ));
        }
        if self.groups.len() != self.requirements.len() {
            return Err(TableError::SchemaMismatch(
                "groups and requirements must be parallel".into(),
            ));
        }
        for r in &self.requirements {
            if r.lo > r.hi {
                return Err(TableError::SchemaMismatch("requirement lo > hi".into()));
            }
        }
        Ok(())
    }

    /// Total minimum samples required (Σ lo).
    pub fn total_required(&self) -> usize {
        self.requirements.iter().map(|r| r.lo).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_counts_builder() {
        let p = DtProblem::equal_over_values("race", &["w", "b"], 10);
        assert_eq!(p.num_groups(), 2);
        assert_eq!(p.total_required(), 20);
        assert!(p.validate().is_ok());
        assert_eq!(p.groups[1], GroupKey(vec![Value::str("b")]));
    }

    #[test]
    fn range_requirement_construction() {
        let r = CountRequirement::range(5, 8);
        assert_eq!(r.lo, 5);
        assert_eq!(r.hi, 8);
        let a = CountRequirement::at_least(3);
        assert_eq!(a.hi, usize::MAX);
    }

    #[test]
    #[should_panic(expected = "lo must be")]
    fn invalid_range_panics() {
        CountRequirement::range(5, 2);
    }

    #[test]
    fn validate_rejects_empty() {
        let p = DtProblem::exact_counts(GroupSpec::new(vec!["g"]), vec![]);
        assert!(p.validate().is_err());
    }
}
