//! Coverage-based query relaxation (Accinelli, Catania, Guerrini, Minisi).
//!
//! Instead of bounding *disparity*, coverage-based rewriting minimally
//! **widens** a range predicate until every demographic group has at
//! least `k` rows in the output — rewriting "only relaxes", never drops
//! rows the user asked for.

use rdi_obs::ProvenanceEvent;
use rdi_policy::{Candidate, PolicyId, PolicyParams, RankByScore, Score, SelectionPolicy};
use rdi_table::{GroupKey, GroupSpec, Table};

/// Result of a relaxation.
#[derive(Debug, Clone, PartialEq)]
pub struct Relaxation {
    /// Relaxed lower bound (≤ original lo).
    pub lo: f64,
    /// Relaxed upper bound (≥ original hi).
    pub hi: f64,
    /// Rows added relative to the original output.
    pub added_rows: usize,
    /// Per-group counts in the relaxed output, sorted by key.
    pub group_counts: Vec<(String, usize)>,
    /// Whether every group reached the required count (false only when
    /// the whole data set cannot supply it).
    pub satisfied: bool,
}

/// Minimally widen `[lo, hi]` on `attribute` until every group under
/// `spec` has at least `k` selected rows (or the data is exhausted).
///
/// Greedy two-pointer over the sorted attribute values: at each step the
/// widening (left or right) that adds a row of a *deficient* group closer
/// to the current boundary is taken. Delegates to
/// [`relax_for_coverage_explained`] under the default
/// `fairquery.relax` policy params and discards the audit trail.
pub fn relax_for_coverage(
    table: &Table,
    attribute: &str,
    spec: &GroupSpec,
    lo: f64,
    hi: f64,
    k: usize,
) -> rdi_table::Result<Relaxation> {
    relax_for_coverage_explained(table, attribute, spec, lo, hi, k, &PolicyParams::new())
        .map(|(r, _)| r)
}

/// [`relax_for_coverage`] with the widening choice routed through the
/// `fairquery.relax` selection policy and every step's
/// [`ProvenanceEvent::PolicyDecision`] returned alongside the result.
///
/// Each step scores the two frontier candidates (`left` = `pts[i-1]`,
/// `right` = `pts[j]`) by the tuple *(helps a deficient group, −gap to
/// the boundary)*; under the default params (`dir=max`, `tie=key_asc`)
/// the winner is exactly the historic greedy rule — help beats no-help,
/// then the smaller gap, then `left` on an exact tie.
pub fn relax_for_coverage_explained(
    table: &Table,
    attribute: &str,
    spec: &GroupSpec,
    lo: f64,
    hi: f64,
    k: usize,
    params: &PolicyParams,
) -> rdi_table::Result<(Relaxation, Vec<ProvenanceEvent>)> {
    let col = table.column(attribute)?;
    let mut pts: Vec<(f64, GroupKey)> = Vec::new();
    for i in 0..table.num_rows() {
        if let Some(x) = col.value(i).as_f64() {
            pts.push((x, spec.key_of(table, i)?));
        }
    }
    pts.sort_by(|a, b| a.0.total_cmp(&b.0));
    let keys = spec.keys(table)?;

    let mut i = pts.partition_point(|(x, _)| *x < lo);
    let mut j = pts.partition_point(|(x, _)| *x <= hi);
    let original = j - i;
    let mut counts: std::collections::BTreeMap<GroupKey, usize> =
        keys.iter().map(|k| (k.clone(), 0)).collect();
    for (_, g) in &pts[i..j] {
        *counts.entry(g.clone()).or_insert(0) += 1;
    }

    let deficient = |counts: &std::collections::BTreeMap<GroupKey, usize>| {
        keys.iter().any(|g| counts.get(g).copied().unwrap_or(0) < k)
    };

    let policy = RankByScore::new(PolicyId::FAIRQUERY_RELAX);
    let mut events = Vec::new();
    while deficient(&counts) {
        // candidate expansions: take pts[i-1] (left) or pts[j] (right);
        // prefer the one that helps a deficient group; tie → smaller gap.
        let left = i.checked_sub(1).map(|p| &pts[p]);
        let right = pts.get(j);
        let helps = |p: &(f64, GroupKey)| counts.get(&p.1).copied().unwrap_or(0) < k;
        let step = |p: &(f64, GroupKey), gap: f64| {
            Score::Tuple(vec![Score::U64(u64::from(helps(p))), Score::F64(-gap)])
        };
        let mut candidates = Vec::new();
        if let Some(l) = left {
            candidates.push(Candidate::new("left", step(l, (lo - l.0).abs())));
        }
        if let Some(r) = right {
            candidates.push(Candidate::new("right", step(r, (r.0 - hi).abs())));
        }
        if candidates.is_empty() {
            break; // data exhausted
        }
        let (event, ranking) = policy.choose(&candidates, params).record();
        events.push(event);
        if ranking
            .first()
            .is_some_and(|&w| &*candidates[w].key == "left")
        {
            i -= 1;
            *counts.entry(pts[i].1.clone()).or_insert(0) += 1;
        } else {
            *counts.entry(pts[j].1.clone()).or_insert(0) += 1;
            j += 1;
        }
    }

    let satisfied = !deficient(&counts);
    let (new_lo, new_hi) = if i < j {
        (pts[i].0.min(lo), pts[j - 1].0.max(hi))
    } else {
        (lo, hi)
    };
    let mut group_counts: Vec<(String, usize)> = keys
        .iter()
        .map(|g| (g.to_string(), counts.get(g).copied().unwrap_or(0)))
        .collect();
    group_counts.sort();
    Ok((
        Relaxation {
            lo: new_lo,
            hi: new_hi,
            added_rows: (j - i).saturating_sub(original),
            group_counts,
            satisfied,
        },
        events,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdi_table::{DataType, Field, Role, Schema, Value};

    fn t(rows: &[(f64, &str)]) -> Table {
        let schema = Schema::new(vec![
            Field::new("x", DataType::Float),
            Field::new("g", DataType::Str).with_role(Role::Sensitive),
        ]);
        let mut t = Table::new(schema);
        for (x, g) in rows {
            t.push_row(vec![Value::Float(*x), Value::str(*g)]).unwrap();
        }
        t
    }

    #[test]
    fn no_relaxation_needed_when_covered() {
        let table = t(&[(1.0, "a"), (2.0, "b"), (3.0, "a"), (4.0, "b")]);
        let spec = GroupSpec::new(vec!["g"]);
        let r = relax_for_coverage(&table, "x", &spec, 1.0, 4.0, 1).unwrap();
        assert!(r.satisfied);
        assert_eq!(r.added_rows, 0);
        assert_eq!(r.lo, 1.0);
        assert_eq!(r.hi, 4.0);
    }

    #[test]
    fn widens_toward_missing_group() {
        // group b only exists above 10
        let table = t(&[(1.0, "a"), (2.0, "a"), (3.0, "a"), (11.0, "b"), (12.0, "b")]);
        let spec = GroupSpec::new(vec!["g"]);
        let r = relax_for_coverage(&table, "x", &spec, 0.0, 5.0, 2).unwrap();
        assert!(r.satisfied);
        assert_eq!(r.hi, 12.0);
        assert_eq!(r.lo, 0.0);
        assert_eq!(r.added_rows, 2);
        let b = r
            .group_counts
            .iter()
            .find(|(g, _)| g.contains('b'))
            .unwrap();
        assert_eq!(b.1, 2);
    }

    #[test]
    fn reports_unsatisfiable() {
        let table = t(&[(1.0, "a"), (2.0, "a")]);
        let spec = GroupSpec::new(vec!["g"]);
        // only one group exists with 2 rows; k=3 impossible
        let r = relax_for_coverage(&table, "x", &spec, 1.0, 2.0, 3).unwrap();
        assert!(!r.satisfied);
    }

    #[test]
    fn relaxation_never_shrinks() {
        let table = t(&[(0.0, "a"), (5.0, "b"), (10.0, "a"), (15.0, "b")]);
        let spec = GroupSpec::new(vec!["g"]);
        let r = relax_for_coverage(&table, "x", &spec, 4.0, 6.0, 2).unwrap();
        assert!(r.lo <= 4.0);
        assert!(r.hi >= 6.0);
        assert!(r.satisfied);
    }

    #[test]
    fn explained_audits_every_widening_step() {
        let table = t(&[(1.0, "a"), (2.0, "a"), (3.0, "a"), (11.0, "b"), (12.0, "b")]);
        let spec = GroupSpec::new(vec!["g"]);
        let (r, events) =
            relax_for_coverage_explained(&table, "x", &spec, 0.0, 5.0, 2, &PolicyParams::new())
                .unwrap();
        assert!(r.satisfied);
        // two rows of `b` pulled in from the right, one decision each
        assert_eq!(events.len(), 2);
        assert!(events.iter().all(|e| matches!(
            e,
            ProvenanceEvent::PolicyDecision { policy, .. } if *policy == "fairquery.relax"
        )));
    }

    #[test]
    fn relax_params_override_flips_the_first_widening() {
        // left frontier (1.0, gap 1) and right frontier (7.0, gap 3)
        // both help a deficient group: the default picks the closer
        // (left); `dir=min` inverts the ranking and widens right first.
        let table = t(&[(1.0, "a"), (7.0, "b")]);
        let spec = GroupSpec::new(vec!["g"]);
        let defaults =
            relax_for_coverage_explained(&table, "x", &spec, 2.0, 4.0, 1, &PolicyParams::new())
                .unwrap();
        let flipped = relax_for_coverage_explained(
            &table,
            "x",
            &spec,
            2.0,
            4.0,
            1,
            &PolicyParams::new().with("dir", "min"),
        )
        .unwrap();
        let first = |events: &[ProvenanceEvent]| match &events[0] {
            ProvenanceEvent::PolicyDecision { winner, .. } => winner.as_deref().map(String::from),
            _ => None,
        };
        assert_eq!(first(&defaults.1), Some("left".to_string()));
        assert_eq!(first(&flipped.1), Some("right".to_string()));
        // both routes exhaust the same frontier here, so the final
        // relaxation agrees; only the audited order differs
        assert_eq!(defaults.0, flipped.0);
    }

    #[test]
    fn works_with_three_groups() {
        let table = t(&[
            (1.0, "a"),
            (2.0, "b"),
            (3.0, "c"),
            (4.0, "a"),
            (5.0, "b"),
            (6.0, "c"),
        ]);
        let spec = GroupSpec::new(vec!["g"]);
        let r = relax_for_coverage(&table, "x", &spec, 1.0, 2.0, 1).unwrap();
        assert!(r.satisfied);
        assert!(r.hi >= 3.0);
    }
}
