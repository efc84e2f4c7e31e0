//! Interventional (causal) repair for algorithmic fairness — a
//! deliberately simplified take on "Interventional Fairness: Causal
//! Database Repair" (Salimi, Rodriguez, Howe, Suciu; SIGMOD 2019),
//! surveyed in tutorial §5: *"removing bias from data can be viewed as a
//! special case of data cleaning where the goal is to repair problematic
//! tuples or values that cause bias."*
//!
//! The paper's criterion — justifiable fairness — requires the target to
//! be conditionally independent of the sensitive attribute given the
//! *admissible* attributes (the legitimate causes). The minimal repair we
//! implement: within each stratum of the admissible attributes, the
//! target values of all groups are pooled and re-drawn, erasing exactly
//! the within-stratum dependence on the sensitive attribute while
//! preserving each stratum's overall target distribution (so admissible
//! effects survive).

use rand::Rng;
use rdi_table::{GroupSpec, Table, TableError, Value};

/// Report of a conditional-independence repair.
#[derive(Debug, Clone)]
pub struct RepairReport {
    /// The repaired table.
    pub table: Table,
    /// Rows whose target value changed.
    pub changed_rows: usize,
    /// Number of admissible strata processed.
    pub strata: usize,
}

/// Repair `target` so it is (empirically) conditionally independent of
/// the sensitive attributes given `admissible`, by within-stratum pooled
/// resampling.
///
/// Rows with a null target keep it; a stratum is the exact combination of
/// (non-null) admissible values. Strata are walked in key order, so the
/// repair is a function of the table and the RNG's seed.
pub fn repair_conditional_independence<R: Rng>(
    table: &Table,
    admissible: &[&str],
    target: &str,
    rng: &mut R,
) -> rdi_table::Result<RepairReport> {
    if admissible.is_empty() {
        return Err(TableError::SchemaMismatch(
            "interventional repair needs at least one admissible attribute".into(),
        ));
    }
    let strata_spec = GroupSpec::new(admissible.to_vec());
    let strata = strata_spec.partition(table)?;
    let tcol_idx = table.schema().index_of(target)?;
    let mut out = table.clone();
    let mut changed = 0;
    for rows in strata.values() {
        // pooled target values of the stratum
        let pool: Vec<Value> = rows
            .iter()
            .map(|&i| table.column_at(tcol_idx).value(i))
            .filter(|v| !v.is_null())
            .collect();
        if pool.is_empty() {
            continue;
        }
        for &i in rows {
            let old = table.column_at(tcol_idx).value(i);
            if old.is_null() {
                continue;
            }
            let new = pool[rng.gen_range(0..pool.len())].clone();
            if new != old {
                changed += 1;
            }
            out.set_value(i, target, new)?;
        }
    }
    Ok(RepairReport {
        table: out,
        changed_rows: changed,
        strata: strata.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rdi_fairness::cramers_v;
    use rdi_table::{DataType, Field, Role, Schema};

    /// Outcome depends on BOTH qualification (admissible) and group
    /// (discriminatory): within each qualification level, group a is
    /// approved far more often.
    fn biased(n: usize) -> Table {
        let schema = Schema::new(vec![
            Field::new("group", DataType::Str).with_role(Role::Sensitive),
            Field::new("qualification", DataType::Str),
            Field::new("approved", DataType::Bool).with_role(Role::Target),
        ]);
        let mut t = Table::new(schema);
        for i in 0..n {
            let g = if i % 2 == 0 { "a" } else { "b" };
            let q = if (i / 2) % 2 == 0 { "high" } else { "low" };
            let base = if q == "high" { 7 } else { 3 };
            let bonus = if g == "a" { 3 } else { -3 };
            let approved = (i % 10) < (base + bonus).clamp(0, 10) as usize;
            t.push_row(vec![Value::str(g), Value::str(q), Value::Bool(approved)])
                .unwrap();
        }
        t
    }

    fn group_target_association(t: &Table) -> f64 {
        let gs: Vec<String> = (0..t.num_rows())
            .map(|i| t.value(i, "group").unwrap().to_string())
            .collect();
        let ys: Vec<String> = (0..t.num_rows())
            .map(|i| t.value(i, "approved").unwrap().to_string())
            .collect();
        cramers_v(&gs, &ys)
    }

    #[test]
    fn repair_removes_within_stratum_dependence() {
        let t = biased(4000);
        let before = group_target_association(&t);
        assert!(before > 0.3, "before={before}");
        let mut rng = StdRng::seed_from_u64(1);
        let rep =
            repair_conditional_independence(&t, &["qualification"], "approved", &mut rng).unwrap();
        assert_eq!(rep.strata, 2);
        assert!(rep.changed_rows > 0);
        let after = group_target_association(&rep.table);
        assert!(after < 0.08, "after={after}");
    }

    #[test]
    fn admissible_effect_survives() {
        let t = biased(4000);
        let mut rng = StdRng::seed_from_u64(2);
        let rep =
            repair_conditional_independence(&t, &["qualification"], "approved", &mut rng).unwrap();
        // approval must still depend on qualification
        let approval_rate = |t: &Table, q: &str| {
            let mut yes = 0;
            let mut n = 0;
            for i in 0..t.num_rows() {
                if t.value(i, "qualification").unwrap() == Value::str(q) {
                    n += 1;
                    yes += t.value(i, "approved").unwrap().as_bool().unwrap() as usize;
                }
            }
            yes as f64 / n as f64
        };
        let high = approval_rate(&rep.table, "high");
        let low = approval_rate(&rep.table, "low");
        assert!(high > low + 0.2, "high={high} low={low}");
        // and each stratum's overall approval rate is (nearly) preserved
        let orig_high = approval_rate(&t, "high");
        assert!((high - orig_high).abs() < 0.05);
    }

    /// Four strata, one seed, several runs: every run repairs the same
    /// rows to the same values. (Walking the strata in hash-map order
    /// fed the per-row draws in a different order on each run.)
    #[test]
    fn repair_is_a_function_of_the_seed() {
        let schema = Schema::new(vec![
            Field::new("group", DataType::Str).with_role(Role::Sensitive),
            Field::new("level", DataType::Int),
            Field::new("score", DataType::Int),
        ]);
        let mut t = Table::new(schema);
        for i in 0..400i64 {
            let g = if i % 3 == 0 { "a" } else { "b" };
            t.push_row(vec![Value::str(g), Value::Int(i % 4), Value::Int(i % 7)])
                .unwrap();
        }
        let run = || {
            let mut rng = StdRng::seed_from_u64(11);
            let rep = repair_conditional_independence(&t, &["level"], "score", &mut rng).unwrap();
            let scores: Vec<Value> = (0..rep.table.num_rows())
                .map(|i| rep.table.value(i, "score").unwrap())
                .collect();
            (rep.strata, rep.changed_rows, scores)
        };
        let first = run();
        assert_eq!(first.0, 4);
        assert!(first.1 > 0);
        for _ in 0..5 {
            assert_eq!(run(), first);
        }
    }

    #[test]
    fn null_targets_untouched_and_errors() {
        let schema = Schema::new(vec![
            Field::new("q", DataType::Str),
            Field::new("y", DataType::Bool),
        ]);
        let mut t = Table::new(schema);
        t.push_row(vec![Value::str("h"), Value::Null]).unwrap();
        t.push_row(vec![Value::str("h"), Value::Bool(true)])
            .unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let rep = repair_conditional_independence(&t, &["q"], "y", &mut rng).unwrap();
        assert!(rep.table.value(0, "y").unwrap().is_null());
        assert!(repair_conditional_independence(&t, &[], "y", &mut rng).is_err());
    }
}
