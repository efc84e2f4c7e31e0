//! One-antecedent association rules (`X=a → Y=b`) — MithraLabel's
//! "association rules to capture bias" widget.
//!
//! A high-lift rule from a sensitive attribute to the target (e.g.
//! `race=black → approved=false`, lift 1.8) is a direct, human-readable
//! bias signal. We mine only single-antecedent rules: they are the ones a
//! label can display, and they avoid the combinatorial blowup of full
//! Apriori.

use std::collections::HashMap;

use rdi_table::{Table, Value};

/// A mined rule `lhs_attr = lhs_value → rhs_attr = rhs_value`.
#[derive(Debug, Clone, PartialEq)]
pub struct AssociationRule {
    /// Antecedent attribute.
    pub lhs_attr: String,
    /// Antecedent value (rendered).
    pub lhs_value: String,
    /// Consequent attribute.
    pub rhs_attr: String,
    /// Consequent value (rendered).
    pub rhs_value: String,
    /// Fraction of all rows matching both sides.
    pub support: f64,
    /// P(rhs | lhs).
    pub confidence: f64,
    /// confidence / P(rhs) — 1.0 means independence.
    pub lift: f64,
}

impl AssociationRule {
    /// Render as `attr=v → attr=v (conf 0.81, lift 1.62)`.
    pub fn render(&self) -> String {
        format!(
            "{}={} → {}={} (support {:.2}, conf {:.2}, lift {:.2})",
            self.lhs_attr,
            self.lhs_value,
            self.rhs_attr,
            self.rhs_value,
            self.support,
            self.confidence,
            self.lift
        )
    }
}

/// Mine single-antecedent rules from `lhs_attrs` to `rhs_attrs`, keeping
/// those with at least `min_support`, `min_confidence`, and `min_lift`.
/// Sorted by lift descending. Null cells never participate in rules.
pub fn mine_rules(
    table: &Table,
    lhs_attrs: &[&str],
    rhs_attrs: &[&str],
    min_support: f64,
    min_confidence: f64,
    min_lift: f64,
) -> rdi_table::Result<Vec<AssociationRule>> {
    let n = table.num_rows();
    if n == 0 {
        return Ok(Vec::new());
    }
    let nf = n as f64;
    let mut rules = Vec::new();
    for la in lhs_attrs {
        let lcol = table.column(la)?;
        for ra in rhs_attrs {
            if la == ra {
                continue;
            }
            let rcol = table.column(ra)?;
            // joint and marginal counts
            let mut joint: HashMap<(Value, Value), usize> = HashMap::new();
            let mut lcount: HashMap<Value, usize> = HashMap::new();
            let mut rcount: HashMap<Value, usize> = HashMap::new();
            for i in 0..n {
                let lv = lcol.value(i);
                let rv = rcol.value(i);
                if lv.is_null() || rv.is_null() {
                    continue;
                }
                *lcount.entry(lv.clone()).or_insert(0) += 1;
                *rcount.entry(rv.clone()).or_insert(0) += 1;
                *joint.entry((lv, rv)).or_insert(0) += 1;
            }
            for ((lv, rv), &c) in &joint {
                let support = c as f64 / nf;
                if support < min_support {
                    continue;
                }
                let confidence = c as f64 / lcount[lv] as f64;
                if confidence < min_confidence {
                    continue;
                }
                let p_rhs = rcount[rv] as f64 / nf;
                let lift = if p_rhs > 0.0 { confidence / p_rhs } else { 0.0 };
                if lift < min_lift {
                    continue;
                }
                rules.push(AssociationRule {
                    lhs_attr: la.to_string(),
                    lhs_value: lv.to_string(),
                    rhs_attr: ra.to_string(),
                    rhs_value: rv.to_string(),
                    support,
                    confidence,
                    lift,
                });
            }
        }
    }
    rules.sort_by(|a, b| {
        b.lift
            .total_cmp(&a.lift)
            .then(b.support.total_cmp(&a.support))
            .then(a.lhs_value.cmp(&b.lhs_value))
            .then(a.rhs_value.cmp(&b.rhs_value))
    });
    Ok(rules)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdi_table::{DataType, Field, Schema};

    /// race strongly predicts outcome; gender is independent of it.
    fn biased_table() -> Table {
        let schema = Schema::new(vec![
            Field::new("race", DataType::Str),
            Field::new("gender", DataType::Str),
            Field::new("outcome", DataType::Str),
        ]);
        let mut t = Table::new(schema);
        for i in 0..200 {
            let race = if i % 2 == 0 { "w" } else { "b" };
            let gender = if (i / 2) % 2 == 0 { "M" } else { "F" };
            // w → approve 90%, b → approve 30%
            let approve = if race == "w" { i % 10 != 0 } else { i % 10 < 3 };
            t.push_row(vec![
                Value::str(race),
                Value::str(gender),
                Value::str(if approve { "yes" } else { "no" }),
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn finds_high_lift_bias_rule() {
        let t = biased_table();
        let rules = mine_rules(&t, &["race", "gender"], &["outcome"], 0.05, 0.5, 1.1).unwrap();
        assert!(!rules.is_empty());
        // top rule: b → no (P(no)=0.4, conf=0.7, lift 1.75)
        let top = &rules[0];
        assert_eq!(top.lhs_attr, "race");
        assert_eq!(top.lhs_value, "b");
        assert_eq!(top.rhs_value, "no");
        assert!(top.lift > 1.5, "lift={}", top.lift);
        // no gender rule survives the lift filter
        assert!(rules.iter().all(|r| r.lhs_attr != "gender"));
    }

    #[test]
    fn thresholds_filter() {
        let t = biased_table();
        let none = mine_rules(&t, &["race"], &["outcome"], 0.9, 0.5, 1.0).unwrap();
        assert!(none.is_empty(), "support 0.9 should kill all rules");
        let all = mine_rules(&t, &["race"], &["outcome"], 0.0, 0.0, 0.0).unwrap();
        assert_eq!(all.len(), 4); // w/b × yes/no
    }

    #[test]
    fn independence_has_lift_one() {
        let t = biased_table();
        let rules = mine_rules(&t, &["gender"], &["outcome"], 0.0, 0.0, 0.0).unwrap();
        for r in rules {
            assert!((r.lift - 1.0).abs() < 0.15, "{}", r.render());
        }
    }

    #[test]
    fn nulls_are_skipped_and_empty_table_ok() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Str),
            Field::new("b", DataType::Str),
        ]);
        let mut t = Table::new(schema.clone());
        t.push_row(vec![Value::Null, Value::str("x")]).unwrap();
        let rules = mine_rules(&t, &["a"], &["b"], 0.0, 0.0, 0.0).unwrap();
        assert!(rules.is_empty());
        let empty = Table::new(schema);
        assert!(mine_rules(&empty, &["a"], &["b"], 0.0, 0.0, 0.0)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn render_is_readable() {
        let r = AssociationRule {
            lhs_attr: "race".into(),
            lhs_value: "b".into(),
            rhs_attr: "outcome".into(),
            rhs_value: "no".into(),
            support: 0.35,
            confidence: 0.7,
            lift: 1.75,
        };
        assert_eq!(
            r.render(),
            "race=b → outcome=no (support 0.35, conf 0.70, lift 1.75)"
        );
    }
}
