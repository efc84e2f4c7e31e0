//! Problematic-slice discovery (the "identifying problematic slices"
//! half of Tae & Whang's selective acquisition, §3.1).
//!
//! Given a model's per-row correctness on a validation table, enumerate
//! all 1- and 2-attribute categorical slices, score each by how much
//! worse the model does inside the slice than overall (weighted by slice
//! size so tiny noisy slices don't dominate), and return the worst
//! offenders — the slices Slice Tuner should buy data for.

use std::collections::HashMap;

use rdi_table::{Table, Value};
use serde::Serialize;

/// One scored slice.
#[derive(Debug, Clone, Serialize)]
pub struct Slice {
    /// `(attribute, value)` conjuncts defining the slice (1 or 2).
    pub conjuncts: Vec<(String, String)>,
    /// Rows in the slice.
    pub size: usize,
    /// Model error rate inside the slice.
    pub error_rate: f64,
    /// Overall error rate, for reference.
    pub overall_error: f64,
    /// Score: `(error_rate − overall_error) · √size` — effect size scaled
    /// by statistical weight.
    pub score: f64,
}

impl Slice {
    /// Render as `attr=v ∧ attr=v`.
    pub fn render(&self) -> String {
        self.conjuncts
            .iter()
            .map(|(a, v)| format!("{a}={v}"))
            .collect::<Vec<_>>()
            .join(" ∧ ")
    }
}

/// Find the `top_k` worst slices over the given categorical attributes.
///
/// `correct[i]` says whether the model classified row `i` correctly.
/// Slices smaller than `min_size` are skipped (their error estimates are
/// noise).
pub fn find_problem_slices(
    table: &Table,
    attributes: &[&str],
    correct: &[bool],
    min_size: usize,
    top_k: usize,
) -> rdi_table::Result<Vec<Slice>> {
    assert_eq!(
        table.num_rows(),
        correct.len(),
        "correctness vector must align with the table"
    );
    let n = table.num_rows();
    if n == 0 {
        return Ok(Vec::new());
    }
    let overall_error = correct.iter().filter(|&&c| !c).count() as f64 / n as f64;

    // per-row attribute values (rendered), skipping nulls
    let cols: Vec<&rdi_table::Column> = attributes
        .iter()
        .map(|a| table.column(a))
        .collect::<rdi_table::Result<_>>()?;
    let value_of = |attr_idx: usize, row: usize| -> Option<String> {
        let v: Value = cols[attr_idx].value(row);
        if v.is_null() {
            None
        } else {
            Some(v.to_string())
        }
    };

    // accumulate (size, errors) per slice key
    let mut acc: HashMap<Vec<(usize, String)>, (usize, usize)> = HashMap::new();
    for (i, &c) in correct.iter().enumerate().take(n) {
        let err = !c as usize;
        // 1-attribute slices
        for a in 0..attributes.len() {
            if let Some(v) = value_of(a, i) {
                let e = acc.entry(vec![(a, v)]).or_insert((0, 0));
                e.0 += 1;
                e.1 += err;
            }
        }
        // 2-attribute slices
        for a in 0..attributes.len() {
            for b in a + 1..attributes.len() {
                if let (Some(va), Some(vb)) = (value_of(a, i), value_of(b, i)) {
                    let e = acc.entry(vec![(a, va), (b, vb)]).or_insert((0, 0));
                    e.0 += 1;
                    e.1 += err;
                }
            }
        }
    }

    let mut slices: Vec<Slice> = acc
        .into_iter()
        .filter(|(_, (size, _))| *size >= min_size)
        .map(|(key, (size, errors))| {
            let error_rate = errors as f64 / size as f64;
            Slice {
                conjuncts: key
                    .into_iter()
                    .map(|(a, v)| (attributes[a].to_string(), v))
                    .collect(),
                size,
                error_rate,
                overall_error,
                score: (error_rate - overall_error) * (size as f64).sqrt(),
            }
        })
        .collect();
    slices.sort_by(|a, b| {
        b.score
            .total_cmp(&a.score)
            .then(a.conjuncts.len().cmp(&b.conjuncts.len()))
            .then(a.render().cmp(&b.render()))
    });
    slices.truncate(top_k);
    Ok(slices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdi_table::{DataType, Field, Schema};

    /// The model fails badly exactly on (region=south ∧ age_band=young).
    fn setup() -> (Table, Vec<bool>) {
        let schema = Schema::new(vec![
            Field::new("region", DataType::Str),
            Field::new("age_band", DataType::Str),
        ]);
        let mut t = Table::new(schema);
        let mut correct = Vec::new();
        for i in 0..1_200 {
            let region = ["north", "south", "west"][i % 3];
            let age = ["young", "old"][(i / 3) % 2];
            t.push_row(vec![Value::str(region), Value::str(age)])
                .unwrap();
            let bad_slice = region == "south" && age == "young";
            // 80% error in the bad slice, 10% elsewhere
            let err = if bad_slice { i % 10 < 8 } else { i % 10 == 0 };
            correct.push(!err);
        }
        (t, correct)
    }

    #[test]
    fn finds_the_planted_bad_slice_first() {
        let (t, correct) = setup();
        let slices = find_problem_slices(&t, &["region", "age_band"], &correct, 30, 5).unwrap();
        assert!(!slices.is_empty());
        let top = &slices[0];
        assert_eq!(top.render(), "region=south ∧ age_band=young");
        assert!(top.error_rate > 0.7, "err={}", top.error_rate);
        assert!(top.score > 0.0);
    }

    #[test]
    fn one_attribute_parents_rank_below_the_intersection() {
        let (t, correct) = setup();
        let slices = find_problem_slices(&t, &["region", "age_band"], &correct, 30, 10).unwrap();
        let south = slices.iter().position(|s| s.render() == "region=south");
        let inter = slices
            .iter()
            .position(|s| s.render() == "region=south ∧ age_band=young")
            .unwrap();
        if let Some(south) = south {
            assert!(inter < south, "intersection must outrank its parent");
        }
    }

    #[test]
    fn min_size_filters_noise() {
        let (t, correct) = setup();
        let slices =
            find_problem_slices(&t, &["region", "age_band"], &correct, 100_000, 5).unwrap();
        assert!(slices.is_empty());
    }

    #[test]
    fn uniform_errors_give_no_strong_slice() {
        let schema = Schema::new(vec![Field::new("g", DataType::Str)]);
        let mut t = Table::new(schema);
        let mut correct = Vec::new();
        for i in 0..600 {
            t.push_row(vec![Value::str(["a", "b"][i % 2])]).unwrap();
            correct.push(i % 5 != 0); // 20% everywhere
        }
        let slices = find_problem_slices(&t, &["g"], &correct, 30, 5).unwrap();
        for s in slices {
            assert!(s.score.abs() < 1.0, "{} score={}", s.render(), s.score);
        }
    }

    #[test]
    #[should_panic(expected = "align")]
    fn misaligned_inputs_panic() {
        let (t, _) = setup();
        find_problem_slices(&t, &["region"], &[true], 1, 5).unwrap();
    }
}
