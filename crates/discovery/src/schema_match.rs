//! Schema matching and table alignment.
//!
//! Tailoring, union, and cleaning all require sources to share one
//! schema, but real sources name the same attribute differently
//! (`race` vs `patient_race`). This module scores candidate column
//! correspondences by combining **name similarity** (character-bigram
//! Jaccard) with **instance similarity** (MinHash Jaccard of value sets),
//! picks a greedy one-to-one matching, and can then *align* a source
//! table to a target schema so downstream code sees uniform columns —
//! the classic instance-based schema matching recipe, scoped to what the
//! RDI pipeline needs.

use rdi_table::{Column, Schema, Table, TableError};

use crate::minhash::MinHash;

/// One proposed column correspondence.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnMatch {
    /// Column in the target (query) schema.
    pub target: String,
    /// Matching column in the source table.
    pub source: String,
    /// Combined score in `[0, 1]`.
    pub score: f64,
    /// Name-similarity component.
    pub name_score: f64,
    /// Value-overlap component.
    pub value_score: f64,
}

/// Character-bigram Jaccard of two (lowercased) identifiers.
fn name_similarity(a: &str, b: &str) -> f64 {
    let grams = |s: &str| -> std::collections::BTreeSet<(char, char)> {
        let cs: Vec<char> = s.to_lowercase().chars().collect();
        cs.windows(2).map(|w| (w[0], w[1])).collect()
    };
    let ga = grams(a);
    let gb = grams(b);
    if ga.is_empty() && gb.is_empty() {
        return if a.eq_ignore_ascii_case(b) { 1.0 } else { 0.0 };
    }
    let inter = ga.intersection(&gb).count();
    let union = ga.len() + gb.len() - inter;
    if union == 0 {
        0.0
    } else {
        inter as f64 / union as f64
    }
}

/// Match the columns of `source` against `target`'s schema.
///
/// `name_weight ∈ [0, 1]` balances name vs instance evidence (0.5 is a
/// good default); `k` is the MinHash size for instance similarity.
/// Greedy one-to-one: highest scores first, each column used once, pairs
/// scoring below `min_score` dropped. Types must be compatible (equal, or
/// Int/Float interchangeable).
pub fn match_schemas(
    target: &Table,
    source: &Table,
    name_weight: f64,
    k: usize,
    min_score: f64,
) -> rdi_table::Result<Vec<ColumnMatch>> {
    assert!((0.0..=1.0).contains(&name_weight));
    let compatible = |a: rdi_table::DataType, b: rdi_table::DataType| -> bool {
        use rdi_table::DataType::*;
        a == b || matches!((a, b), (Int, Float) | (Float, Int))
    };
    // sketch every column once
    let sketch = |t: &Table, name: &str| MinHash::from_column(t, name, k);
    let mut pairs: Vec<ColumnMatch> = Vec::new();
    for tf in target.schema().fields() {
        let tsig = sketch(target, &tf.name)?;
        for sf in source.schema().fields() {
            if !compatible(tf.dtype, sf.dtype) {
                continue;
            }
            let ssig = sketch(source, &sf.name)?;
            let name_score = name_similarity(&tf.name, &sf.name);
            let value_score = tsig.jaccard(&ssig);
            let score = name_weight * name_score + (1.0 - name_weight) * value_score;
            if score >= min_score {
                pairs.push(ColumnMatch {
                    target: tf.name.clone(),
                    source: sf.name.clone(),
                    score,
                    name_score,
                    value_score,
                });
            }
        }
    }
    pairs.sort_by(|a, b| {
        b.score
            .total_cmp(&a.score)
            .then(a.target.cmp(&b.target))
            .then(a.source.cmp(&b.source))
    });
    let mut used_t = std::collections::BTreeSet::new();
    let mut used_s = std::collections::BTreeSet::new();
    Ok(pairs
        .into_iter()
        .filter(|m| used_t.insert(m.target.clone()) && used_s.insert(m.source.clone()))
        .collect())
}

/// Project and rename `source` onto `target_schema` using a matching:
/// every target column must be matched; source values are carried over
/// (Int→Float widened). The result has exactly the target schema, so it
/// can be appended to / tailored with the target's data.
pub fn align_table(
    source: &Table,
    target_schema: &Schema,
    matching: &[ColumnMatch],
) -> rdi_table::Result<Table> {
    let mut columns = Vec::with_capacity(target_schema.len());
    for tf in target_schema.fields() {
        let m = matching
            .iter()
            .find(|m| m.target == tf.name)
            .ok_or_else(|| {
                TableError::SchemaMismatch(format!("no source column matched target `{}`", tf.name))
            })?;
        let src = source.column(&m.source)?;
        // copy through the dynamic interface so Int→Float widening applies
        let mut col = Column::with_capacity(tf.dtype, source.num_rows());
        for i in 0..source.num_rows() {
            col.push(src.value(i), &tf.name)?;
        }
        columns.push(col);
    }
    Table::from_columns(target_schema.clone(), columns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdi_table::{DataType, Field, Role, Value};

    fn hospital_a() -> Table {
        let schema = Schema::new(vec![
            Field::new("race", DataType::Str).with_role(Role::Sensitive),
            Field::new("age", DataType::Int),
            Field::new("score", DataType::Float),
        ]);
        let mut t = Table::new(schema);
        for (r, a, s) in [("white", 30, 0.5), ("black", 40, 0.8), ("asian", 50, 0.2)] {
            t.push_row(vec![Value::str(r), Value::Int(a), Value::Float(s)])
                .unwrap();
        }
        t
    }

    /// Same data, different column names and order, age as Float.
    fn hospital_b() -> Table {
        let schema = Schema::new(vec![
            Field::new("risk_score", DataType::Float),
            Field::new("patient_race", DataType::Str),
            Field::new("patient_age", DataType::Float),
        ]);
        let mut t = Table::new(schema);
        for (s, r, a) in [(0.9, "white", 25.0), (0.1, "black", 61.0)] {
            t.push_row(vec![Value::Float(s), Value::str(r), Value::Float(a)])
                .unwrap();
        }
        t
    }

    #[test]
    fn matches_renamed_columns() {
        let a = hospital_a();
        let b = hospital_b();
        let m = match_schemas(&a, &b, 0.5, 64, 0.1).unwrap();
        let find = |t: &str| m.iter().find(|x| x.target == t).map(|x| x.source.clone());
        assert_eq!(find("race").as_deref(), Some("patient_race"));
        assert_eq!(find("age").as_deref(), Some("patient_age"));
        assert_eq!(find("score").as_deref(), Some("risk_score"));
    }

    #[test]
    fn value_overlap_breaks_name_ties() {
        // two source columns with similar names; only one shares values
        let tschema = Schema::new(vec![Field::new("city", DataType::Str)]);
        let mut target = Table::new(tschema);
        for c in ["chicago", "detroit", "boston"] {
            target.push_row(vec![Value::str(c)]).unwrap();
        }
        let sschema = Schema::new(vec![
            Field::new("city_a", DataType::Str),
            Field::new("city_b", DataType::Str),
        ]);
        let mut source = Table::new(sschema);
        for (x, y) in [("chicago", "tokyo"), ("boston", "osaka")] {
            source.push_row(vec![Value::str(x), Value::str(y)]).unwrap();
        }
        let m = match_schemas(&target, &source, 0.3, 64, 0.0).unwrap();
        assert_eq!(m[0].target, "city");
        assert_eq!(m[0].source, "city_a");
    }

    #[test]
    fn incompatible_types_never_match() {
        let tschema = Schema::new(vec![Field::new("x", DataType::Str)]);
        let mut target = Table::new(tschema);
        target.push_row(vec![Value::str("1")]).unwrap();
        let sschema = Schema::new(vec![Field::new("x", DataType::Int)]);
        let mut source = Table::new(sschema);
        source.push_row(vec![Value::Int(1)]).unwrap();
        let m = match_schemas(&target, &source, 0.5, 16, 0.0).unwrap();
        assert!(m.is_empty());
    }

    #[test]
    fn align_produces_target_schema_with_widening() {
        let a = hospital_a();
        let b = hospital_b();
        let m = match_schemas(&a, &b, 0.5, 64, 0.1).unwrap();
        // target wants age as Int but source has Float — make the target
        // schema Float-typed for age via a compatible variant:
        let target_schema = Schema::new(vec![
            Field::new("race", DataType::Str).with_role(Role::Sensitive),
            Field::new("age", DataType::Float),
            Field::new("score", DataType::Float),
        ]);
        let aligned = align_table(&b, &target_schema, &m).unwrap();
        assert_eq!(aligned.schema(), &target_schema);
        assert_eq!(aligned.num_rows(), 2);
        assert_eq!(aligned.value(0, "race").unwrap(), Value::str("white"));
        assert_eq!(aligned.value(1, "age").unwrap(), Value::Float(61.0));
        // aligned source can now be appended to (a float-age version of) the target
    }

    #[test]
    fn align_requires_full_matching() {
        let a = hospital_a();
        let b = hospital_b();
        let m = match_schemas(&a, &b, 0.5, 64, 0.95).unwrap(); // too strict
        assert!(align_table(&b, a.schema(), &m).is_err());
    }

    #[test]
    fn name_similarity_behaviour() {
        assert!(name_similarity("race", "patient_race") > 0.2);
        assert!(name_similarity("age", "AGE") > 0.99);
        assert!(name_similarity("xy", "zq") < 0.01);
    }
}
