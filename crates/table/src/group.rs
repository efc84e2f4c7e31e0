//! Demographic group identification and per-group statistics.
//!
//! A *group* (tutorial §2.2) is the intersection of values of one or more
//! sensitive attributes, e.g. `{race: black, sex: female}`. [`GroupSpec`]
//! names the grouping attributes; [`GroupKey`] is one concrete combination.

use std::collections::{BTreeMap, HashMap};

use serde::{Deserialize, Serialize};

use crate::table::Table;
use crate::value::Value;
use crate::Result;

/// A concrete combination of group-attribute values, in [`GroupSpec`] order.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct GroupKey(pub Vec<Value>);

impl GroupKey {
    /// Render as `attr=val, attr=val` given the spec that produced it.
    pub fn render(&self, spec: &GroupSpec) -> String {
        spec.attributes
            .iter()
            .zip(&self.0)
            .map(|(a, v)| format!("{a}={v}"))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

impl std::fmt::Display for GroupKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let parts: Vec<String> = self.0.iter().map(|v| v.to_string()).collect();
        write!(f, "({})", parts.join(", "))
    }
}

/// Which attributes define groups.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroupSpec {
    /// Names of the grouping (typically sensitive) attributes.
    pub attributes: Vec<String>,
}

impl GroupSpec {
    /// Build a spec over the given attribute names.
    pub fn new<S: Into<String>>(attributes: Vec<S>) -> Self {
        GroupSpec {
            attributes: attributes.into_iter().map(Into::into).collect(),
        }
    }

    /// Spec over all attributes marked [`crate::Role::Sensitive`] in `table`.
    pub fn from_sensitive(table: &Table) -> Self {
        GroupSpec::new(table.schema().sensitive())
    }

    /// The group key of row `i`.
    pub fn key_of(&self, table: &Table, i: usize) -> Result<GroupKey> {
        let mut vals = Vec::with_capacity(self.attributes.len());
        for a in &self.attributes {
            vals.push(table.value(i, a)?);
        }
        Ok(GroupKey(vals))
    }

    /// For each row, the position in `keys` of the first key equal to
    /// the row's [`GroupSpec::key_of`] key, or `None` if no key matches.
    ///
    /// The answer is exactly `keys.iter().position(|k| *k == key_of(i))`
    /// per row, but it is computed from one [`crate::Column::encode`]
    /// pass per attribute: each key is translated once into per-attribute
    /// codes (a key of the wrong length, or naming a value absent from its
    /// column, matches no row) and rows are looked up by code, so no
    /// per-row [`GroupKey`] is built.
    ///
    /// # Errors
    /// The first unknown attribute, with the error
    /// [`GroupSpec::key_of`] reports for it — also on an empty table,
    /// where a per-row `key_of` loop would never look.
    pub fn assign(&self, table: &Table, keys: &[GroupKey]) -> Result<Vec<Option<usize>>> {
        let encoded = self
            .attributes
            .iter()
            .map(|a| Ok(table.column(a)?.encode()))
            .collect::<Result<Vec<_>>>()?;
        // code tuple -> position of the first key with that tuple
        let mut first_key: BTreeMap<Vec<Option<u32>>, usize> = BTreeMap::new();
        for (pos, key) in keys.iter().enumerate() {
            if key.0.len() != encoded.len() {
                continue;
            }
            let codes: Option<Vec<Option<u32>>> = key
                .0
                .iter()
                .zip(&encoded)
                .map(|(v, (distinct, _))| match v {
                    Value::Null => Some(None),
                    v => distinct.binary_search(v).ok().map(|c| Some(c as u32)),
                })
                .collect();
            if let Some(codes) = codes {
                first_key.entry(codes).or_insert(pos);
            }
        }
        let mut row_codes = Vec::with_capacity(encoded.len());
        Ok((0..table.num_rows())
            .map(|i| {
                row_codes.clear();
                row_codes.extend(encoded.iter().map(|(_, codes)| codes[i]));
                first_key.get(row_codes.as_slice()).copied()
            })
            .collect())
    }

    /// Per-group row counts.
    pub fn counts(&self, table: &Table) -> Result<HashMap<GroupKey, usize>> {
        let mut m = HashMap::new();
        for i in 0..table.num_rows() {
            *m.entry(self.key_of(table, i)?).or_insert(0) += 1;
        }
        Ok(m)
    }

    /// Per-group row indices.
    pub fn partition(&self, table: &Table) -> Result<HashMap<GroupKey, Vec<usize>>> {
        let mut m: HashMap<GroupKey, Vec<usize>> = HashMap::new();
        for i in 0..table.num_rows() {
            m.entry(self.key_of(table, i)?).or_default().push(i);
        }
        Ok(m)
    }

    /// Per-group fractions (counts normalized by total rows), sorted by key
    /// for deterministic output.
    pub fn fractions(&self, table: &Table) -> Result<Vec<(GroupKey, f64)>> {
        let n = table.num_rows() as f64;
        let mut v: Vec<(GroupKey, f64)> = self
            .counts(table)?
            .into_iter()
            .map(|(k, c)| (k, if n > 0.0 { c as f64 / n } else { 0.0 }))
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(v)
    }

    /// All group keys present in the table, sorted.
    pub fn keys(&self, table: &Table) -> Result<Vec<GroupKey>> {
        let mut ks: Vec<GroupKey> = self.counts(table)?.into_keys().collect();
        ks.sort();
        Ok(ks)
    }

    /// Per-group summary statistics of a numeric column.
    pub fn stats(&self, table: &Table, column: &str) -> Result<Vec<(GroupKey, GroupStats)>> {
        let parts = self.partition(table)?;
        let col = table.column(column)?;
        let mut out = Vec::with_capacity(parts.len());
        for (k, idxs) in parts {
            let vals: Vec<f64> = idxs.iter().filter_map(|&i| col.value(i).as_f64()).collect();
            out.push((k, GroupStats::from_values(idxs.len(), &vals)));
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(out)
    }
}

/// Summary statistics of one numeric column within one group.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupStats {
    /// Rows in the group (including rows where the column is null).
    pub count: usize,
    /// Non-null numeric cells.
    pub non_null: usize,
    /// Mean of non-null cells (0 if none).
    pub mean: f64,
    /// Population standard deviation of non-null cells.
    pub std_dev: f64,
    /// Minimum non-null cell.
    pub min: f64,
    /// Maximum non-null cell.
    pub max: f64,
}

impl GroupStats {
    fn from_values(count: usize, vals: &[f64]) -> Self {
        if vals.is_empty() {
            return GroupStats {
                count,
                non_null: 0,
                mean: 0.0,
                std_dev: 0.0,
                min: 0.0,
                max: 0.0,
            };
        }
        let n = vals.len() as f64;
        let mean = vals.iter().sum::<f64>() / n;
        let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        GroupStats {
            count,
            non_null: vals.len(),
            mean,
            std_dev: var.sqrt(),
            min: vals.iter().copied().fold(f64::INFINITY, f64::min),
            max: vals.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::TableError;
    use crate::schema::{DataType, Field, Role, Schema};
    use proptest::prelude::*;

    fn t() -> Table {
        let schema = Schema::new(vec![
            Field::new("race", DataType::Str).with_role(Role::Sensitive),
            Field::new("sex", DataType::Str).with_role(Role::Sensitive),
            Field::new("score", DataType::Float),
        ]);
        let mut t = Table::new(schema);
        for (r, s, v) in [
            ("w", "m", 1.0),
            ("w", "f", 2.0),
            ("b", "m", 3.0),
            ("w", "m", 5.0),
        ] {
            t.push_row(vec![Value::str(r), Value::str(s), Value::Float(v)])
                .unwrap();
        }
        t
    }

    #[test]
    fn counts_intersectional_groups() {
        let t = t();
        let spec = GroupSpec::from_sensitive(&t);
        let counts = spec.counts(&t).unwrap();
        assert_eq!(counts.len(), 3);
        assert_eq!(counts[&GroupKey(vec![Value::str("w"), Value::str("m")])], 2);
    }

    #[test]
    fn fractions_sum_to_one() {
        let t = t();
        let spec = GroupSpec::new(vec!["race"]);
        let fr = spec.fractions(&t).unwrap();
        let total: f64 = fr.iter().map(|(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // sorted: "b" before "w"
        assert_eq!(fr[0].0, GroupKey(vec![Value::str("b")]));
    }

    #[test]
    fn per_group_stats() {
        let t = t();
        let spec = GroupSpec::new(vec!["race"]);
        let stats = spec.stats(&t, "score").unwrap();
        let w = stats
            .iter()
            .find(|(k, _)| k.0[0] == Value::str("w"))
            .unwrap();
        assert_eq!(w.1.count, 3);
        assert!((w.1.mean - 8.0 / 3.0).abs() < 1e-12);
        assert_eq!(w.1.max, 5.0);
    }

    #[test]
    fn partition_covers_all_rows() {
        let t = t();
        let spec = GroupSpec::from_sensitive(&t);
        let parts = spec.partition(&t).unwrap();
        let total: usize = parts.values().map(Vec::len).sum();
        assert_eq!(total, t.num_rows());
    }

    #[test]
    fn assign_matches_first_equal_key() {
        let t = t();
        let spec = GroupSpec::from_sensitive(&t);
        let key = |r: &str, s: &str| GroupKey(vec![Value::str(r), Value::str(s)]);
        let keys = [
            key("b", "f"),
            key("w", "m"),
            GroupKey(vec![Value::str("w")]),
            key("w", "m"),
            key("b", "m"),
        ];
        // rows: (w,m) (w,f) (b,m) (w,m)
        assert_eq!(
            spec.assign(&t, &keys).unwrap(),
            [Some(1), None, Some(4), Some(1)]
        );
    }

    #[test]
    fn assign_rejects_an_unknown_attribute_even_without_rows() {
        let spec = GroupSpec::new(vec!["race", "nope"]);
        let err = TableError::UnknownColumn("nope".into());
        assert_eq!(spec.assign(&t(), &[]).unwrap_err(), err);
        assert_eq!(spec.key_of(&t(), 0).unwrap_err(), err);
        let empty = Table::new(t().schema().clone());
        assert_eq!(spec.assign(&empty, &[]).unwrap_err(), err);
    }

    /// A three-column table (`i` Int, `f` Float, `s` Str) over small
    /// pools with nulls, including `Int`s equal as `f64`.
    fn arb_table() -> impl Strategy<Value = Table> {
        let int = prop_oneof![
            3 => (0i64..3).prop_map(Value::Int),
            1 => Just(Value::Int(1 << 53)),
            1 => Just(Value::Int((1 << 53) + 1)),
            1 => Just(Value::Null),
        ];
        let float = prop_oneof![
            3 => (0i64..3).prop_map(|x| Value::Float(x as f64 / 2.0)),
            1 => Just(Value::Float(-0.0)),
            1 => Just(Value::Null),
        ];
        let string = prop_oneof![
            3 => "[ab]{1}".prop_map(Value::Str),
            1 => Just(Value::Null),
        ];
        prop::collection::vec((int, float, string), 1..30).prop_map(|rows| {
            let mut t = Table::new(Schema::new(vec![
                Field::new("i", DataType::Int),
                Field::new("f", DataType::Float),
                Field::new("s", DataType::Str),
            ]));
            for (i, f, s) in rows {
                t.push_row(vec![i, f, s]).unwrap();
            }
            t
        })
    }

    /// Key values: present and absent ones of every type, `Null`, and an
    /// `Int` that equals a `Float` cell.
    fn arb_key_value() -> impl Strategy<Value = Value> {
        let pool = vec![
            Value::Null,
            Value::Int(0),
            Value::Int(1),
            Value::Int(1 << 53),
            Value::Int(7),
            Value::Float(0.5),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::str("a"),
            Value::str("b"),
            Value::str("zz"),
            Value::Bool(true),
        ];
        (0..pool.len()).prop_map(move |i| pool[i].clone())
    }

    proptest! {
        /// `assign` is `key_of` + `keys.iter().position` per row: for
        /// `Null` keys, absent values, wrong-length and duplicate keys,
        /// cross-type numeric keys and unknown attributes alike.
        #[test]
        fn assign_matches_key_of_and_position(
            t in arb_table(),
            picks in prop::collection::vec(0usize..4, 0..4),
            keys in prop::collection::vec(prop::collection::vec(arb_key_value(), 0..5), 0..12),
        ) {
            let spec = GroupSpec::new(picks.iter().map(|&p| ["i", "f", "s", "zz"][p]).collect());
            // duplicate some keys, so "first position wins" is exercised
            let mut keys: Vec<GroupKey> = keys.into_iter().map(GroupKey).collect();
            keys.extend(keys.clone().into_iter().rev().take(3));
            let want: Result<Vec<Option<usize>>> = (0..t.num_rows())
                .map(|i| {
                    let key = spec.key_of(&t, i)?;
                    Ok(keys.iter().position(|k| *k == key))
                })
                .collect();
            prop_assert_eq!(spec.assign(&t, &keys), want);
        }
    }

    #[test]
    fn render_key() {
        let spec = GroupSpec::new(vec!["race", "sex"]);
        let k = GroupKey(vec![Value::str("b"), Value::str("f")]);
        assert_eq!(k.render(&spec), "race=b, sex=f");
    }
}
