//! `UpdatableMinHash::remove_all` repairs a batch of removals in one
//! pass: the result equals removing the values one at a time and a
//! cold build over the survivors, and `sketch.incremental_updates`
//! moves by exactly the number of present non-null values removed.
//!
//! The only test in this binary: it reads a process-global counter.

use std::collections::BTreeMap;

use proptest::prelude::*;
use rdi_discovery::{MinHash, UpdatableMinHash};
use rdi_table::{Column, DataType, Value};

const TYPES: [DataType; 4] = [
    DataType::Int,
    DataType::Float,
    DataType::Str,
    DataType::Bool,
];

/// Cell `i` of a column of type `TYPES[ty]`: a few edge values (ints
/// equal as `f64`, `±0.0`, empty and non-ASCII strings), then values
/// distinct per `i`.
fn edge_value(ty: usize, i: usize) -> Value {
    const INTS: [i64; 5] = [0, 1 << 53, (1 << 53) + 1, i64::MIN, i64::MAX];
    const FLOATS: [f64; 5] = [0.0, -0.0, 1.5, f64::INFINITY, 9e15];
    const STRS: [&str; 5] = ["", "a", "é", "表#𝔘", "A"];
    match ty {
        0 => Value::Int(INTS.get(i).copied().unwrap_or(i as i64 * 7919)),
        1 => Value::Float(FLOATS.get(i).copied().unwrap_or(i as f64 / 3.0)),
        2 => Value::str(
            STRS.get(i)
                .map_or_else(|| format!("s{i}"), |s| s.to_string()),
        ),
        _ => Value::Bool(i.is_multiple_of(2)),
    }
}

fn column(ty: usize, values: &[Value]) -> Column {
    let mut col = Column::empty(TYPES[ty]);
    for v in values {
        col.push(v.clone(), "c").unwrap();
    }
    col
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Removals pick cells of the column (so multiplicities reach zero
    /// and minima must be repaired), nulls, and values never present.
    #[test]
    fn remove_all_matches_single_removals_and_cold_build(
        ty in 0usize..4,
        cells in prop::collection::vec(prop_oneof![1 => Just(None), 6 => (0usize..10).prop_map(Some)], 0..50),
        picks in prop::collection::vec(0usize..64, 0..40),
        k in prop_oneof![Just(1usize), Just(16), Just(64)],
    ) {
        let values: Vec<Value> = cells
            .iter()
            .map(|c| c.map_or(Value::Null, |i| edge_value(ty, i)))
            .collect();
        let removed: Vec<Value> = picks
            .iter()
            .map(|&p| values.get(p).cloned().unwrap_or_else(|| edge_value(ty, 100 + p)))
            .collect();
        let start = UpdatableMinHash::from_column(&column(ty, &values), k);

        // the multiset model: first occurrence is the representative
        let mut survivors: BTreeMap<Value, u64> = BTreeMap::new();
        for v in values.iter().filter(|v| !v.is_null()) {
            *survivors.entry(v.clone()).or_insert(0) += 1;
        }
        let (mut present, mut all_present) = (0u64, true);
        for v in removed.iter().filter(|v| !v.is_null()) {
            match survivors.get_mut(v) {
                Some(c) => {
                    present += 1;
                    *c -= 1;
                    if *c == 0 {
                        survivors.remove(v);
                    }
                }
                None => all_present = false,
            }
        }

        let updates = rdi_obs::counter("sketch.incremental_updates");
        let mut batch = start.clone();
        let before = updates.get();
        prop_assert_eq!(batch.remove_all(&removed), all_present);
        prop_assert_eq!(updates.get() - before, present);

        let mut single = start;
        let before = updates.get();
        let mut single_present = true;
        for v in &removed {
            single_present &= single.remove_all([v]);
        }
        prop_assert_eq!(single_present, all_present);
        prop_assert_eq!(updates.get() - before, present);
        prop_assert_eq!(&batch, &single);

        let rest: Vec<Value> = survivors
            .iter()
            .flat_map(|(v, &n)| std::iter::repeat_n(v.clone(), n as usize))
            .collect();
        prop_assert_eq!(&batch, &UpdatableMinHash::from_column(&column(ty, &rest), k));
        prop_assert_eq!(batch.minhash(), MinHash::from_values(survivors.keys(), k));
        prop_assert_eq!(batch.distinct(), survivors.len());
    }
}
