//! MinHash signatures and Jaccard estimation.
//!
//! Two constructions live here:
//!
//! * [`MinHash`] — the immutable one-hash signature. Because every
//!   position is a *minimum* over per-value hashes, signatures are
//!   order-invariant, exactly mergeable ([`MinHash::merge`]), and can
//!   absorb appended values in place ([`MinHash::absorb_values`]) with
//!   results bitwise identical to a cold rebuild.
//! * [`UpdatableMinHash`] — the signature plus a value-multiplicity
//!   map, which is what makes **deletion** exact too: a removed value
//!   only matters once its multiplicity reaches zero, and then only
//!   the signature positions it actually held are recomputed (over the
//!   remaining distinct values), never the whole table.

use std::borrow::Borrow;
use std::collections::BTreeMap;

use rdi_table::{Table, Value};

use crate::hash::{hash_value, splitmix64};

/// Golden-gamma increment perturbing the base hash per position.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The one-hash position hash: position `j`'s pseudorandom permutation
/// of a value's base hash.
#[inline]
fn position_hash(base: u64, j: usize) -> u64 {
    splitmix64(base ^ (j as u64).wrapping_mul(GAMMA))
}

/// A MinHash signature: `k` independent minimum hash values of a set.
///
/// `E[fraction of agreeing positions] = Jaccard(A, B)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinHash {
    sig: Vec<u64>,
}

impl MinHash {
    /// Signature length.
    pub fn k(&self) -> usize {
        self.sig.len()
    }

    /// The raw signature values.
    pub fn signature(&self) -> &[u64] {
        &self.sig
    }

    /// Build from an iterator of set elements (borrowed or owned).
    ///
    /// Each value is hashed through its bytes exactly once
    /// (`hash_value(v, 0)`); the hash for position `j` is then derived
    /// by perturbing that base with the `j`-th multiple of the golden
    /// gamma and refinishing through splitmix64. Every position sees
    /// its own pseudorandom permutation of the base hashes — the
    /// standard one-hash MinHash construction — at O(bytes + k) per
    /// value instead of O(bytes × k).
    pub fn from_values<I>(values: I, k: usize) -> Self
    where
        I: IntoIterator,
        I::Item: Borrow<Value>,
    {
        assert!(k > 0);
        let mut m = MinHash {
            sig: vec![u64::MAX; k],
        };
        m.absorb_values(values);
        m
    }

    /// Absorb additional set elements in place.
    ///
    /// Positionwise minima are order-invariant, so absorbing appended
    /// values into an existing signature is **bitwise identical** to
    /// rebuilding from the full value stream — the warm path of
    /// incremental sketch maintenance costs O(appended × k), never
    /// O(table × k).
    pub fn absorb_values<I>(&mut self, values: I)
    where
        I: IntoIterator,
        I::Item: Borrow<Value>,
    {
        for v in values {
            let v = v.borrow();
            if v.is_null() {
                continue;
            }
            let base = hash_value(v, 0);
            for (j, s) in self.sig.iter_mut().enumerate() {
                let h = position_hash(base, j);
                if h < *s {
                    *s = h;
                }
            }
        }
    }

    /// The signature of the union of the two underlying sets
    /// (positionwise minimum). Exact: `a.merge(&b)` is bitwise
    /// identical to building one signature over both value streams.
    ///
    /// # Panics
    /// Panics when the signature lengths differ.
    pub fn merge(&self, other: &MinHash) -> MinHash {
        assert_eq!(self.k(), other.k(), "signatures must share k");
        MinHash {
            sig: self
                .sig
                .iter()
                .zip(&other.sig)
                .map(|(a, b)| *a.min(b))
                .collect(),
        }
    }

    /// Build from the values of a table column, streaming them one at
    /// a time (no intermediate `Vec<Value>`).
    pub fn from_column(table: &Table, column: &str, k: usize) -> rdi_table::Result<Self> {
        let col = table.column(column)?;
        Ok(MinHash::from_values(
            (0..table.num_rows()).map(|i| col.value(i)),
            k,
        ))
    }

    /// Estimated Jaccard similarity with another signature of equal `k`.
    pub fn jaccard(&self, other: &MinHash) -> f64 {
        assert_eq!(self.k(), other.k(), "signatures must share k");
        let agree = self
            .sig
            .iter()
            .zip(&other.sig)
            .filter(|(a, b)| a == b)
            .count();
        agree as f64 / self.k() as f64
    }
}

/// A MinHash signature that supports **exact deletion**, backed by a
/// value-multiplicity map.
///
/// The signature always equals `MinHash::from_values` over the current
/// multiset, to the bit:
///
/// * **insert** — bump the value's multiplicity; on a 0 → 1 transition
///   lower the affected signature positions (a positionwise min can
///   only decrease on insert).
/// * **remove** — decrement the multiplicity; only a 1 → 0 transition
///   can raise a minimum, and then only at positions the removed value
///   actually held, which are recomputed over the remaining *distinct*
///   values. Work is O(k) per touched row plus O(distinct) per
///   repaired position — proportional to the delta, not the table.
///
/// Both operations count `sketch.incremental_updates` (one per
/// non-null value applied), the work counter the E20 harness audits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdatableMinHash {
    sig: Vec<u64>,
    /// Multiplicity of every non-null value currently in the multiset.
    counts: BTreeMap<Value, u64>,
}

impl UpdatableMinHash {
    /// An empty signature of length `k`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0);
        UpdatableMinHash {
            sig: vec![u64::MAX; k],
            counts: BTreeMap::new(),
        }
    }

    /// Build over an initial value stream (the cold path; not counted
    /// as incremental work).
    pub fn build<I>(values: I, k: usize) -> Self
    where
        I: IntoIterator,
        I::Item: Borrow<Value>,
    {
        let mut m = UpdatableMinHash::new(k);
        for v in values {
            m.absorb(v.borrow());
        }
        m
    }

    /// Signature length.
    pub fn k(&self) -> usize {
        self.sig.len()
    }

    /// Exact number of distinct non-null values currently present.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// The current signature as an immutable [`MinHash`].
    pub fn minhash(&self) -> MinHash {
        MinHash {
            sig: self.sig.clone(),
        }
    }

    /// Fold one value in without counting it as incremental work
    /// (cold-build path).
    fn absorb(&mut self, v: &Value) {
        if v.is_null() {
            return;
        }
        let fresh = {
            let c = self.counts.entry(v.clone()).or_insert(0);
            *c += 1;
            *c == 1
        };
        if fresh {
            let base = hash_value(v, 0);
            for (j, s) in self.sig.iter_mut().enumerate() {
                let h = position_hash(base, j);
                if h < *s {
                    *s = h;
                }
            }
        }
    }

    /// Insert one value (nulls are ignored, as in
    /// [`MinHash::from_values`]). Counts `sketch.incremental_updates`.
    pub fn insert(&mut self, v: &Value) {
        if v.is_null() {
            return;
        }
        rdi_obs::counter("sketch.incremental_updates").inc();
        self.absorb(v);
    }

    /// Remove one occurrence of a value. Returns `false` (and changes
    /// nothing) when the value is not present — the caller's multiset
    /// bookkeeping has diverged and a rebuild is in order. Counts
    /// `sketch.incremental_updates`.
    pub fn remove(&mut self, v: &Value) -> bool {
        if v.is_null() {
            return true;
        }
        let Some(c) = self.counts.get_mut(v) else {
            return false;
        };
        rdi_obs::counter("sketch.incremental_updates").inc();
        *c -= 1;
        if *c > 0 {
            return true;
        }
        self.counts.remove(v);
        // Only positions whose minimum was held by the departed value
        // can change; recompute those over the surviving distinct set.
        let base = hash_value(v, 0);
        for j in 0..self.sig.len() {
            if position_hash(base, j) == self.sig[j] {
                self.sig[j] = self
                    .counts
                    .keys()
                    .map(|w| position_hash(hash_value(w, 0), j))
                    .min()
                    .unwrap_or(u64::MAX);
            }
        }
        true
    }
}

/// Exact Jaccard of two columns' distinct value sets (ground truth for
/// sketch evaluation).
pub fn exact_jaccard(a: &Table, ca: &str, b: &Table, cb: &str) -> rdi_table::Result<f64> {
    let sa: std::collections::BTreeSet<Value> = a.distinct(ca)?.into_iter().collect();
    let sb: std::collections::BTreeSet<Value> = b.distinct(cb)?.into_iter().collect();
    if sa.is_empty() && sb.is_empty() {
        return Ok(0.0);
    }
    let inter = sa.intersection(&sb).count();
    Ok(inter as f64 / (sa.len() + sb.len() - inter) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(vals: &[&str]) -> Vec<Value> {
        vals.iter().map(|s| Value::str(*s)).collect()
    }

    #[test]
    fn identical_sets_have_jaccard_one() {
        let a = set(&["x", "y", "z"]);
        let ma = MinHash::from_values(a.iter(), 64);
        let mb = MinHash::from_values(a.iter(), 64);
        assert_eq!(ma.jaccard(&mb), 1.0);
    }

    #[test]
    fn disjoint_sets_have_jaccard_near_zero() {
        let a: Vec<Value> = (0..100).map(|i| Value::str(format!("a{i}"))).collect();
        let b: Vec<Value> = (0..100).map(|i| Value::str(format!("b{i}"))).collect();
        let ma = MinHash::from_values(a.iter(), 128);
        let mb = MinHash::from_values(b.iter(), 128);
        assert!(ma.jaccard(&mb) < 0.05);
    }

    #[test]
    fn estimate_tracks_true_jaccard() {
        // |A| = 100, |B| = 150, |A∩B| = 50, |A∪B| = 200 → J = 1/4
        let a: Vec<Value> = (0..100).map(|i| Value::str(format!("v{i}"))).collect();
        let b: Vec<Value> = (50..200).map(|i| Value::str(format!("v{i}"))).collect();
        let ma = MinHash::from_values(a.iter(), 256);
        let mb = MinHash::from_values(b.iter(), 256);
        let est = ma.jaccard(&mb);
        assert!((est - 0.25).abs() < 0.08, "est={est}");
        // and the estimate agrees with the exact Jaccard of the sets
        let sa: std::collections::BTreeSet<&Value> = a.iter().collect();
        let sb: std::collections::BTreeSet<&Value> = b.iter().collect();
        let inter = sa.intersection(&sb).count() as f64;
        let union = (sa.len() + sb.len()) as f64 - inter;
        let exact = inter / union;
        assert!((est - exact).abs() < 0.08, "est={est} exact={exact}");
    }

    #[test]
    fn duplicates_and_nulls_ignored() {
        let a = [Value::str("x"), Value::str("x"), Value::Null];
        let b = [Value::str("x")];
        let ma = MinHash::from_values(a.iter(), 32);
        let mb = MinHash::from_values(b.iter(), 32);
        assert_eq!(ma.jaccard(&mb), 1.0);
    }

    #[test]
    #[should_panic(expected = "share k")]
    fn mismatched_k_panics() {
        let a = MinHash::from_values(set(&["x"]).iter(), 8);
        let b = MinHash::from_values(set(&["x"]).iter(), 16);
        a.jaccard(&b);
    }

    #[test]
    fn absorb_and_merge_equal_cold_build() {
        let a = set(&["p", "q", "r"]);
        let b = set(&["r", "s"]);
        let all: Vec<Value> = a.iter().chain(b.iter()).cloned().collect();
        let cold = MinHash::from_values(all.iter(), 64);
        // absorb appended values into a warm signature
        let mut warm = MinHash::from_values(a.iter(), 64);
        warm.absorb_values(b.iter());
        assert_eq!(warm, cold);
        // merge two independent signatures
        let merged = MinHash::from_values(a.iter(), 64).merge(&MinHash::from_values(b.iter(), 64));
        assert_eq!(merged, cold);
    }

    #[test]
    fn updatable_tracks_cold_build_under_churn() {
        let k = 64;
        let vals: Vec<Value> = (0..40).map(|i| Value::str(format!("v{i}"))).collect();
        let mut u = UpdatableMinHash::build(vals.iter(), k);
        assert_eq!(u.minhash(), MinHash::from_values(vals.iter(), k));
        assert_eq!(u.distinct(), 40);

        // inserts (including a duplicate) stay exact
        let extra = [Value::str("v7"), Value::str("new_a"), Value::str("new_b")];
        for v in &extra {
            u.insert(v);
        }
        let mut now: Vec<Value> = vals.clone();
        now.extend(extra.iter().cloned());
        assert_eq!(u.minhash(), MinHash::from_values(now.iter(), k));
        assert_eq!(u.distinct(), 42);

        // removals stay exact — including removing a value that held
        // signature minima, which forces position repair
        for v in [Value::str("v7"), Value::str("v0"), Value::str("v1")] {
            assert!(u.remove(&v));
        }
        // multiset now: v7 still present once (was duplicated), v0/v1
        // gone entirely — the signature only sees the distinct set
        let mut reference: Vec<Value> = now
            .iter()
            .filter(|v| **v != Value::str("v0") && **v != Value::str("v1"))
            .cloned()
            .collect();
        reference.sort();
        reference.dedup();
        assert_eq!(u.minhash(), MinHash::from_values(reference.iter(), k));
        assert_eq!(u.distinct(), reference.len());

        // removing an absent value reports divergence
        assert!(!u.remove(&Value::str("never_seen")));
        // nulls are ignored on both paths
        u.insert(&Value::Null);
        assert!(u.remove(&Value::Null));
    }

    #[test]
    fn updatable_drains_to_empty_signature() {
        let vals = set(&["x", "y"]);
        let mut u = UpdatableMinHash::build(vals.iter(), 16);
        assert!(u.remove(&Value::str("x")));
        assert!(u.remove(&Value::str("y")));
        assert_eq!(u.distinct(), 0);
        assert_eq!(u.minhash().signature(), vec![u64::MAX; 16].as_slice());
    }

    #[test]
    fn exact_jaccard_reference() {
        use rdi_table::{DataType, Field, Schema};
        let schema = Schema::new(vec![Field::new("c", DataType::Str)]);
        let mut ta = Table::new(schema.clone());
        let mut tb = Table::new(schema);
        for v in ["x", "y"] {
            ta.push_row(vec![Value::str(v)]).unwrap();
        }
        for v in ["y", "z"] {
            tb.push_row(vec![Value::str(v)]).unwrap();
        }
        assert!((exact_jaccard(&ta, "c", &tb, "c").unwrap() - 1.0 / 3.0).abs() < 1e-12);
    }
}
