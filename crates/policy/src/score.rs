//! Totally-ordered scores for policy candidates.

use std::cmp::Ordering;

/// A candidate's score under one policy: a small algebra closed under
/// lexicographic tuples, every variant totally ordered (floats via
/// [`f64::total_cmp`], so `NaN` has a defined — if pathological —
/// position instead of poisoning the sort).
///
/// Cross-variant comparisons order by variant tag (the declaration
/// order below); well-formed call sites score every candidate of one
/// decision with the same shape, so the tag order only matters as a
/// guarantee that `cmp_total` is total no matter what.
#[derive(Debug, Clone, PartialEq)]
pub enum Score {
    /// A floating-point score (similarity, weight).
    F64(f64),
    /// An unsigned magnitude (recency sequence, aging credit).
    U64(u64),
    /// A signed magnitude (negated distances encode "closer is better"
    /// under descending order).
    I64(i64),
    /// A lexicographic composite compared element-wise, shorter tuples
    /// first on a shared prefix.
    Tuple(Vec<Score>),
}

impl Score {
    /// Total order over scores. Never panics; `NaN` sorts above
    /// `+inf` per [`f64::total_cmp`].
    pub fn cmp_total(&self, other: &Score) -> Ordering {
        match (self, other) {
            (Score::F64(a), Score::F64(b)) => a.total_cmp(b),
            (Score::U64(a), Score::U64(b)) => a.cmp(b),
            (Score::I64(a), Score::I64(b)) => a.cmp(b),
            (Score::Tuple(a), Score::Tuple(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    let ord = x.cmp_total(y);
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                a.len().cmp(&b.len())
            }
            _ => self.tag().cmp(&other.tag()),
        }
    }

    /// Variant tag for the cross-variant total-order fallback.
    fn tag(&self) -> u8 {
        match self {
            Score::F64(_) => 0,
            Score::U64(_) => 1,
            Score::I64(_) => 2,
            Score::Tuple(_) => 3,
        }
    }

    /// Compact stable rendering for rationale details
    /// (`0.5`, `[1, -3]`). Floats render with Rust's shortest
    /// round-trip `Display`, so equal bits render equal text.
    pub fn render(&self) -> String {
        match self {
            Score::F64(v) => format!("{v}"),
            Score::U64(v) => {
                let mut out = String::new();
                rdi_obs::push_decimal(&mut out, *v);
                out
            }
            Score::I64(v) => {
                let mut out = String::from(if *v < 0 { "-" } else { "" });
                rdi_obs::push_decimal(&mut out, v.unsigned_abs());
                out
            }
            Score::Tuple(items) => {
                let inner: Vec<String> = items.iter().map(Score::render).collect();
                format!("[{}]", inner.join(", "))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn same_variant_orders_numerically() {
        assert_eq!(Score::F64(1.0).cmp_total(&Score::F64(2.0)), Ordering::Less);
        assert_eq!(Score::U64(9).cmp_total(&Score::U64(9)), Ordering::Equal);
        assert_eq!(Score::I64(-1).cmp_total(&Score::I64(-2)), Ordering::Greater);
    }

    #[test]
    fn nan_has_a_total_position() {
        assert_eq!(
            Score::F64(f64::NAN).cmp_total(&Score::F64(f64::INFINITY)),
            Ordering::Greater
        );
        assert_eq!(
            Score::F64(f64::NAN).cmp_total(&Score::F64(f64::NAN)),
            Ordering::Equal
        );
    }

    #[test]
    fn tuples_compare_lexicographically_then_by_length() {
        let a = Score::Tuple(vec![Score::U64(1), Score::I64(-3)]);
        let b = Score::Tuple(vec![Score::U64(1), Score::I64(-2)]);
        assert_eq!(a.cmp_total(&b), Ordering::Less);
        let short = Score::Tuple(vec![Score::U64(1)]);
        assert_eq!(short.cmp_total(&a), Ordering::Less);
    }

    #[test]
    fn cross_variant_order_is_total() {
        assert_eq!(Score::F64(9.0).cmp_total(&Score::U64(0)), Ordering::Less);
        assert_eq!(
            Score::Tuple(vec![]).cmp_total(&Score::I64(i64::MAX)),
            Ordering::Greater
        );
    }

    proptest! {
        /// Integer scores render exactly as `format!` renders them,
        /// extremes included.
        #[test]
        fn integer_render_matches_format(
            u in prop_oneof![Just(0u64), Just(u64::MAX), any::<u64>()],
            i in prop_oneof![Just(0i64), Just(i64::MIN), Just(i64::MAX), Just(-1i64), any::<i64>()],
        ) {
            prop_assert_eq!(Score::U64(u).render(), format!("{u}"));
            prop_assert_eq!(Score::I64(i).render(), format!("{i}"));
        }
    }

    #[test]
    fn render_is_stable() {
        assert_eq!(Score::F64(0.5).render(), "0.5");
        assert_eq!(
            Score::Tuple(vec![Score::U64(1), Score::I64(-3)]).render(),
            "[1, -3]"
        );
    }
}
