//! Dynamically-typed cell values.

use std::cmp::Ordering;
use std::fmt;

use serde::Serialize;

/// A single cell value in a [`crate::Table`].
///
/// `Value` is the dynamically-typed interchange type used at the API
/// boundary (row construction, predicates, group keys). Storage inside a
/// table is typed per column (see [`crate::Column`]), so `Value` never
/// appears in hot inner loops unless an algorithm explicitly asks for it.
#[derive(Debug, Clone, Serialize)]
pub enum Value {
    /// Missing value (SQL `NULL`).
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float. `NaN` is normalized to [`Value::Null`] on insertion.
    Float(f64),
    /// UTF-8 string (also used for categorical codes).
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// Shorthand for building a string value.
    pub fn str(s: impl Into<String>) -> Self {
        Value::Str(s.into())
    }

    /// True iff the value is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view of the value, if it has one (`Int`, `Float`, `Bool`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// Integer view of the value, if it is an `Int`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String view of the value, if it is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean view of the value, if it is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Total order over values used for sorting and range predicates.
    ///
    /// `Null` sorts first; numeric types compare by numeric value
    /// (`Int(2) == Float(2.0)`); distinct type families order as
    /// `Null < numeric/bool < Str`. Float `NaN` (only reachable if a caller
    /// constructs one directly) sorts after all other floats.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        fn rank(v: &Value) -> u8 {
            match v {
                Null => 0,
                Int(_) | Float(_) | Bool(_) => 1,
                Str(_) => 2,
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Str(a), Str(b)) => a.cmp(b),
            (a, b) if rank(a) == 1 && rank(b) == 1 => match (a.as_f64(), b.as_f64()) {
                (Some(fa), Some(fb)) => fa.total_cmp(&fb),
                // rank 1 ⇒ both numeric, so this arm is unreachable;
                // fall back to rank order rather than panic.
                _ => rank(a).cmp(&rank(b)),
            },
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            // Hash numerics through their f64 bit pattern so that
            // Int(2), Float(2.0) and Bool(..) hash consistently with `eq`.
            Value::Int(i) => (*i as f64).to_bits().hash(state),
            Value::Float(f) => f.to_bits().hash(state),
            Value::Bool(b) => (if *b { 1.0f64 } else { 0.0f64 }).to_bits().hash(state),
            Value::Str(s) => {
                2u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, ""),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        if v.is_nan() {
            Value::Null
        } else {
            Value::Float(v)
        }
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn h(v: &Value) -> u64 {
        let mut s = DefaultHasher::new();
        v.hash(&mut s);
        s.finish()
    }

    #[test]
    fn numeric_cross_type_equality() {
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert_eq!(Value::Bool(true), Value::Int(1));
        assert_ne!(Value::Int(2), Value::Float(2.5));
    }

    #[test]
    fn hash_consistent_with_eq() {
        assert_eq!(h(&Value::Int(7)), h(&Value::Float(7.0)));
        assert_eq!(h(&Value::Bool(false)), h(&Value::Int(0)));
    }

    #[test]
    fn null_sorts_first() {
        let mut vs = [Value::str("a"), Value::Int(1), Value::Null];
        vs.sort();
        assert!(vs[0].is_null());
        assert_eq!(vs[2], Value::str("a"));
    }

    #[test]
    fn nan_becomes_null() {
        let v: Value = f64::NAN.into();
        assert!(v.is_null());
    }

    #[test]
    fn string_ordering_is_lexicographic() {
        assert!(Value::str("apple") < Value::str("banana"));
    }

    #[test]
    fn display_roundtrip_simple() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::str("x").to_string(), "x");
        assert_eq!(Value::Null.to_string(), "");
    }
}
