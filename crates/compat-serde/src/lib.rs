//! Offline drop-in subset of `serde`, wired in under the dependency name
//! `serde` (see CONTRIBUTING.md, "Offline builds").
//!
//! Upstream serde abstracts over arbitrary data formats; this workspace
//! only ever serializes to JSON, so the compat crate collapses the
//! model: [`Serialize`] renders a value into the [`Json`] tree. There
//! is no derive: the few types that are serialized (the `rdi-profile`
//! label and datasheet) write their impls by hand, a named struct as an
//! object with its fields in declaration order. Reading JSON back stops
//! at the [`Json`] tree (`serde_json::from_str`); nothing decodes it
//! into typed values.
//!
//! Integer fidelity: `u64`/`i64` stay exact ([`Json::U64`] /
//! [`Json::I64`] are distinct from [`Json::F64`]); this matters for the
//! 64-bit hash values in sketch signatures.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![allow(
    clippy::disallowed_types,
    reason = "the serde shim serializes std hash maps, as serde does"
)]

/// A JSON value: the single data model of the compat serde stack.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Signed integer (JSON number without fraction/exponent).
    I64(i64),
    /// Unsigned integer above `i64::MAX`.
    U64(u64),
    /// Floating-point number.
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object; insertion-ordered so output is deterministic.
    Obj(Vec<(String, Json)>),
}

/// Serialization or JSON parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    /// Create an error with a custom message.
    pub fn custom(msg: impl Into<String>) -> Self {
        Error(msg.into())
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

static NULL: Json = Json::Null;

impl Json {
    /// Object member by name; [`Json::Null`] when absent or not an object.
    pub fn member(&self, name: &str) -> &Json {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .unwrap_or(&NULL),
            _ => &NULL,
        }
    }

    /// String content, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric content as `f64`, when this is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::I64(i) => Some(*i as f64),
            Json::U64(u) => Some(*u as f64),
            Json::F64(f) => Some(*f),
            _ => None,
        }
    }

    /// Signed integer content, when exactly representable.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::I64(i) => Some(*i),
            Json::U64(u) => i64::try_from(*u).ok(),
            _ => None,
        }
    }

    /// Unsigned integer content, when exactly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::I64(i) => u64::try_from(*i).ok(),
            Json::U64(u) => Some(*u),
            _ => None,
        }
    }

    /// Boolean content, when this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array elements, when this is an array.
    pub fn as_array(&self) -> Option<&Vec<Json>> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Member lookup that distinguishes absence from `null`.
    pub fn get(&self, name: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }
}

impl std::ops::Index<&str> for Json {
    type Output = Json;
    fn index(&self, name: &str) -> &Json {
        self.member(name)
    }
}

impl std::ops::Index<usize> for Json {
    type Output = Json;
    fn index(&self, i: usize) -> &Json {
        match self {
            Json::Arr(items) => items.get(i).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

macro_rules! impl_json_eq_int {
    ($($t:ty),*) => {$(
        impl PartialEq<$t> for Json {
            fn eq(&self, other: &$t) -> bool {
                self.as_i64() == i64::try_from(*other).ok()
            }
        }
    )*};
}

impl_json_eq_int!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl PartialEq<f64> for Json {
    fn eq(&self, other: &f64) -> bool {
        matches!(self, Json::F64(f) if f == other)
    }
}

impl PartialEq<&str> for Json {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<bool> for Json {
    fn eq(&self, other: &bool) -> bool {
        self.as_bool() == Some(*other)
    }
}

/// Render a value into the JSON data model.
pub trait Serialize {
    /// Convert `self` to a [`Json`] tree.
    fn serialize(&self) -> Json;
}

// ------------------------------------------------------------ primitives

impl Serialize for Json {
    fn serialize(&self) -> Json {
        self.clone()
    }
}

impl Serialize for bool {
    fn serialize(&self) -> Json {
        Json::Bool(*self)
    }
}

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self) -> Json { Json::I64(*self as i64) }
        }
    )*};
}

impl_signed!(i8, i16, i32, i64, isize);

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self) -> Json {
                let u = *self as u64;
                match i64::try_from(u) {
                    Ok(i) => Json::I64(i),
                    Err(_) => Json::U64(u),
                }
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);

impl Serialize for f64 {
    fn serialize(&self) -> Json {
        Json::F64(*self)
    }
}

impl Serialize for f32 {
    fn serialize(&self) -> Json {
        Json::F64(*self as f64)
    }
}

impl Serialize for String {
    fn serialize(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl Serialize for str {
    fn serialize(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl Serialize for char {
    fn serialize(&self) -> Json {
        Json::Str(self.to_string())
    }
}

// ----------------------------------------------------------- containers

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self) -> Json {
        (**self).serialize()
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn serialize(&self) -> Json {
        (**self).serialize()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self) -> Json {
        match self {
            None => Json::Null,
            Some(x) => x.serialize(),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self) -> Json {
        Json::Arr(self.iter().map(Serialize::serialize).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self) -> Json {
        Json::Arr(self.iter().map(Serialize::serialize).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self) -> Json {
        Json::Arr(self.iter().map(Serialize::serialize).collect())
    }
}

macro_rules! impl_tuple {
    ($($t:ident . $i:tt),+) => {
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize(&self) -> Json {
                Json::Arr(vec![$(self.$i.serialize()),+])
            }
        }
    };
}

impl_tuple!(A.0, B.1);
impl_tuple!(A.0, B.1, C.2);
impl_tuple!(A.0, B.1, C.2, D.3);

impl<V: Serialize> Serialize for std::collections::BTreeMap<String, V> {
    fn serialize(&self) -> Json {
        Json::Obj(
            self.iter()
                .map(|(k, v)| (k.clone(), v.serialize()))
                .collect(),
        )
    }
}

impl<V: Serialize> Serialize for std::collections::HashMap<String, V> {
    fn serialize(&self) -> Json {
        // Sort keys so serialization is deterministic.
        let mut keys: Vec<&String> = self.keys().collect();
        keys.sort();
        Json::Obj(
            keys.into_iter()
                .map(|k| (k.clone(), self[k].serialize()))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_integers_stay_exact() {
        let big: u64 = u64::MAX - 3;
        assert_eq!(big.serialize(), Json::U64(big));
        let small: u64 = 17;
        assert_eq!(small.serialize(), Json::I64(17));
    }

    #[test]
    fn option_serializes_none_as_null() {
        let none: Option<f64> = None;
        assert_eq!(none.serialize(), Json::Null);
        assert_eq!(Some(2.5).serialize(), Json::F64(2.5));
    }

    #[test]
    fn member_of_missing_field_is_null() {
        let obj = Json::Obj(vec![("a".into(), Json::Bool(true))]);
        assert_eq!(obj.member("b"), &Json::Null);
        assert_eq!(obj["a"], true);
    }

    #[test]
    fn tuples_and_vecs_nest() {
        let v: Vec<(f64, String, f64)> = vec![(1.0, "x".into(), 2.0)];
        assert_eq!(
            v.serialize(),
            Json::Arr(vec![Json::Arr(vec![
                Json::F64(1.0),
                Json::Str("x".into()),
                Json::F64(2.0),
            ])])
        );
    }
}
