//! Offline API-compatible subset of `proptest` (see CONTRIBUTING.md,
//! "Offline builds").
//!
//! Implements the slice of the proptest API this workspace uses:
//! ranged numeric strategies, `Just`, simple `[class]{m,n}` regex string
//! strategies, `collection::vec`, tuples of strategies, `prop_map` /
//! `prop_flat_map` / `boxed`, weighted `prop_oneof!`, and the
//! `proptest!` / `prop_assert!` / `prop_assert_eq!` macros.
//!
//! Test cases are generated from a deterministic RNG seeded from the
//! test function's name, so runs are reproducible; there is no failure
//! persistence or shrinking.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::ops::{Range, RangeInclusive};

pub use test_runner::{TestCaseError, TestCaseResult, TestRng};

/// A source of generated values for property tests.
///
/// Unlike upstream proptest there is no value tree / shrinking: a
/// strategy simply produces a value from an RNG.
pub trait Strategy {
    /// The type of value this strategy generates.
    type Value;

    /// Generate one value.
    fn gen(&self, rng: &mut TestRng) -> Self::Value;

    /// Map generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Build a second strategy from each generated value and sample it.
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }

    /// Erase the concrete strategy type.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(std::rc::Rc::new(self))
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn gen(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.gen(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
    type Value = T::Value;
    fn gen(&self, rng: &mut TestRng) -> T::Value {
        (self.f)(self.inner.gen(rng)).gen(rng)
    }
}

/// A type-erased strategy (result of [`Strategy::boxed`]).
pub struct BoxedStrategy<T>(std::rc::Rc<dyn Strategy<Value = T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(self.0.clone())
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn gen(&self, rng: &mut TestRng) -> T {
        self.0.gen(rng)
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn gen(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! range_strategies {
    ($($t:ty),+) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn gen(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn gen(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )+};
}

range_strategies!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

macro_rules! tuple_strategies {
    ($(($($s:ident / $idx:tt),+))+) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn gen(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.gen(rng),)+)
            }
        }
    )+};
}

tuple_strategies! {
    (A/0)
    (A/0, B/1)
    (A/0, B/1, C/2)
    (A/0, B/1, C/2, D/3)
    (A/0, B/1, C/2, D/3, E/4)
    (A/0, B/1, C/2, D/3, E/4, F/5)
}

/// String strategy from a regex literal. Supports the subset the
/// workspace uses: a character-class atom with an optional repetition,
/// e.g. `"[a-z]{0,8}"`, `"[a-z0-9]{1,4}"`, or `"[abc]"`.
impl Strategy for &'static str {
    type Value = String;
    fn gen(&self, rng: &mut TestRng) -> String {
        #[expect(
            clippy::panic,
            reason = "a regex outside the supported subset is a bug in the calling test"
        )]
        let (chars, min, max) = parse_simple_regex(self)
            .unwrap_or_else(|| panic!("unsupported regex strategy: {self:?}"));
        let len = rng.gen_range(min..=max);
        (0..len)
            .map(|_| chars[rng.gen_range(0..chars.len())])
            .collect()
    }
}

fn parse_simple_regex(pattern: &str) -> Option<(Vec<char>, usize, usize)> {
    let rest = pattern.strip_prefix('[')?;
    let close = rest.find(']')?;
    let class = &rest[..close];
    let mut chars = Vec::new();
    let mut it = class.chars().peekable();
    while let Some(c) = it.next() {
        if it.peek() == Some(&'-') {
            let mut ahead = it.clone();
            ahead.next();
            if let Some(&hi) = ahead.peek() {
                it.next();
                it.next();
                for code in c as u32..=hi as u32 {
                    chars.push(char::from_u32(code)?);
                }
                continue;
            }
        }
        chars.push(c);
    }
    if chars.is_empty() {
        return None;
    }
    let tail = &rest[close + 1..];
    if tail.is_empty() {
        return Some((chars, 1, 1));
    }
    let counts = tail.strip_prefix('{')?.strip_suffix('}')?;
    let (min, max) = match counts.split_once(',') {
        Some((lo, hi)) => (lo.trim().parse().ok()?, hi.trim().parse().ok()?),
        None => {
            let n = counts.trim().parse().ok()?;
            (n, n)
        }
    };
    Some((chars, min, max))
}

/// Weighted union of strategies; the expansion target of `prop_oneof!`.
pub struct Union<T>(Vec<(u32, BoxedStrategy<T>)>);

impl<T> Union<T> {
    /// Build a union from `(weight, strategy)` pairs.
    pub fn new_weighted(options: Vec<(u32, BoxedStrategy<T>)>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
        Union(options)
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn gen(&self, rng: &mut TestRng) -> T {
        let total: u64 = self.0.iter().map(|(w, _)| *w as u64).sum();
        let mut pick = rng.gen_range(0..total.max(1));
        for (w, s) in &self.0 {
            if pick < *w as u64 {
                return s.gen(rng);
            }
            pick -= *w as u64;
        }
        self.0[self.0.len() - 1].1.gen(rng)
    }
}

/// `any::<T>()` support: types with a canonical "arbitrary" strategy.
pub trait Arbitrary: Sized {
    /// The strategy type returned by [`any`].
    type Strategy: Strategy<Value = Self>;
    /// Build the canonical strategy for this type.
    fn arbitrary() -> Self::Strategy;
}

/// The canonical strategy for `T` (e.g. `any::<bool>()`).
pub fn any<T: Arbitrary>() -> T::Strategy {
    T::arbitrary()
}

/// Strategy over a type's entire value space.
#[derive(Clone, Copy, Debug)]
pub struct FullRange<T>(std::marker::PhantomData<T>);

macro_rules! arbitrary_ints {
    ($($t:ty : $gen:expr),+ $(,)?) => {$(
        impl Strategy for FullRange<$t> {
            type Value = $t;
            fn gen(&self, rng: &mut TestRng) -> $t {
                let f: fn(&mut TestRng) -> $t = $gen;
                f(rng)
            }
        }
        impl Arbitrary for $t {
            type Strategy = FullRange<$t>;
            fn arbitrary() -> Self::Strategy {
                FullRange(std::marker::PhantomData)
            }
        }
    )+};
}

arbitrary_ints! {
    bool: |rng| rng.next_u64() & 1 == 1,
    u8: |rng| rng.next_u64() as u8,
    u16: |rng| rng.next_u64() as u16,
    u32: |rng| rng.next_u64() as u32,
    u64: |rng| rng.next_u64(),
    usize: |rng| rng.next_u64() as usize,
    i8: |rng| rng.next_u64() as i8,
    i16: |rng| rng.next_u64() as i16,
    i32: |rng| rng.next_u64() as i32,
    i64: |rng| rng.next_u64() as i64,
    isize: |rng| rng.next_u64() as isize,
    f64: |rng| f64::from_bits(rng.next_u64()),
}

/// Collection strategies (`prop::collection`).
pub mod collection {
    use super::{Strategy, TestRng};

    /// A size specification for [`vec()`]: a fixed size, `lo..hi`, or
    /// `lo..=hi`.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        min: usize,
        max_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                min: n,
                max_inclusive: n,
            }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max_inclusive: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                min: *r.start(),
                max_inclusive: *r.end(),
            }
        }
    }

    /// Strategy for `Vec`s whose elements come from `element` and whose
    /// length falls in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn gen(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = super::Rng::gen_range(rng, self.size.min..=self.size.max_inclusive);
            (0..len).map(|_| self.element.gen(rng)).collect()
        }
    }
}

/// `bool` strategies (`prop::bool`).
pub mod bool {
    /// Strategy generating both booleans.
    pub const ANY: super::FullRange<bool> = super::FullRange(std::marker::PhantomData);
}

/// Runner configuration and test-case plumbing.
pub mod test_runner {
    use super::*;

    /// Configuration for a `proptest!` block.
    #[derive(Clone, Debug)]
    pub struct Config {
        /// Number of cases to run per property.
        pub cases: u32,
    }

    impl Config {
        /// A config running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 256 }
        }
    }

    /// Why a test case failed.
    #[derive(Clone, Debug)]
    pub enum TestCaseError {
        /// An assertion failed with this message.
        Fail(String),
        /// The case was rejected (unused here, kept for API parity).
        Reject(String),
    }

    impl TestCaseError {
        /// Build a failure from a message.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError::Fail(msg.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                TestCaseError::Fail(m) => write!(f, "{m}"),
                TestCaseError::Reject(m) => write!(f, "rejected: {m}"),
            }
        }
    }

    /// Result of running a single test case.
    pub type TestCaseResult = Result<(), TestCaseError>;

    /// The RNG driving value generation, seeded deterministically from
    /// the test name.
    pub struct TestRng(pub(crate) StdRng);

    impl TestRng {
        /// Deterministic RNG for the named test.
        pub fn for_test(name: &str) -> Self {
            let mut seed = 0xcbf2_9ce4_8422_2325u64;
            for b in name.bytes() {
                seed ^= b as u64;
                seed = seed.wrapping_mul(0x0000_0100_0000_01b3);
            }
            #[allow(
                clippy::disallowed_methods,
                reason = "a test's stream is seeded from its name, so every run replays it"
            )]
            let rng = StdRng::seed_from_u64(seed);
            TestRng(rng)
        }
    }

    impl RngCore for TestRng {
        fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }
    }
}

pub use test_runner::Config as ProptestConfig;

/// Everything a `use proptest::prelude::*;` caller expects.
pub mod prelude {
    pub use super::test_runner::{TestCaseError, TestCaseResult};
    pub use super::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, BoxedStrategy,
        Just, ProptestConfig, Strategy,
    };

    /// The `prop::` namespace (`prop::collection::vec`, `prop::bool::ANY`).
    pub mod prop {
        pub use super::super::bool;
        pub use super::super::collection;
    }
}

/// Define property tests. Each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (@cfg ($config:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat_param in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        // `#[test]` is written explicitly inside the block (upstream
        // proptest style), so it arrives via `$meta` — don't add one.
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $config;
            let __strategies = ($($strat,)+);
            let mut __rng = $crate::TestRng::for_test(concat!(module_path!(), "::", stringify!($name)));
            for __case in 0..__config.cases {
                let ($($pat,)+) = $crate::Strategy::gen(&__strategies, &mut __rng);
                let __result: $crate::TestCaseResult = (|| {
                    $body
                    #[allow(unreachable_code)]
                    Ok(())
                })();
                if let Err(e) = __result {
                    panic!(
                        "proptest case {}/{} failed: {}",
                        __case + 1,
                        __config.cases,
                        e
                    );
                }
            }
        }
    )*};
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@cfg ($config) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@cfg ($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// Assert a condition inside `proptest!`, failing the case (not
/// panicking) when false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)));
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Assert two expressions are equal inside `proptest!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: {} == {} ({:?} vs {:?})",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, $($fmt)+);
    }};
}

/// Assert two expressions are unequal inside `proptest!`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: {} != {} (both {:?})",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}

/// Choose among weighted strategy arms. Supports `strategy` arms and
/// `weight => strategy` arms; all arms must yield the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::Union::new_weighted(vec![
            $(($weight as u32, $crate::Strategy::boxed($strat)),)+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new_weighted(vec![
            $((1u32, $crate::Strategy::boxed($strat)),)+
        ])
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn regex_strategy_parses_class_and_counts() {
        let (chars, min, max) = parse_simple_regex("[a-z0-9]{0,8}").unwrap();
        assert_eq!(chars.len(), 36);
        assert_eq!((min, max), (0, 8));
        let (chars, min, max) = parse_simple_regex("[ab]").unwrap();
        assert_eq!(chars, vec!['a', 'b']);
        assert_eq!((min, max), (1, 1));
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = TestRng::for_test("x");
        let mut b = TestRng::for_test("x");
        let s = (0u64..100, "[a-z]{1,4}");
        assert_eq!(s.gen(&mut a).0, s.gen(&mut b).0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn ranges_respect_bounds(x in 3i64..10, y in 0.0f64..1.0) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((0.0..1.0).contains(&y));
        }

        #[test]
        fn vec_and_oneof_work(
            v in prop::collection::vec((0.0f64..5.0, prop::bool::ANY), 2..6),
            s in prop_oneof![2 => Just(1u8), 1 => Just(2u8)],
        ) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(s == 1 || s == 2);
            if s == 2 {
                return Ok(());
            }
            prop_assert_eq!(s, 1u8);
        }
    }
}
