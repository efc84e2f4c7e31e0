//! Offline drop-in subset of the `rand` 0.8 API.
//!
//! The build environment has no crates.io access, so the workspace wires
//! this crate in under the dependency name `rand` (see the workspace
//! `Cargo.toml` and CONTRIBUTING.md, "Offline builds"). It implements the
//! slice of the `rand` 0.8 surface the toolkit actually uses:
//!
//! * [`RngCore`] / [`Rng`] with `gen`, `gen_range`, `gen_bool`,
//! * [`SeedableRng::seed_from_u64`],
//! * [`rngs::StdRng`] — here a xoshiro256++ generator seeded through
//!   splitmix64.
//!
//! The generated streams differ from upstream `rand`'s `StdRng` (which is
//! ChaCha12); all in-repo consumers treat the RNG as an opaque seeded
//! source and assert statistical rather than stream-exact properties, so
//! the substitution is observationally equivalent for this workspace.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// Core trait: a source of random 64-bit words.
pub trait RngCore {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 uniformly random bits (upper half of [`Self::next_u64`]).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fill `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types sampleable uniformly "at standard" via [`Rng::gen`] — the subset
/// of `rand`'s `Standard` distribution the workspace uses.
pub trait StandardSample {
    /// Draw one value from `rng`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits → uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardSample for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl StandardSample for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl StandardSample for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl StandardSample for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

/// Ranges drawable via [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draw one value uniformly from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let width = (self.end as i128 - self.start as i128) as u128;
                // widening multiply: bias ≤ 2^-64, far below anything the
                // statistical tests in this workspace can resolve
                let hi = ((rng.next_u64() as u128 * width) >> 64) as i128;
                (self.start as i128 + hi) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (s, e) = (*self.start(), *self.end());
                assert!(s <= e, "cannot sample empty range");
                let width = (e as i128 - s as i128) as u128 + 1;
                let hi = ((rng.next_u64() as u128 * width) >> 64) as i128;
                (s as i128 + hi) as $t
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_float_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let u = <f64 as StandardSample>::sample(rng) as $t;
                self.start + u * (self.end - self.start)
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (s, e) = (*self.start(), *self.end());
                assert!(s <= e, "cannot sample empty range");
                let u = <f64 as StandardSample>::sample(rng) as $t;
                s + u * (e - s)
            }
        }
    )*};
}

impl_float_range!(f32, f64);

/// User-facing random-value methods, available on every [`RngCore`].
pub trait Rng: RngCore {
    /// Draw a value of type `T` from the standard distribution
    /// (`f64`/`f32` uniform in `[0,1)`, `bool` fair coin, ints uniform).
    fn gen<T: StandardSample>(&mut self) -> T {
        T::sample(self)
    }

    /// Draw uniformly from a (half-open or inclusive) range.
    fn gen_range<T, Rge: SampleRange<T>>(&mut self, range: Rge) -> T {
        range.sample_from(self)
    }

    /// Bernoulli draw: `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p must be a probability");
        <f64 as StandardSample>::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Trait for seedable generators; the workspace only uses
/// [`SeedableRng::seed_from_u64`].
pub trait SeedableRng: Sized {
    /// Construct deterministically from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Named generators.
pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    /// The workspace's standard seeded generator: xoshiro256++
    /// (Blackman & Vigna), state expanded from the seed via splitmix64.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut x = seed;
            let s = [
                splitmix64(&mut x),
                splitmix64(&mut x),
                splitmix64(&mut x),
                splitmix64(&mut x),
            ];
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn deterministic_from_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(StdRng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn unit_floats_in_range_and_balanced() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn gen_range_int_uniform() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut counts = [0usize; 10];
        let n = 50_000;
        for _ in 0..n {
            counts[rng.gen_range(0..10usize)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let expect = n as f64 / 10.0;
            assert!((c as f64 - expect).abs() < 0.06 * expect, "bucket {i}: {c}");
        }
        // bounds respected, inclusive form hits both ends
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..1000 {
            let v = rng.gen_range(3..=4u64);
            saw_lo |= v == 3;
            saw_hi |= v == 4;
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn gen_bool_tracks_p() {
        let mut rng = StdRng::seed_from_u64(9);
        let hits = (0..20_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((hits as f64 / 20_000.0 - 0.3).abs() < 0.02);
    }

    #[test]
    fn works_through_mut_and_unsized_receivers() {
        fn takes_generic<R: Rng + ?Sized>(rng: &mut R) -> f64 {
            rng.gen()
        }
        let mut rng = StdRng::seed_from_u64(1);
        let _ = takes_generic(&mut rng);
        let _: f64 = rng.gen();
    }
}
