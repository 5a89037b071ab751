//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no crates.io access, so this crate supplies
//! the subset of the rand 0.10 API the workspace uses: the [`Rng`] /
//! [`RngExt`] trait (one trait here, re-exported under both names),
//! [`SeedableRng::seed_from_u64`], and a deterministic [`rngs::StdRng`]
//! (xoshiro256++ seeded via SplitMix64). Determinism is the property the
//! simulator depends on — the exact stream differs from upstream
//! `StdRng`, which only shifts the concrete values of seeded runs, never
//! their reproducibility.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::ops::Range;

/// Types that can construct themselves from an RNG's uniform u64 stream.
pub trait FromRng {
    /// Draws one uniformly distributed value.
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_from_rng_int {
    ($($t:ty),*) => {$(
        impl FromRng for $t {
            fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_from_rng_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl FromRng for u128 {
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())
    }
}

impl FromRng for bool {
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl FromRng for f64 {
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl FromRng for f32 {
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl<const N: usize> FromRng for [u8; N] {
    fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let mut out = [0u8; N];
        rng.fill_bytes(&mut out);
        out
    }
}

/// Ranges a [`Rng`] can sample uniformly. Parameterised by the output
/// type (like upstream's `SampleRange<T>`) so integer literals in a
/// range infer their type from the call site.
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range {
    ($($t:ty => $wide:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as $wide).wrapping_sub(self.start as $wide) as u64;
                // Modulo draw; bias is negligible for simulation spans.
                (self.start as $wide).wrapping_add((rng.next_u64() % span) as $wide) as $t
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = self.into_inner();
                assert!(start <= end, "empty range");
                let span = (end as $wide).wrapping_sub(start as $wide) as u64;
                let span = span.wrapping_add(1); // 0 means the full u64 domain
                let draw = if span == 0 { rng.next_u64() } else { rng.next_u64() % span };
                (start as $wide).wrapping_add(draw as $wide) as $t
            }
        }
    )*};
}
impl_sample_range!(u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
                   i8 => i64, i16 => i64, i32 => i64, i64 => i64, isize => i64);

impl SampleRange<f64> for Range<f64> {
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty range");
        self.start + f64::from_rng(rng) * (self.end - self.start)
    }
}

/// The RNG trait: a `u64` source plus the derived sampling helpers.
pub trait Rng {
    /// The next uniformly distributed 64-bit value.
    fn next_u64(&mut self) -> u64;

    /// Fills `dest` with uniform bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let last = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&last[..rem.len()]);
        }
    }

    /// Fills `dest` (any byte-slice-like value) with uniform bytes.
    fn fill<T: AsMut<[u8]> + ?Sized>(&mut self, dest: &mut T) {
        self.fill_bytes(dest.as_mut());
    }

    /// A uniformly distributed value of type `T`.
    fn random<T: FromRng>(&mut self) -> T {
        T::from_rng(self)
    }

    /// A uniform value from `range`.
    fn random_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample(self)
    }

    /// `true` with probability `p`.
    fn random_bool(&mut self, p: f64) -> bool {
        f64::from_rng(self) < p
    }
}

/// rand 0.9+ splits sampling helpers into an extension trait; here they
/// live on [`Rng`] itself, and this alias keeps both import paths valid.
pub use Rng as RngExt;

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// RNGs constructible from a seed.
pub trait SeedableRng: Sized {
    /// Builds the RNG from a 64-bit seed, deterministically.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Concrete RNG implementations.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// The workspace's standard RNG: xoshiro256++, seeded via SplitMix64.
    ///
    /// Fast, passes BigCrush, and — the only property the simulator
    /// actually needs — fully deterministic for a given seed.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion as recommended by the xoshiro authors.
            let mut x = seed;
            let mut next = move || {
                x = x.wrapping_add(0x9e3779b97f4a7c15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(StdRng::seed_from_u64(7).next_u64(), c.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let x: f64 = r.random();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn ranges_in_bounds() {
        let mut r = StdRng::seed_from_u64(2);
        for _ in 0..1000 {
            let v = r.random_range(10u64..20);
            assert!((10..20).contains(&v));
            let s = r.random_range(-5i32..50);
            assert!((-5..50).contains(&s));
            let f = r.random_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn fill_bytes_covers_tail() {
        let mut r = StdRng::seed_from_u64(3);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn range_spanning_negative_values() {
        let mut r = StdRng::seed_from_u64(4);
        let mut seen_neg = false;
        for _ in 0..200 {
            let v = r.random_range(-5i32..5);
            assert!((-5..5).contains(&v));
            seen_neg |= v < 0;
        }
        assert!(seen_neg);
    }
}
