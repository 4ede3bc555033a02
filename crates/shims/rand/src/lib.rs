//! Offline stand-in for the [`rand`](https://docs.rs/rand/0.8) crate.
//!
//! The build container has no access to a crates registry, so the workspace
//! vendors the small slice of rand's 0.8 API that it actually uses: the
//! [`Rng`] / [`SeedableRng`] traits, [`rngs::StdRng`], and
//! [`distributions::Uniform`]. The generator behind [`rngs::StdRng`] is
//! xoshiro256++ seeded through SplitMix64 — not ChaCha12 like the real
//! `StdRng`, but every consumer in this workspace only relies on
//! *determinism for a fixed seed* and reasonable statistical quality, both
//! of which xoshiro256++ provides.

use std::ops::{Range, RangeInclusive};

/// Low-level generator interface: a source of uniform `u64`s.
pub trait RngCore {
    /// Returns the next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 uniformly distributed bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// User-facing sampling interface, implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Samples a value from the standard distribution of `T` (uniform over
    /// `[0, 1)` for floats, uniform over all values for integers/bool).
    fn gen<T>(&mut self) -> T
    where
        distributions::Standard: distributions::Distribution<T>,
    {
        distributions::Distribution::sample(&distributions::Standard, self)
    }

    /// Samples uniformly from a half-open (`lo..hi`) or inclusive
    /// (`lo..=hi`) range.
    ///
    /// # Panics
    ///
    /// Panics when the range is empty.
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        T: SampleUniform,
        R: SampleRange<T>,
    {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        let u: f64 = self.gen();
        u < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Deterministic construction of generators from seeds.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is a pure function of `state`.
    fn seed_from_u64(state: u64) -> Self;

    /// Builds a generator from a process-local nonce. Offline stand-in: this
    /// is deterministic per process rather than truly entropic, which every
    /// consumer in this workspace tolerates.
    fn from_entropy() -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NONCE: AtomicU64 = AtomicU64::new(0x9E37_79B9_7F4A_7C15);
        Self::seed_from_u64(NONCE.fetch_add(0xA076_1D64_78BD_642F, Ordering::Relaxed))
    }
}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard generator: xoshiro256++.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> Self {
            // Expand the seed through SplitMix64, as the xoshiro authors
            // recommend, so that nearby seeds give unrelated streams.
            let mut sm = state;
            let mut next = || {
                sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng { s: [next(), next(), next(), next()] }
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

/// Types that can be sampled uniformly from a bounded range.
pub trait SampleUniform: PartialOrd + Copy {
    /// Uniform sample from `[lo, hi)`; when `inclusive`, from `[lo, hi]`.
    fn sample_between<R: RngCore + ?Sized>(
        lo: Self,
        hi: Self,
        inclusive: bool,
        rng: &mut R,
    ) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_between<R: RngCore + ?Sized>(
                lo: Self,
                hi: Self,
                inclusive: bool,
                rng: &mut R,
            ) -> Self {
                if inclusive {
                    assert!(lo <= hi, "gen_range called with empty inclusive range");
                } else {
                    assert!(lo < hi, "gen_range called with empty range");
                }
                // Span as u64 (two's complement width handles signed types);
                // modulo bias is negligible for the spans this workspace uses.
                let span = (hi as i128 - lo as i128) as u128 + if inclusive { 1 } else { 0 };
                let offset = (rng.next_u64() as u128 % span) as i128;
                (lo as i128 + offset) as $t
            }
        }
    )*};
}

impl_sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f32 {
    fn sample_between<R: RngCore + ?Sized>(
        lo: Self,
        hi: Self,
        inclusive: bool,
        rng: &mut R,
    ) -> Self {
        if inclusive {
            assert!(lo <= hi, "gen_range called with empty inclusive range");
        } else {
            assert!(lo < hi, "gen_range called with empty range");
        }
        // 24 explicit mantissa bits -> uniform in [0, 1).
        let unit = (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32);
        let v = lo + (hi - lo) * unit;
        if v >= hi && !inclusive {
            lo
        } else {
            v
        }
    }
}

impl SampleUniform for f64 {
    fn sample_between<R: RngCore + ?Sized>(
        lo: Self,
        hi: Self,
        inclusive: bool,
        rng: &mut R,
    ) -> Self {
        if inclusive {
            assert!(lo <= hi, "gen_range called with empty inclusive range");
        } else {
            assert!(lo < hi, "gen_range called with empty range");
        }
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let v = lo + (hi - lo) * unit;
        if v >= hi && !inclusive {
            lo
        } else {
            v
        }
    }
}

/// Range types accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one sample from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_between(self.start, self.end, false, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_between(*self.start(), *self.end(), true, rng)
    }
}

/// Distributions, mirroring `rand::distributions`.
pub mod distributions {
    use super::SampleUniform;

    /// A distribution over values of `T`.
    pub trait Distribution<T> {
        /// Draws one sample.
        fn sample<R: super::Rng + ?Sized>(&self, rng: &mut R) -> T;
    }

    /// The "natural" uniform distribution: `[0, 1)` for floats, all values
    /// for integers and `bool`.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Standard;

    impl Distribution<f32> for Standard {
        fn sample<R: super::Rng + ?Sized>(&self, rng: &mut R) -> f32 {
            (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
        }
    }

    impl Distribution<f64> for Standard {
        fn sample<R: super::Rng + ?Sized>(&self, rng: &mut R) -> f64 {
            (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    impl Distribution<u32> for Standard {
        fn sample<R: super::Rng + ?Sized>(&self, rng: &mut R) -> u32 {
            rng.next_u32()
        }
    }

    impl Distribution<u64> for Standard {
        fn sample<R: super::Rng + ?Sized>(&self, rng: &mut R) -> u64 {
            rng.next_u64()
        }
    }

    impl Distribution<bool> for Standard {
        fn sample<R: super::Rng + ?Sized>(&self, rng: &mut R) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// Uniform distribution over `[lo, hi)`.
    #[derive(Debug, Clone, Copy)]
    pub struct Uniform<T> {
        lo: T,
        hi: T,
    }

    impl<T: SampleUniform> Uniform<T> {
        /// Creates the uniform distribution over `[lo, hi)`.
        ///
        /// # Panics
        ///
        /// Panics when sampled from an empty range (matching the real
        /// crate's behaviour closely enough for this workspace).
        pub fn new(lo: T, hi: T) -> Self {
            Uniform { lo, hi }
        }
    }

    impl<T: SampleUniform> Distribution<T> for Uniform<T> {
        fn sample<R: super::Rng + ?Sized>(&self, rng: &mut R) -> T {
            T::sample_between(self.lo, self.hi, false, rng)
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<f64>(), b.gen::<f64>());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.gen::<u64>() == b.gen::<u64>()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn unit_floats_stay_in_range() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let f: f32 = rng.gen();
            assert!((0.0..1.0).contains(&f));
            let d: f64 = rng.gen();
            assert!((0.0..1.0).contains(&d));
        }
    }

    #[test]
    fn gen_range_forms() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..10_000 {
            let i = rng.gen_range(3usize..10);
            assert!((3..10).contains(&i));
            let j = rng.gen_range(-5i32..=5);
            assert!((-5..=5).contains(&j));
            let f = rng.gen_range(-2.0f32..2.0);
            assert!((-2.0..2.0).contains(&f));
            let z = rng.gen_range(0.0f64..=0.0);
            assert_eq!(z, 0.0);
        }
    }

    #[test]
    fn mean_of_unit_samples_is_half() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.gen::<f64>()).sum();
        assert!((sum / n as f64 - 0.5).abs() < 0.01);
    }
}
