//! Offline stand-in for the [`proptest`](https://docs.rs/proptest/1) crate.
//!
//! Implements exactly the subset this workspace's property tests use: the
//! [`proptest!`] macro over `ident in strategy` arguments, numeric
//! [`Range`] strategies, [`collection::vec`], and the
//! `prop_assert!`/`prop_assert_eq!` assertion macros. Cases are generated
//! from a seed derived deterministically from the test's module path and
//! name, so failures reproduce without a regression file (the real crate's
//! `.proptest-regressions` files are ignored). Shrinking is not
//! implemented: a failing case panics with its inputs already fixed by the
//! deterministic seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// Per-test configuration; only the case count is honoured.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of random cases each property runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` random cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// The generator handed to strategies; deterministic per (test, case).
#[derive(Debug, Clone)]
pub struct TestRng(StdRng);

impl TestRng {
    /// Builds the generator for one case of one property.
    pub fn for_case(test_seed: u64, case: u64) -> Self {
        TestRng(StdRng::seed_from_u64(
            test_seed ^ case.wrapping_mul(0xA076_1D64_78BD_642F),
        ))
    }
}

impl rand::RngCore for TestRng {
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
}

/// FNV-1a hash used to turn a test's path into a stable seed.
#[must_use]
pub fn fnv(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A generator of random values of an associated type.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

/// Collection strategies, mirroring `proptest::collection`.
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// Length specifications accepted by [`vec()`]: a fixed `usize` or a
    /// half-open `Range<usize>`.
    pub trait IntoLenRange {
        /// Lower (inclusive) and upper (exclusive) length bounds.
        fn len_bounds(self) -> (usize, usize);
    }

    impl IntoLenRange for usize {
        fn len_bounds(self) -> (usize, usize) {
            (self, self + 1)
        }
    }

    impl IntoLenRange for std::ops::Range<usize> {
        fn len_bounds(self) -> (usize, usize) {
            (self.start, self.end)
        }
    }

    /// Strategy producing `Vec`s of values drawn from `elem`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        elem: S,
        lo: usize,
        hi: usize,
    }

    /// Generates vectors whose length is drawn from `len` and whose
    /// elements are drawn from `elem`.
    pub fn vec<S: Strategy>(elem: S, len: impl IntoLenRange) -> VecStrategy<S> {
        let (lo, hi) = len.len_bounds();
        VecStrategy { elem, lo, hi }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = if self.lo + 1 >= self.hi {
                self.lo
            } else {
                rng.gen_range(self.lo..self.hi)
            };
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

/// Everything the tests import, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy};

    /// The `prop::` namespace (`prop::collection::vec`).
    pub mod prop {
        pub use crate::collection;
    }
}

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` deterministic random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let seed = $crate::fnv(concat!(module_path!(), "::", stringify!($name)));
            for case in 0..config.cases {
                let mut rng = $crate::TestRng::for_case(seed, u64::from(case));
                $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                $body
            }
        }
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
}

/// Asserts a condition inside a property, reporting the failing expression.
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Range strategies stay inside their bounds.
        #[test]
        fn ranges_are_bounded(x in -3.0f32..3.0, n in 1usize..7) {
            prop_assert!((-3.0..3.0).contains(&x));
            prop_assert!((1..7).contains(&n));
        }

        /// Vec strategies honour fixed and ranged lengths.
        #[test]
        fn vec_lengths(fixed in prop::collection::vec(0u8..5, 4), ranged in prop::collection::vec(0u8..5, 2..6)) {
            prop_assert_eq!(fixed.len(), 4);
            prop_assert!(ranged.len() >= 2 && ranged.len() < 6);
            prop_assert!(fixed.iter().chain(&ranged).all(|&v| v < 5));
        }
    }

    #[test]
    fn cases_are_deterministic() {
        let mut a = crate::TestRng::for_case(1, 2);
        let mut b = crate::TestRng::for_case(1, 2);
        use rand::RngCore;
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
