//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset this workspace's property tests use: the
//! [`proptest!`] macro, [`Strategy`] with `prop_map`, range and tuple
//! strategies, `prop::collection::vec`, and the `prop_assert!` family.
//! Cases are generated from a deterministic per-test RNG; there is no
//! shrinking — a failing case panics with the ordinary assert message.

use std::ops::Range;

/// Per-test run configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to generate.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    /// 32 cases, overridable by the `PROPTEST_CASES` environment
    /// variable (like real proptest) — CI fuzz jobs raise it without
    /// touching test code. An explicit `with_cases(n)` in the test
    /// source is not overridden.
    fn default() -> Self {
        let cases = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&n| n > 0)
            .unwrap_or(32);
        Self { cases }
    }
}

/// Deterministic case generation machinery.
pub mod test_runner {
    /// The SplitMix64 generator driving case generation; seeded from
    /// the test name so every test has a stable, independent stream.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// A generator seeded deterministically from `name`.
        pub fn deterministic(name: &str) -> Self {
            // FNV-1a over the test name.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            Self { state: h }
        }

        /// The next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// A uniform f64 in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        /// A uniform usize in `[lo, hi)`.
        pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
            debug_assert!(lo < hi);
            lo + (self.next_u64() % (hi - lo) as u64) as usize
        }
    }
}

use test_runner::TestRng;

/// A recipe for generating random values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// A strategy generating `f` of this strategy's values.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// The [`Strategy::prop_map`] adapter.
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        let v = self.start + rng.unit_f64() * (self.end - self.start);
        if v < self.end {
            v
        } else {
            self.start
        }
    }
}

macro_rules! impl_int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }
    )*};
}

impl_int_range_strategy!(usize, u64, u32, u16, u8);

impl<A: Strategy, B: Strategy> Strategy for (A, B) {
    type Value = (A::Value, B::Value);

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.generate(rng), self.1.generate(rng))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
    type Value = (A::Value, B::Value, C::Value);

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (
            self.0.generate(rng),
            self.1.generate(rng),
            self.2.generate(rng),
        )
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Length specifications accepted by [`vec()`]: an exact `usize` or
    /// a half-open `Range<usize>`.
    pub trait IntoSizeRange {
        /// `(lo, hi)` half-open length bounds.
        fn size_bounds(self) -> (usize, usize);
    }

    impl IntoSizeRange for usize {
        fn size_bounds(self) -> (usize, usize) {
            (self, self + 1)
        }
    }

    impl IntoSizeRange for Range<usize> {
        fn size_bounds(self) -> (usize, usize) {
            (self.start, self.end)
        }
    }

    /// A strategy for `Vec`s of `element` values with lengths drawn
    /// from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl IntoSizeRange) -> VecStrategy<S> {
        let (lo, hi) = size.size_bounds();
        assert!(lo < hi, "empty vec length range");
        VecStrategy { element, lo, hi }
    }

    /// The [`vec()`] strategy.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        lo: usize,
        hi: usize,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.usize_in(self.lo, self.hi);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Module-style access used by call sites (`prop::collection::vec`).
pub mod prop {
    pub use crate::collection;
}

/// The glob import every property test uses.
pub mod prelude {
    pub use crate::prop;
    pub use crate::{prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy};
}

/// Asserts a condition inside a property test.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => { assert_eq!($left, $right) };
    ($left:expr, $right:expr, $($fmt:tt)+) => { assert_eq!($left, $right, $($fmt)+) };
}

/// Declares property tests: each `fn name(pat in strategy, ...)` runs
/// its body once per generated case.
#[macro_export]
macro_rules! proptest {
    ( #![proptest_config($config:expr)] $($rest:tt)* ) => {
        $crate::__proptest_impl! { ($config) $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`] (config applied per test).
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (
        ($config:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($arg_pat:pat in $arg_strategy:expr),+ $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $config;
                let mut rng = $crate::test_runner::TestRng::deterministic(concat!(
                    module_path!(),
                    "::",
                    stringify!($name)
                ));
                for _case in 0..config.cases {
                    $(let $arg_pat = $crate::Strategy::generate(&($arg_strategy), &mut rng);)+
                    $body
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn ranges_respect_bounds(x in 0.25f64..0.75, n in 3usize..9) {
            prop_assert!((0.25..0.75).contains(&x));
            prop_assert!((3..9).contains(&n));
        }

        #[test]
        fn vec_and_map_compose(
            v in prop::collection::vec(0.0f64..1.0, 2..5),
            (a, b) in (0u32..4, 10u32..14).prop_map(|(x, y)| (y, x)),
        ) {
            prop_assert!(v.len() >= 2 && v.len() < 5);
            prop_assert!(v.iter().all(|x| (0.0..1.0).contains(x)));
            prop_assert!((10..14).contains(&a) && b < 4);
        }
    }
}
