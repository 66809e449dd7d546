//! A dependency-free property-testing shim.
//!
//! This workspace builds in fully offline environments, so it cannot pull
//! the real `proptest` crate from a registry. This crate re-implements the
//! small API subset the test suite uses — the [`proptest!`] macro,
//! [`Strategy`] over integer/float ranges and tuples,
//! [`collection::vec`], [`Strategy::prop_map`], [`prop_assert!`] and
//! [`prop_assert_eq!`] — with deterministic case generation seeded from the
//! test name. There is no shrinking: a failing case reports its index and
//! reruns reproduce it exactly.

use std::fmt;
use std::ops::Range;

/// Per-`proptest!` block configuration.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` generated inputs per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 32 }
    }
}

/// A failed property assertion, carrying its rendered message.
#[derive(Debug)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// Builds a failure from a rendered message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Deterministic splitmix64 generator seeded from the test name, so every
/// run of a test replays the identical case sequence.
#[derive(Debug, Clone)]
pub struct TestRng(u64);

impl TestRng {
    /// Seeds from the test name (FNV-1a over its bytes).
    pub fn for_test(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        TestRng(h)
    }

    /// Next raw 64-bit value (splitmix64).
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Generates values of `Self::Value` from a [`TestRng`].
pub trait Strategy {
    /// The generated value type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Post-processes generated values with `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

/// The strategy returned by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),+) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let width = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % width) as $t
            }
        }
    )+};
}

int_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! float_range_strategy {
    ($($t:ty),+) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                self.start + rng.f64() as $t * (self.end - self.start)
            }
        }
    )+};
}

float_range_strategy!(f32, f64);

macro_rules! tuple_strategy {
    ($($s:ident . $idx:tt),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}

tuple_strategy!(A.0, B.1);
tuple_strategy!(A.0, B.1, C.2);
tuple_strategy!(A.0, B.1, C.2, D.3);

/// Collection strategies.
pub mod collection {
    use super::{Range, Strategy, TestRng};

    /// The strategy returned by [`vec`](fn@vec).
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// Vectors of `element`-generated values with a length drawn from
    /// `size`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = self.size.end - self.size.start;
            let len = self.size.start + (rng.next_u64() as usize) % span.max(1);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Asserts a condition inside a `proptest!` body, failing the current case
/// with location info (no panic unwind through generated values).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "prop_assert failed: {} at {}:{}",
                stringify!($cond),
                file!(),
                line!()
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Equality assertion counterpart of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let left = $left;
        let right = $right;
        if !(left == right) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "prop_assert_eq failed: {:?} != {:?} at {}:{}",
                left,
                right,
                file!(),
                line!()
            )));
        }
    }};
}

/// Declares property tests: each `#[test] fn name(arg in strategy, ...)`
/// item expands to a plain test that replays `cases` deterministic inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { config = $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Internal muncher behind [`proptest!`]; not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = $cfg:expr;) => {};
    (config = $cfg:expr;
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::for_test(stringify!($name));
            for case in 0..config.cases {
                $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                let outcome = (|| -> ::std::result::Result<(), $crate::TestCaseError> {
                    $body;
                    ::std::result::Result::Ok(())
                })();
                if let ::std::result::Result::Err(e) = outcome {
                    panic!(
                        "proptest {} failed at case {}/{}: {}",
                        stringify!($name),
                        case + 1,
                        config.cases,
                        e
                    );
                }
            }
        }
        $crate::__proptest_impl! { config = $cfg; $($rest)* }
    };
}

/// One-stop import mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        prop_assert, prop_assert_eq, proptest, Map, ProptestConfig, Strategy, TestCaseError,
        TestRng,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = TestRng::for_test("ranges_respect_bounds");
        for _ in 0..200 {
            let v = Strategy::generate(&(3usize..9), &mut rng);
            assert!((3..9).contains(&v));
            let f = Strategy::generate(&(0.5f32..5.0), &mut rng);
            assert!((0.5..5.0).contains(&f));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let draw = || {
            let mut rng = TestRng::for_test("x");
            Strategy::generate(&collection::vec((0u64..10, 1usize..4), 0..6), &mut rng)
        };
        assert_eq!(draw(), draw());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn macro_smoke(a in 0u64..100, b in 1usize..5) {
            prop_assert!(a < 100);
            prop_assert_eq!(b.min(4), b);
        }
    }
}
