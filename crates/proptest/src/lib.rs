//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset of the proptest API this workspace's property
//! tests use: the [`proptest!`] macro, [`Strategy`] with `prop_map` /
//! `prop_filter` / `boxed`, range and tuple strategies, `any::<T>()`,
//! [`collection::vec`] / [`collection::hash_set`], `Just`,
//! [`prop_oneof!`], `prop_assert*!` and `prop_assume!`.
//!
//! Unlike real proptest there is no shrinking: each test runs `cases`
//! deterministic samples (seeded per test name and case index) and
//! reports the failing values via plain `assert!` panics. That keeps
//! failures reproducible — the trait the tests actually rely on —
//! without the full strategy/value-tree machinery.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![allow(
    clippy::disallowed_types,
    reason = "`hash_set` yields the std `HashSet`, as the real proptest does"
)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::hash::Hash;
use std::ops::Range;

/// Per-test configuration (only `cases` is honoured).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases each property runs.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// The deterministic RNG handed to strategies.
pub struct TestRng(pub StdRng);

impl TestRng {
    /// RNG for one (test, case) pair: seeded from the test name and index.
    pub fn for_case(test_name: &str, case: u64) -> Self {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in test_name.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100000001b3);
        }
        TestRng(StdRng::seed_from_u64(
            h ^ case.wrapping_mul(0x9e3779b97f4a7c15),
        ))
    }
}

/// Signal that a sampled input should be skipped (from `prop_assume!`).
pub struct CaseRejected;

/// Result type the expanded test body returns; rejection skips the case.
pub type TestCaseResult = Result<(), CaseRejected>;

/// A generator of random values.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Retries until `f` accepts a value (bounded; panics if the filter
    /// rejects everything).
    fn prop_filter<F: Fn(&Self::Value) -> bool>(self, reason: &'static str, f: F) -> Filter<Self, F>
    where
        Self: Sized,
    {
        Filter {
            inner: self,
            f,
            reason,
        }
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

/// A `prop_map` combinator.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn sample(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

/// A `prop_filter` combinator.
pub struct Filter<S, F> {
    inner: S,
    f: F,
    reason: &'static str,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..1000 {
            let v = self.inner.sample(rng);
            if (self.f)(&v) {
                return v;
            }
        }
        panic!("prop_filter rejected 1000 candidates: {}", self.reason);
    }
}

/// A type-erased strategy.
pub struct BoxedStrategy<V>(Box<dyn Strategy<Value = V>>);

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn sample(&self, rng: &mut TestRng) -> V {
        self.0.sample(rng)
    }
}

/// Always yields a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<V: Clone>(pub V);

impl<V: Clone> Strategy for Just<V> {
    type Value = V;
    fn sample(&self, _rng: &mut TestRng) -> V {
        self.0.clone()
    }
}

/// Uniform choice among boxed strategies (built by [`prop_oneof!`]).
pub struct Union<V>(pub Vec<BoxedStrategy<V>>);

impl<V> Strategy for Union<V> {
    type Value = V;
    fn sample(&self, rng: &mut TestRng) -> V {
        let idx = rng.0.random_range(0..self.0.len() as u64) as usize;
        self.0[idx].sample(rng)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.0.random_range(self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    };
}
impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// The canonical strategy.
    type Strategy: Strategy<Value = Self>;
    /// Builds the canonical strategy.
    fn arbitrary() -> Self::Strategy;
}

/// Strategy behind [`any`].
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

macro_rules! impl_arbitrary_prim {
    ($($t:ty),*) => {$(
        impl Strategy for AnyStrategy<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.0.random()
            }
        }
        impl Arbitrary for $t {
            type Strategy = AnyStrategy<$t>;
            fn arbitrary() -> Self::Strategy {
                AnyStrategy(std::marker::PhantomData)
            }
        }
    )*};
}
impl_arbitrary_prim!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, isize, bool, f64);

impl<const N: usize> Strategy for AnyStrategy<[u8; N]> {
    type Value = [u8; N];
    fn sample(&self, rng: &mut TestRng) -> [u8; N] {
        rng.0.random()
    }
}

impl<const N: usize> Arbitrary for [u8; N] {
    type Strategy = AnyStrategy<[u8; N]>;
    fn arbitrary() -> Self::Strategy {
        AnyStrategy(std::marker::PhantomData)
    }
}

/// The canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> T::Strategy {
    T::arbitrary()
}

/// Collection strategies.
pub mod collection {
    use super::*;

    /// Sizes accepted by [`vec()`] / [`hash_set`]: a fixed count or range.
    pub trait SizeRange {
        /// Draws a length.
        fn sample_len(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn sample_len(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for Range<usize> {
        fn sample_len(&self, rng: &mut TestRng) -> usize {
            if self.start >= self.end {
                return self.start;
            }
            rng.0.random_range(self.clone())
        }
    }

    /// A strategy for `Vec<S::Value>` with a sampled length.
    pub struct VecStrategy<S, L> {
        elem: S,
        len: L,
    }

    impl<S: Strategy, L: SizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.sample_len(rng);
            (0..n).map(|_| self.elem.sample(rng)).collect()
        }
    }

    /// `Vec` of values from `elem`, length drawn from `len`.
    pub fn vec<S: Strategy, L: SizeRange>(elem: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { elem, len }
    }

    /// A strategy for `HashSet<S::Value>`.
    pub struct HashSetStrategy<S, L> {
        elem: S,
        len: L,
    }

    impl<S: Strategy, L: SizeRange> Strategy for HashSetStrategy<S, L>
    where
        S::Value: Eq + Hash,
    {
        type Value = HashSet<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> HashSet<S::Value> {
            let n = self.len.sample_len(rng);
            let mut out = HashSet::with_capacity(n);
            // Bounded retries so low-entropy element strategies terminate.
            let mut attempts = 0;
            while out.len() < n && attempts < n * 20 + 100 {
                out.insert(self.elem.sample(rng));
                attempts += 1;
            }
            out
        }
    }

    /// `HashSet` of values from `elem`, target size drawn from `len`.
    pub fn hash_set<S: Strategy, L: SizeRange>(elem: S, len: L) -> HashSetStrategy<S, L>
    where
        S::Value: Eq + Hash,
    {
        HashSetStrategy { elem, len }
    }
}

/// Re-exports mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy,
    };
    /// The `prop` module alias proptest's prelude provides.
    pub mod prop {
        pub use crate::collection;
    }
}

/// Shorthand module (`proptest::strategy::Strategy` path compatibility).
pub mod strategy {
    pub use crate::{BoxedStrategy, Just, Map, Strategy, Union};
}

/// Runs the cases of one property (called by the [`proptest!`] expansion).
pub fn run_cases(
    test_name: &str,
    cases: u32,
    mut body: impl FnMut(&mut TestRng) -> TestCaseResult,
) {
    let mut ran = 0u32;
    let mut attempts = 0u32;
    while ran < cases {
        attempts += 1;
        assert!(
            attempts < cases * 20 + 1000,
            "{test_name}: too many rejected cases (prop_assume! filters nearly everything)"
        );
        let mut rng = TestRng::for_case(test_name, u64::from(attempts));
        if let Ok(()) = body(&mut rng) {
            ran += 1;
        }
    }
}

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running the body over sampled inputs.
#[macro_export]
macro_rules! proptest {
    // Internal: expand each property fn. The `#[test]` attribute comes
    // from the call site (every property here writes it explicitly, as
    // upstream proptest's docs show). Arguments are parsed by the
    // `@bind` muncher so `pat in strategy` and `name: Type` forms mix.
    (@cases $cases:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($args:tt)*) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            $crate::run_cases(stringify!($name), $cases, |__rng| {
                $crate::proptest!(@bind __rng; $($args)*);
                $body
                Ok(())
            });
        }
    )*};
    // Argument binder: `pat in strategy` draws from the strategy,
    // `name: Type` draws from `any::<Type>()`.
    (@bind $rng:ident;) => {};
    (@bind $rng:ident; $arg:pat in $strat:expr) => {
        let $arg = $crate::Strategy::sample(&($strat), $rng);
    };
    (@bind $rng:ident; $arg:pat in $strat:expr, $($rest:tt)*) => {
        let $arg = $crate::Strategy::sample(&($strat), $rng);
        $crate::proptest!(@bind $rng; $($rest)*);
    };
    (@bind $rng:ident; $arg:ident : $ty:ty) => {
        let $arg: $ty = $crate::Strategy::sample(&$crate::any::<$ty>(), $rng);
    };
    (@bind $rng:ident; $arg:ident : $ty:ty, $($rest:tt)*) => {
        let $arg: $ty = $crate::Strategy::sample(&$crate::any::<$ty>(), $rng);
        $crate::proptest!(@bind $rng; $($rest)*);
    };
    // With a leading #![proptest_config(...)].
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@cases ($cfg).cases; $($rest)*);
    };
    // Without a config: default case count.
    ($($rest:tt)*) => {
        $crate::proptest!(@cases $crate::ProptestConfig::default().cases; $($rest)*);
    };
}

/// Asserts a condition inside a property body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond); };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*); };
}

/// Asserts equality inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b); };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*); };
}

/// Asserts inequality inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b); };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_ne!($a, $b, $($fmt)*); };
}

/// Skips the current case unless the condition holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return Err($crate::CaseRejected);
        }
    };
}

/// Uniform choice among strategies yielding the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($(|$weight:expr =>|)? $strat:expr),+ $(,)?) => {
        $crate::Union(vec![$($crate::Strategy::boxed($strat)),+])
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_sample_in_bounds(x in 3u64..17, f in 0.0f64..1.0) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((0.0..1.0).contains(&f));
        }

        #[test]
        fn vec_length_respected(v in prop::collection::vec(any::<u8>(), 2..9)) {
            prop_assert!((2..9).contains(&v.len()));
        }

        #[test]
        fn oneof_and_just(v in prop_oneof![Just(1u8), Just(2u8), (5u8..7).prop_map(|x| x)]) {
            prop_assert!(v == 1 || v == 2 || v == 5 || v == 6);
        }

        #[test]
        fn assume_rejects(v in any::<u8>(), flag: bool) {
            let _ = flag;
            prop_assume!(v % 2 == 0);
            prop_assert_eq!(v % 2, 0);
        }

        #[test]
        fn tuples_and_arrays((a, b) in (any::<[u8; 16]>(), any::<u32>())) {
            prop_assert_eq!(a.len(), 16);
            let _ = b;
        }
    }

    #[test]
    fn deterministic_sampling() {
        use super::{Strategy, TestRng};
        let s = super::collection::vec(super::any::<u64>(), 0..10);
        let a = s.sample(&mut TestRng::for_case("t", 1));
        let b = s.sample(&mut TestRng::for_case("t", 1));
        assert_eq!(a, b);
    }
}
