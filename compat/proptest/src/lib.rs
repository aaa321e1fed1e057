//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no crates.io access, so this crate provides
//! the subset of proptest 1.x the workspace uses: the [`Strategy`] trait
//! with `prop_map`, [`Just`], [`any`], integer-range and tuple strategies,
//! `proptest::collection::vec`, `proptest::option::of`,
//! `proptest::sample::subsequence`, the `proptest!` / `prop_assert*` /
//! `prop_assume!` / `prop_oneof!` macros, and `ProptestConfig`.
//!
//! Semantics: each test runs `cases` deterministic random cases (seeded
//! from the test's name, overridable count via `PROPTEST_CASES`).
//! Failing inputs are reported with their `Debug` form. Unlike real
//! proptest there is **no shrinking** — the first failing input is
//! reported as-is — and no persistence of failure seeds. For a CI gate
//! that is a reporting-quality difference, not a soundness one.

#![forbid(unsafe_code)]

// Lets this crate's own tests (and macro expansions that spell out
// `proptest::...`) refer to the crate by its public name.
extern crate self as proptest;

use rand::rngs::StdRng;
use rand::Rng;

/// A generator of values of type `Self::Value`.
///
/// Object-safe core (`new_value`) plus sized combinators, mirroring the
/// parts of proptest's `Strategy` the workspace calls.
pub trait Strategy {
    /// The type of values this strategy generates.
    type Value;

    /// Draws one value.
    fn new_value(&self, rng: &mut StdRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Generates values satisfying `f`; cases whose draws fail the filter
    /// are rejected and retried (bounded by the runner's reject budget).
    fn prop_filter<F>(self, whence: &'static str, f: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter { inner: self, whence, f }
    }

    /// Erases the concrete strategy type.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

impl<V> Strategy for Box<dyn Strategy<Value = V>> {
    type Value = V;

    fn new_value(&self, rng: &mut StdRng) -> V {
        (**self).new_value(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;

    fn new_value(&self, rng: &mut StdRng) -> S::Value {
        (**self).new_value(rng)
    }
}

/// Strategy yielding a single constant value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn new_value(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn new_value(&self, rng: &mut StdRng) -> O {
        (self.f)(self.inner.new_value(rng))
    }
}

/// See [`Strategy::prop_filter`]. Draws are retried locally (up to a
/// bound) until the predicate passes.
pub struct Filter<S, F> {
    inner: S,
    whence: &'static str,
    f: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;

    fn new_value(&self, rng: &mut StdRng) -> S::Value {
        for _ in 0..10_000 {
            let v = self.inner.new_value(rng);
            if (self.f)(&v) {
                return v;
            }
        }
        panic!("prop_filter '{}' rejected 10000 consecutive draws", self.whence);
    }
}

/// Types with a canonical "uniform over the whole domain" strategy.
pub trait Arbitrary: Sized {
    /// Draws one arbitrary value.
    fn arbitrary(rng: &mut StdRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut StdRng) -> Self {
                rng.gen::<$t>()
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool);

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut StdRng) -> Self {
        rng.gen::<f64>()
    }
}

/// Strategy produced by [`any`].
pub struct AnyStrategy<T> {
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;

    fn new_value(&self, rng: &mut StdRng) -> T {
        T::arbitrary(rng)
    }
}

/// Uniform strategy over all values of `T`.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy { _marker: std::marker::PhantomData }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn new_value(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.new_value(rng),)+)
            }
        }
    )*};
}
impl_tuple_strategy! {
    (S0.0)
    (S0.0, S1.1)
    (S0.0, S1.1, S2.2)
    (S0.0, S1.1, S2.2, S3.3)
    (S0.0, S1.1, S2.2, S3.3, S4.4)
    (S0.0, S1.1, S2.2, S3.3, S4.4, S5.5)
}

/// Internal strategy combinators referenced by macro expansions.
pub mod strategy {
    pub use super::{BoxedStrategy, Just, Map, Strategy};
    use rand::rngs::StdRng;
    use rand::Rng;

    /// Weighted union over type-erased arms; produced by `prop_oneof!`.
    pub struct Union<V> {
        arms: Vec<(u32, BoxedStrategy<V>)>,
        total: u64,
    }

    impl<V> Union<V> {
        /// Builds a union; weights must not all be zero.
        pub fn new_weighted(arms: Vec<(u32, BoxedStrategy<V>)>) -> Self {
            let total: u64 = arms.iter().map(|(w, _)| u64::from(*w)).sum();
            assert!(total > 0, "prop_oneof!: all weights are zero");
            Union { arms, total }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;

        fn new_value(&self, rng: &mut StdRng) -> V {
            let mut pick = rng.gen_range(0..self.total);
            for (w, arm) in &self.arms {
                let w = u64::from(*w);
                if pick < w {
                    return arm.new_value(rng);
                }
                pick -= w;
            }
            unreachable!("weighted pick out of range")
        }
    }
}

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// Inclusive size bounds for generated collections.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange { lo: r.start, hi: r.end - 1 }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange { lo: *r.start(), hi: *r.end() }
        }
    }

    /// Strategy for `Vec`s of `element` values; produced by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn new_value(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let n = rng.gen_range(self.size.lo..=self.size.hi);
            (0..n).map(|_| self.element.new_value(rng)).collect()
        }
    }

    /// Generates `Vec`s whose length falls in `size` and whose elements
    /// are drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }
}

/// `Option` strategies (`proptest::option`).
pub mod option {
    use super::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// Strategy produced by [`of`].
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn new_value(&self, rng: &mut StdRng) -> Option<S::Value> {
            if rng.gen_bool(0.5) {
                Some(self.inner.new_value(rng))
            } else {
                None
            }
        }
    }

    /// Generates `None` or `Some(value)` with equal probability.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }
}

/// Sampling strategies (`proptest::sample`).
pub mod sample {
    use super::Strategy;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::Rng;

    /// Inclusive bounds on subsequence length.
    #[derive(Debug, Clone, Copy)]
    pub struct SubseqSize {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SubseqSize {
        fn from(n: usize) -> Self {
            SubseqSize { lo: n, hi: n }
        }
    }

    impl From<std::ops::Range<usize>> for SubseqSize {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SubseqSize { lo: r.start, hi: r.end - 1 }
        }
    }

    /// Strategy produced by [`subsequence`].
    pub struct SubsequenceStrategy<T> {
        values: Vec<T>,
        size: SubseqSize,
    }

    impl<T: Clone> Strategy for SubsequenceStrategy<T> {
        type Value = Vec<T>;

        fn new_value(&self, rng: &mut StdRng) -> Vec<T> {
            let k = rng.gen_range(self.size.lo..=self.size.hi.min(self.values.len()));
            let mut idx: Vec<usize> = (0..self.values.len()).collect();
            idx.as_mut_slice().shuffle(rng);
            idx.truncate(k);
            idx.sort_unstable();
            idx.into_iter().map(|i| self.values[i].clone()).collect()
        }
    }

    /// Generates order-preserving subsequences of `values` whose length
    /// falls in `size`.
    pub fn subsequence<T: Clone>(
        values: Vec<T>,
        size: impl Into<SubseqSize>,
    ) -> SubsequenceStrategy<T> {
        let size = size.into();
        assert!(size.lo <= values.len(), "subsequence size exceeds source length");
        SubsequenceStrategy { values, size }
    }
}

/// Test-runner plumbing used by the `proptest!` macro expansion.
pub mod test_runner {
    use super::Strategy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::fmt::Debug;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

    /// Per-block configuration (`ProptestConfig` in the prelude).
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of successful cases required for the test to pass.
        pub cases: u32,
    }

    impl Config {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            let cases =
                std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(256);
            Config { cases }
        }
    }

    /// Why a single test case did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// The case's input does not satisfy the test's assumptions;
        /// drawn again without counting against `cases`.
        Reject(String),
        /// An assertion failed.
        Fail(String),
    }

    impl TestCaseError {
        /// Builds the `Fail` variant.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError::Fail(msg.into())
        }

        /// Builds the `Reject` variant.
        pub fn reject(msg: impl Into<String>) -> Self {
            TestCaseError::Reject(msg.into())
        }
    }

    /// Result type the generated test closure returns.
    pub type TestCaseResult = Result<(), TestCaseError>;

    fn seed_for(name: &str) -> u64 {
        // FNV-1a over the fully qualified test name: stable across runs
        // and processes, distinct per test.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Runs `test` against `config.cases` inputs drawn from `strategy`.
    ///
    /// Panics (failing the enclosing `#[test]`) on the first failing or
    /// panicking input, reporting the input's `Debug` form. Rejections
    /// (`prop_assume!`) retry with fresh input, within a budget.
    pub fn run_cases<S, F>(config: &Config, name: &str, strategy: &S, mut test: F)
    where
        S: Strategy,
        S::Value: Debug,
        F: FnMut(S::Value) -> TestCaseResult,
    {
        let mut rng = StdRng::seed_from_u64(seed_for(name));
        let reject_budget = 64 * u64::from(config.cases).max(1024);
        let mut rejects: u64 = 0;
        let mut passed: u32 = 0;
        while passed < config.cases {
            let value = strategy.new_value(&mut rng);
            let desc = format!("{value:?}");
            let outcome = catch_unwind(AssertUnwindSafe(|| test(value)));
            match outcome {
                Ok(Ok(())) => passed += 1,
                Ok(Err(TestCaseError::Reject(_))) => {
                    rejects += 1;
                    if rejects > reject_budget {
                        panic!(
                            "{name}: too many rejected cases ({rejects}) — \
                             assumptions too strict for this generator"
                        );
                    }
                }
                Ok(Err(TestCaseError::Fail(msg))) => {
                    panic!(
                        "{name}: property failed after {passed} passing case(s)\n\
                         input: {desc}\n{msg}"
                    );
                }
                Err(payload) => {
                    eprintln!("{name}: panic on input: {desc} (after {passed} passing case(s))");
                    resume_unwind(payload);
                }
            }
        }
    }
}

/// Commonly used items, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Arbitrary, BoxedStrategy, Just, Strategy,
    };
}

/// Defines property tests. See the crate docs for supported forms.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items!(@cfg($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items!(
            @cfg(<$crate::test_runner::Config as ::core::default::Default>::default())
            $($rest)*
        );
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (@cfg($cfg:expr)) => {};
    (@cfg($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config = $cfg;
            let strategy = ($($strat,)+);
            $crate::test_runner::run_cases(
                &config,
                concat!(module_path!(), "::", stringify!($name)),
                &strategy,
                |($($pat,)+)| {
                    $body
                    ::core::result::Result::Ok(())
                },
            );
        }
        $crate::__proptest_items!(@cfg($cfg) $($rest)*);
    };
}

/// Asserts a condition inside a `proptest!` body without panicking the
/// runner (the failing input is reported instead).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// Equality assertion form of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `(left == right)`\n  left: {:?}\n right: {:?}",
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `(left == right)`\n  left: {:?}\n right: {:?}\n{}",
            l,
            r,
            format!($($fmt)*)
        );
    }};
}

/// Inequality assertion form of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `(left != right)`\n  left: {:?}\n right: {:?}",
            l,
            r
        );
    }};
}

/// Rejects the current case (retried with fresh input) when `cond` is
/// false.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::reject(
                concat!("assumption failed: ", stringify!($cond)),
            ));
        }
    };
}

/// Chooses among several strategies, optionally weighted
/// (`weight => strategy`).
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new_weighted(vec![
            $(($weight as u32, $crate::Strategy::boxed($strat)),)+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new_weighted(vec![
            $((1u32, $crate::Strategy::boxed($strat)),)+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Debug, Clone, PartialEq)]
    enum Op {
        Read(u8),
        Skip,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            3 => any::<u8>().prop_map(Op::Read),
            1 => Just(Op::Skip),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Ranges respect their bounds; tuples compose.
        #[test]
        fn ranges_and_tuples(a in 3u32..17, (b, c) in (any::<u16>(), 1u64..=4)) {
            prop_assert!((3..17).contains(&a));
            let _ = b;
            prop_assert!((1..=4).contains(&c));
        }

        /// Vec sizes respect bounds; assume retries work.
        #[test]
        fn vecs_and_assume(v in proptest::collection::vec(op(), 1..50)) {
            prop_assume!(!v.is_empty());
            prop_assert!(v.len() < 50);
        }

        /// Subsequences preserve relative order.
        #[test]
        fn subsequence_ordered(s in proptest::sample::subsequence((0usize..20).collect::<Vec<_>>(), 10)) {
            prop_assert_eq!(s.len(), 10);
            let mut sorted = s.clone();
            sorted.sort_unstable();
            prop_assert_eq!(s, sorted);
        }

        /// Option strategy produces both variants over enough draws.
        #[test]
        fn options_mix(xs in proptest::collection::vec(proptest::option::of(0u32..10), 64..65)) {
            let somes = xs.iter().filter(|x| x.is_some()).count();
            prop_assert!(somes > 0 && somes < xs.len());
        }
    }

    #[test]
    fn failing_property_panics_with_input() {
        let result = std::panic::catch_unwind(|| {
            crate::test_runner::run_cases(
                &ProptestConfig::with_cases(16),
                "doc::always_fails",
                &(0u32..10),
                |v| {
                    prop_assert!(v >= 10, "v was {}", v);
                    Ok(())
                },
            );
        });
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("input:"), "{msg}");
    }
}
