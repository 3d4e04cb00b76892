//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset the workspace's property tests use: the
//! [`proptest!`] macro, range / `any` / `Just` / tuple / collection /
//! option strategies, `prop_map`, `prop_oneof!`, and the
//! `prop_assert*` macros. Two deliberate simplifications versus the
//! real crate:
//!
//! * **No shrinking.** A failing case panics with the case number and
//!   the failed assertion; inputs are reproducible because…
//! * **Deterministic seeding.** The RNG seed is derived from the test
//!   function's name, so every run of a given test explores the same
//!   cases. Flakes cannot appear or vanish between CI runs.

use std::ops::{Range, RangeInclusive};

/// Deterministic splitmix64 stream used by all strategies.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed from a test name (FNV-1a over the bytes).
    pub fn from_name(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        Self { state: h }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0);
        self.next_u64() % n
    }
}

/// A generator of values for one test argument.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draw one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Chain a value-dependent strategy.
    fn prop_flat_map<U: Strategy, F: Fn(Self::Value) -> U>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }

    /// Reject generated values that fail `pred` (resampled, bounded).
    fn prop_filter<F: Fn(&Self::Value) -> bool>(
        self,
        reason: &'static str,
        pred: F,
    ) -> Filter<Self, F>
    where
        Self: Sized,
    {
        Filter {
            inner: self,
            reason,
            pred,
        }
    }

    /// Type-erase for heterogeneous unions ([`prop_oneof!`]).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(std::rc::Rc::new(self))
    }
}

/// Object-safe sampling, for boxed strategies.
trait SampleObj {
    type Value;
    fn sample_obj(&self, rng: &mut TestRng) -> Self::Value;
}

impl<S: Strategy> SampleObj for S {
    type Value = S::Value;
    fn sample_obj(&self, rng: &mut TestRng) -> S::Value {
        self.sample(rng)
    }
}

/// A type-erased strategy.
pub struct BoxedStrategy<T>(std::rc::Rc<dyn SampleObj<Value = T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(std::rc::Rc::clone(&self.0))
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        self.0.sample_obj(rng)
    }
}

/// See [`Strategy::prop_map`].
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

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U: Strategy, F: Fn(S::Value) -> U> Strategy for FlatMap<S, F> {
    type Value = U::Value;
    fn sample(&self, rng: &mut TestRng) -> U::Value {
        (self.f)(self.inner.sample(rng)).sample(rng)
    }
}

/// See [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    inner: S,
    reason: &'static str,
    pred: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..1000 {
            let v = self.inner.sample(rng);
            if (self.pred)(&v) {
                return v;
            }
        }
        panic!(
            "prop_filter '{}' rejected 1000 samples in a row",
            self.reason
        );
    }
}

/// Always produces a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// A union of same-valued strategies, sampled uniformly.
pub struct Union<T>(pub Vec<BoxedStrategy<T>>);

impl<T> Union<T> {
    /// Build from boxed arms.
    pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union(arms)
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.0.len() as u64) as usize;
        self.0[i].sample(rng)
    }
}

macro_rules! impl_float_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty float range");
                self.start + (self.end - self.start) * rng.next_f64() as $t
            }
        }
    )*};
}

impl_float_strategy!(f64, f32);

macro_rules! impl_int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty int range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let off = (rng.next_u64() as u128) % span;
                (self.start as i128 + off as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty int range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let off = (rng.next_u64() as u128) % span;
                (lo as i128 + off as i128) as $t
            }
        }
    )*};
}

impl_int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

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
impl_tuple_strategy!(A, B, C, D, E, F, G);
impl_tuple_strategy!(A, B, C, D, E, F, G, H);

/// Types with a full-range canonical strategy (see [`any`]).
pub trait Arbitrary: Sized {
    /// Draw one canonical value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        // Finite and sign-symmetric; magnitude up to ±1e6.
        (rng.next_f64() * 2.0 - 1.0) * 1e6
    }
}

/// The canonical strategy for `T` (full range for integers).
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// `any::<T>()` — the canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// `Vec` strategies.
pub mod collection {
    use crate::{Strategy, TestRng};
    use std::ops::Range;

    /// A `Vec` whose length is drawn from `len` and whose elements
    /// come from `elem`.
    pub struct VecStrategy<S> {
        elem: S,
        len: Range<usize>,
    }

    /// Build a [`VecStrategy`].
    pub fn vec<S: Strategy>(elem: S, len: Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "empty length range");
        VecStrategy { elem, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.len.end - self.len.start) as u64;
            let n = self.len.start + rng.below(span) as usize;
            (0..n).map(|_| self.elem.sample(rng)).collect()
        }
    }
}

/// `Option` strategies.
pub mod option {
    use crate::{Strategy, TestRng};

    /// `None` a quarter of the time, `Some(inner)` otherwise.
    pub struct OptionStrategy<S>(S);

    /// Build an [`OptionStrategy`].
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.0.sample(rng))
            }
        }
    }
}

/// Alias namespace, mirroring `proptest::prop::*`.
pub mod prop {
    pub use crate::collection;
    pub use crate::option;
}

/// Per-block configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases each test runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config with an explicit case count.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

/// A failed assertion inside a property body.
pub type TestCaseError = String;

/// Test-runner internals used by the generated code.
pub mod runner {
    use super::{ProptestConfig, Strategy, TestCaseError, TestRng};

    /// Run `body` against `cases` samples of `strategy`; panic on the
    /// first failure with the case number.
    pub fn run<S: Strategy>(
        name: &str,
        config: &ProptestConfig,
        strategy: &S,
        body: impl Fn(S::Value) -> Result<(), TestCaseError>,
    ) {
        let mut rng = TestRng::from_name(name);
        for case in 0..config.cases {
            if let Err(e) = body(strategy.sample(&mut rng)) {
                panic!(
                    "property '{name}' failed at case {case}/{}: {e}",
                    config.cases
                );
            }
        }
    }
}

/// Define property tests. Supports an optional leading
/// `#![proptest_config(...)]` and any number of
/// `fn name(arg in strategy, ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::ProptestConfig::default()); $($rest)* }
    };
}

/// Internal expansion helper for [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr); $(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let config = $cfg;
            let strategy = ($($strat,)+);
            $crate::runner::run(stringify!($name), &config, &strategy, |($($arg,)+)| {
                $body
                Ok(())
            });
        }
        $crate::__proptest_items! { ($cfg); $($rest)* }
    };
    (($cfg:expr);) => {};
}

/// Fail the current property case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {} ({}:{})",
                stringify!($cond),
                file!(),
                line!()
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!($($fmt)+));
        }
    };
}

/// Fail the current property case unless the two values are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {
        // `match` keeps scrutinee temporaries alive across the comparison,
        // exactly like `std::assert_eq!`.
        match (&$left, &$right) {
            (l, r) => {
                if !(*l == *r) {
                    return Err(format!(
                        "assert_eq failed ({}:{}): {:?} != {:?}",
                        file!(),
                        line!(),
                        l,
                        r
                    ));
                }
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (l, r) => {
                if !(*l == *r) {
                    return Err(format!("{}: {:?} != {:?}", format!($($fmt)+), l, r));
                }
            }
        }
    };
}

/// Skip the current case unless `cond` holds (counted as a pass).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Ok(());
        }
    };
}

/// One-stop imports, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest, Arbitrary,
        BoxedStrategy, Just, ProptestConfig, Strategy, TestRng,
    };
}

/// Uniformly choose among strategies producing the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(50))]
        #[test]
        fn ranges_and_maps(x in 0u32..10, f in 0.5f64..1.0, v in prop::collection::vec(0usize..3, 1..5)) {
            prop_assert!(x < 10);
            prop_assert!((0.5..1.0).contains(&f));
            prop_assert!(!v.is_empty() && v.len() < 5);
            prop_assert!(v.iter().all(|&e| e < 3));
        }

        #[test]
        fn oneof_and_just(choice in prop_oneof![Just(1u8), Just(2u8), (5u8..7).prop_map(|v| v)]) {
            prop_assert!(matches!(choice, 1 | 2 | 5 | 6), "got {choice}");
        }

        #[test]
        fn options_hit_both_variants(opts in prop::collection::vec(prop::option::of(0u8..5), 32..33)) {
            let nones = opts.iter().filter(|o| o.is_none()).count();
            prop_assert!(nones < 32, "all none");
        }
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failures_panic_with_case_number() {
        crate::runner::run(
            "always_fails",
            &ProptestConfig::with_cases(3),
            &(0u32..10),
            |_| Err("boom".to_string()),
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let strat = (0u64..1000, 0.0f64..1.0);
        let mut a = TestRng::from_name("x");
        let mut b = TestRng::from_name("x");
        for _ in 0..20 {
            assert_eq!(strat.sample(&mut a), strat.sample(&mut b));
        }
    }
}
