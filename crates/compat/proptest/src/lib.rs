//! Offline stand-in for the subset of the `proptest` API this workspace
//! uses.
//!
//! The build environment has no crates.io access, so property tests are
//! written against the upstream `proptest` names and satisfied by this
//! crate through Cargo dependency renaming. Supported surface:
//!
//! * the [`proptest!`] macro with an optional
//!   `#![proptest_config(ProptestConfig::with_cases(n))]` header,
//! * `pat in strategy` arguments drawn from [`Strategy`] values,
//! * range strategies (`0.0f64..1.0`, `0usize..5`, `2usize..=7`),
//!   [`any`], tuples of strategies, `Just`,
//! * combinators [`Strategy::prop_map`], [`Strategy::prop_recursive`],
//!   [`prop_oneof!`], and `prop::collection::vec`,
//! * assertions [`prop_assert!`], [`prop_assert_eq!`], [`prop_assume!`],
//!   and [`TestCaseError`].
//!
//! Unlike upstream proptest there is **no shrinking**: a failing case
//! reports the drawn values and the failure message and panics. Cases are
//! generated from a deterministic seed derived from the test name, so
//! failures reproduce across runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::sync::Arc;

/// Runner configuration for a [`proptest!`] block.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of random cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Configuration running `cases` random cases per test.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 256 }
    }
}

/// Why a single generated case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// The case failed an assertion.
    Fail(String),
    /// The case was rejected by [`prop_assume!`] and should be skipped.
    Reject(String),
}

impl TestCaseError {
    /// A failure with the given message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }

    /// A rejection (skipped case) with the given reason.
    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestCaseError::Fail(m) => write!(f, "test case failed: {m}"),
            TestCaseError::Reject(m) => write!(f, "test case rejected: {m}"),
        }
    }
}

/// A generator of random values of one type.
pub trait Strategy {
    /// The generated type.
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

    /// Type-erases the strategy behind an [`Arc`].
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy {
            inner: Arc::new(self),
        }
    }

    /// Builds a recursive strategy: `self` generates the leaves, and
    /// `expand` wraps an inner strategy into a composite one. `depth`
    /// bounds the recursion; the remaining size hints are accepted for
    /// upstream compatibility and ignored.
    fn prop_recursive<S, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        expand: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + Clone + 'static,
        Self::Value: 'static,
        S: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> S,
    {
        let leaf = self.boxed();
        let mut level = leaf.clone();
        for _ in 0..depth {
            // Mix leaves back in at every level so generated trees have
            // varying depth, not uniformly maximal depth.
            let composite = expand(level).boxed();
            level = Union {
                options: vec![leaf.clone().inner, composite.inner],
            }
            .boxed();
        }
        level
    }
}

/// Strategy produced by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
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

/// Reference-counted type-erased strategy (clonable, reusable).
pub struct BoxedStrategy<V> {
    inner: Arc<dyn Strategy<Value = V>>,
}

impl<V> Clone for BoxedStrategy<V> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<V> fmt::Debug for BoxedStrategy<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("BoxedStrategy")
    }
}

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn new_value(&self, rng: &mut StdRng) -> V {
        self.inner.new_value(rng)
    }
}

/// Uniform choice between type-erased strategies — the engine behind
/// [`prop_oneof!`].
pub struct Union<V> {
    options: Vec<Arc<dyn Strategy<Value = V>>>,
}

impl<V> Union<V> {
    /// A union over the given options (must be non-empty).
    pub fn new(options: Vec<Arc<dyn Strategy<Value = V>>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
        Self { options }
    }
}

impl<V> Clone for Union<V> {
    fn clone(&self) -> Self {
        Self {
            options: self.options.clone(),
        }
    }
}

impl<V> fmt::Debug for Union<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Union({} options)", self.options.len())
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn new_value(&self, rng: &mut StdRng) -> V {
        let k = rng.gen_range(0..self.options.len());
        self.options[k].new_value(rng)
    }
}

/// Strategy that always yields clones of one value.
#[derive(Debug, Clone)]
pub struct Just<V: Clone>(pub V);

impl<V: Clone> Strategy for Just<V> {
    type Value = V;
    fn new_value(&self, _rng: &mut StdRng) -> V {
        self.0.clone()
    }
}

impl Strategy for std::ops::Range<f64> {
    type Value = f64;
    fn new_value(&self, rng: &mut StdRng) -> f64 {
        assert!(self.start < self.end);
        self.start + rng.gen::<f64>() * (self.end - self.start)
    }
}

impl Strategy for std::ops::RangeInclusive<f64> {
    type Value = f64;
    fn new_value(&self, rng: &mut StdRng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi);
        lo + rng.gen::<f64>() * (hi - lo)
    }
}

impl Strategy for std::ops::Range<usize> {
    type Value = usize;
    fn new_value(&self, rng: &mut StdRng) -> usize {
        rng.gen_range(self.clone())
    }
}

impl Strategy for std::ops::RangeInclusive<usize> {
    type Value = usize;
    fn new_value(&self, rng: &mut StdRng) -> usize {
        rng.gen_range(self.clone())
    }
}

impl Strategy for std::ops::Range<u64> {
    type Value = u64;
    fn new_value(&self, rng: &mut StdRng) -> u64 {
        rng.gen_range(self.clone())
    }
}

impl Strategy for std::ops::Range<i32> {
    type Value = i32;
    fn new_value(&self, rng: &mut StdRng) -> i32 {
        let span = (self.end - self.start) as u64;
        assert!(span > 0);
        self.start + (rng.gen_range(0..span as usize)) as i32
    }
}

macro_rules! tuple_strategy {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn new_value(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.new_value(rng),)+)
            }
        }
    };
}

tuple_strategy!(A: 0);
tuple_strategy!(A: 0, B: 1);
tuple_strategy!(A: 0, B: 1, C: 2);
tuple_strategy!(A: 0, B: 1, C: 2, D: 3);
tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4);
tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);
tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6);

/// Full-range strategy for primitive types (`any::<u64>()`).
pub fn any<T: AnyValue>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

/// Types [`any`] can generate.
pub trait AnyValue: Sized {
    /// Draws one arbitrary value.
    fn any_value(rng: &mut StdRng) -> Self;
}

impl AnyValue for u64 {
    fn any_value(rng: &mut StdRng) -> Self {
        rng.gen()
    }
}

impl AnyValue for u32 {
    fn any_value(rng: &mut StdRng) -> Self {
        rng.gen()
    }
}

impl AnyValue for bool {
    fn any_value(rng: &mut StdRng) -> Self {
        rng.gen()
    }
}

impl AnyValue for f64 {
    fn any_value(rng: &mut StdRng) -> Self {
        // Finite, wide-range values; property tests here want usable
        // numbers rather than bit-pattern fuzzing.
        (rng.gen::<f64>() - 0.5) * 2e12
    }
}

/// Strategy returned by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

impl<T: AnyValue> Strategy for AnyStrategy<T> {
    type Value = T;
    fn new_value(&self, rng: &mut StdRng) -> T {
        T::any_value(rng)
    }
}

/// Collection strategies, mirroring `proptest::prop::collection`.
pub mod collection {
    use super::*;

    /// Strategy for `Vec<S::Value>` with a length drawn from `len`.
    pub fn vec<S: Strategy>(element: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    /// Strategy produced by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: std::ops::Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn new_value(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let n = rng.gen_range(self.len.clone());
            (0..n).map(|_| self.element.new_value(rng)).collect()
        }
    }
}

/// The `prop` namespace of upstream proptest (`prop::collection::vec`).
pub mod prop {
    pub use super::collection;
}

/// Everything a property test needs, mirroring `proptest::prelude`.
pub mod prelude {
    pub use super::{
        any, collection, prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume,
        prop_oneof, proptest, AnyStrategy, BoxedStrategy, Just, ProptestConfig, Strategy,
        TestCaseError, Union,
    };
}

/// Runs one property test: draws `config.cases` cases, skipping
/// rejections (bounded) and panicking on the first failure.
///
/// This is the runtime behind the [`proptest!`] macro; `case` receives a
/// seeded RNG and returns the drawn-value description together with the
/// case outcome.
pub fn run_property_test<F>(test_name: &str, config: &ProptestConfig, mut case: F)
where
    F: FnMut(&mut StdRng) -> (String, Result<(), TestCaseError>),
{
    // Deterministic seed per test name so failures reproduce.
    let mut seed = 0xcbf2_9ce4_8422_2325u64;
    for b in test_name.bytes() {
        seed ^= b as u64;
        seed = seed.wrapping_mul(0x0000_0100_0000_01B3);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut passed = 0u32;
    let mut rejected = 0u32;
    let max_rejects = config.cases.saturating_mul(16).max(1024);
    while passed < config.cases {
        let (described, outcome) = case(&mut rng);
        match outcome {
            Ok(()) => passed += 1,
            Err(TestCaseError::Reject(_)) => {
                rejected += 1;
                if rejected > max_rejects {
                    panic!(
                        "{test_name}: too many rejected cases ({rejected}) — \
                         prop_assume! filter is too strict"
                    );
                }
            }
            Err(TestCaseError::Fail(msg)) => {
                panic!(
                    "{test_name}: property failed after {passed} passing cases\n\
                     inputs: {described}\n{msg}"
                );
            }
        }
    }
}

/// Declares property tests. See the crate docs for the supported syntax.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@config ($cfg) $($rest)*);
    };
    // Outer attributes (`#[test]` itself, `///` doc comments, `#[ignore]`)
    // pass through to the generated function, as upstream.
    (@config ($cfg:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:pat in $strategy:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                #[allow(unused_imports)]
                use $crate::Strategy as _;
                let config: $crate::ProptestConfig = $cfg;
                $crate::run_property_test(
                    concat!(module_path!(), "::", stringify!($name)),
                    &config,
                    |__rng| {
                        let mut __described = String::new();
                        $(
                            let __value = ($strategy).new_value(__rng);
                            __described.push_str(&format!(
                                "\n  {} = {:?}",
                                stringify!($arg),
                                __value
                            ));
                            let $arg = __value;
                        )+
                        let __outcome = (|| -> ::std::result::Result<(), $crate::TestCaseError> {
                            $body
                            Ok(())
                        })();
                        (__described, __outcome)
                    },
                );
            }
        )*
    };
    // Anything else after the config is a syntax error here, not another
    // round of the default-config arm below.
    (@config $($rest:tt)*) => {
        compile_error!("unsupported `proptest!` syntax: expected `#[test] fn name(pat in strategy, …) { … }` items");
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@config ($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// Fallible assertion inside a property test: returns
/// [`TestCaseError::Fail`] instead of panicking.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)));
    };
    ($cond:expr, $($fmt:tt)*) => {
        // if/else instead of `!` so partially-ordered conditions (float
        // comparisons) keep NaN-as-failure semantics without tripping
        // clippy::neg_cmp_op_on_partial_ord at every call site.
        if $cond {
        } else {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Equality assertion inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{:?}` == `{:?}`",
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, $($fmt)*);
    }};
}

/// Inequality assertion inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l != *r, "assertion failed: `{:?}` != `{:?}`", l, r);
    }};
}

/// Skips the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        // if/else instead of `!`: see prop_assert!.
        if $cond {
        } else {
            return ::std::result::Result::Err($crate::TestCaseError::reject(stringify!($cond)));
        }
    };
}

/// Type-erases a strategy for [`Union`] construction (used by
/// [`prop_oneof!`]; inference unifies the arms' value types here).
pub fn arc_strategy<S: Strategy + 'static>(s: S) -> Arc<dyn Strategy<Value = S::Value>> {
    Arc::new(s)
}

/// Uniform choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::arc_strategy($strategy),)+])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::run_property_test;
    use rand::SeedableRng;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in 0.0f64..1.0, n in 1usize..10) {
            prop_assert!((0.0..1.0).contains(&x));
            prop_assert!((1..10).contains(&n));
        }

        /// A doc comment before `#[test]` passes through to the test.
        #[test]
        fn doc_commented_properties_compile(n in 0usize..3) {
            prop_assert!(n < 3);
        }

        #[test]
        fn assume_skips(x in 0.0f64..1.0) {
            prop_assume!(x > 0.01);
            prop_assert!(x > 0.005);
        }

        #[test]
        fn tuples_and_maps_compose(
            v in (0.0f64..1.0, 1usize..4).prop_map(|(a, n)| vec![a; n]),
        ) {
            prop_assert!(!v.is_empty() && v.len() < 4);
        }

        #[test]
        fn oneof_and_collections(
            xs in prop::collection::vec(prop_oneof![0.0f64..1.0, 5.0f64..6.0], 1..5),
        ) {
            for x in xs {
                prop_assert!((0.0..1.0).contains(&x) || (5.0..6.0).contains(&x));
            }
        }
    }

    #[test]
    fn recursive_strategies_terminate() {
        #[derive(Debug, Clone)]
        enum Expr {
            Leaf(#[allow(dead_code)] f64),
            Sum(Vec<Expr>),
        }
        let strat = (0.0f64..1.0)
            .prop_map(Expr::Leaf)
            .prop_recursive(3, 16, 4, |inner| {
                collection::vec(inner, 1..4).prop_map(Expr::Sum)
            });
        fn depth(e: &Expr) -> usize {
            match e {
                Expr::Leaf(_) => 1,
                Expr::Sum(es) => 1 + es.iter().map(depth).max().unwrap_or(0),
            }
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut saw_composite = false;
        for _ in 0..200 {
            let e = strat.new_value(&mut rng);
            assert!(depth(&e) <= 7);
            if depth(&e) > 1 {
                saw_composite = true;
            }
        }
        assert!(saw_composite);
    }

    #[test]
    #[should_panic(expected = "property failed")]
    fn failures_panic_with_inputs() {
        run_property_test("demo", &ProptestConfig::with_cases(16), |_rng| {
            ("x = 1".to_string(), Err(TestCaseError::fail("boom")))
        });
    }
}
