//! Offline stand-in for the `proptest` crate.
//!
//! The build environment cannot reach a crate registry, so the workspace
//! vendors the subset of proptest its tests use: the [`proptest!`] macro
//! (both `x: Type` and `x in strategy` parameter forms), [`Strategy`](strategy::Strategy) with
//! `prop_map`/`boxed`, ranges and tuples as strategies, `any::<T>()`,
//! `Just`, `prop_oneof!`, `prop::collection::vec`, `prop::option::of`,
//! `ProptestConfig`, and the `prop_assert*` macros.
//!
//! Differences from real proptest, deliberately accepted:
//! * **No shrinking** — a failing case panics with the generated values in
//!   scope, it is not minimized.
//! * **Deterministic seeding** — every test function walks the same
//!   SplitMix64 stream, so failures reproduce exactly across runs.
//! * `prop_assert*` panic (via `assert*`) instead of returning `Err`.

// ------------------------------------------------------------ test_runner

pub mod test_runner {
    /// Runner configuration; only `cases` is honoured.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    /// SplitMix64: tiny, seedable, and plenty random for property tests.
    #[derive(Debug, Clone)]
    pub struct TestRng(u64);

    impl TestRng {
        pub fn deterministic() -> Self {
            TestRng(0x9E37_79B9_7F4A_7C15)
        }

        pub fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, 1)` with 53 bits of precision.
        pub fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }

        /// Uniform in `[0, bound)`; `bound == 0` yields 0.
        pub fn below(&mut self, bound: u64) -> u64 {
            if bound == 0 {
                0
            } else {
                self.next_u64() % bound
            }
        }
    }
}

// --------------------------------------------------------------- strategy

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::rc::Rc;

    /// A recipe for producing values.  Unlike real proptest there is no
    /// value tree: `generate` returns the value directly, with no
    /// shrinking information.
    pub trait Strategy {
        type Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { strat: self, f }
        }

        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Rc::new(self))
        }
    }

    trait DynStrategy<T> {
        fn generate_dyn(&self, rng: &mut TestRng) -> T;
    }

    impl<S: Strategy> DynStrategy<S::Value> for S {
        fn generate_dyn(&self, rng: &mut TestRng) -> S::Value {
            self.generate(rng)
        }
    }

    /// Type-erased strategy (`Strategy::boxed`, `prop_oneof!` arms).
    pub struct BoxedStrategy<T>(Rc<dyn DynStrategy<T>>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(Rc::clone(&self.0))
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0.generate_dyn(rng)
        }
    }

    /// Always produces a clone of the given value.
    #[derive(Clone, Copy, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    pub struct Map<S, F> {
        strat: S,
        f: F,
    }

    impl<S, U, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> U,
    {
        type Value = U;
        fn generate(&self, rng: &mut TestRng) -> U {
            (self.f)(self.strat.generate(rng))
        }
    }

    /// Uniform choice between same-valued strategies (`prop_oneof!`).
    pub struct Union<T> {
        arms: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.arms.len() as u64) as usize;
            self.arms[i].generate(rng)
        }
    }

    macro_rules! int_range_strategies {
        ($($t:ty),* $(,)?) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let off = (rng.next_u64() as u128 % span) as i128;
                    (self.start as i128 + off) as $t
                }
            }

            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start() as i128, *self.end() as i128);
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi - lo + 1) as u128;
                    let off = (rng.next_u64() as u128 % span) as i128;
                    (lo + off) as $t
                }
            }
        )*};
    }

    int_range_strategies!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! float_range_strategies {
        ($($t:ty),* $(,)?) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    self.start + rng.next_f64() as $t * (self.end - self.start)
                }
            }
        )*};
    }

    float_range_strategies!(f32, f64);

    macro_rules! tuple_strategies {
        ($(($($S:ident . $idx:tt),+))*) => {$(
            impl<$($S: Strategy),+> Strategy for ($($S,)+) {
                type Value = ($($S::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }

    tuple_strategies! {
        (S0.0)
        (S0.0, S1.1)
        (S0.0, S1.1, S2.2)
        (S0.0, S1.1, S2.2, S3.3)
        (S0.0, S1.1, S2.2, S3.3, S4.4)
        (S0.0, S1.1, S2.2, S3.3, S4.4, S5.5)
        (S0.0, S1.1, S2.2, S3.3, S4.4, S5.5, S6.6)
        (S0.0, S1.1, S2.2, S3.3, S4.4, S5.5, S6.6, S7.7)
    }
}

// -------------------------------------------------------------- arbitrary

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    pub trait Arbitrary: Sized {
        type Strategy: Strategy<Value = Self>;
        fn arbitrary() -> Self::Strategy;
    }

    pub fn any<T: Arbitrary>() -> T::Strategy {
        T::arbitrary()
    }

    /// Full-range strategy for a primitive.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct AnyPrimitive<T>(std::marker::PhantomData<T>);

    macro_rules! arbitrary_ints {
        ($($t:ty),* $(,)?) => {$(
            impl Strategy for AnyPrimitive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }

            impl Arbitrary for $t {
                type Strategy = AnyPrimitive<$t>;
                fn arbitrary() -> Self::Strategy {
                    AnyPrimitive(std::marker::PhantomData)
                }
            }
        )*};
    }

    arbitrary_ints!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for AnyPrimitive<bool> {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for bool {
        type Strategy = AnyPrimitive<bool>;
        fn arbitrary() -> Self::Strategy {
            AnyPrimitive(std::marker::PhantomData)
        }
    }

    macro_rules! arbitrary_floats {
        ($($t:ty),* $(,)?) => {$(
            impl Strategy for AnyPrimitive<$t> {
                type Value = $t;
                // Finite values only: every consumer in this workspace does
                // arithmetic assertions that NaN/inf would vacuously break.
                fn generate(&self, rng: &mut TestRng) -> $t {
                    ((rng.next_f64() - 0.5) * 2e9) as $t
                }
            }

            impl Arbitrary for $t {
                type Strategy = AnyPrimitive<$t>;
                fn arbitrary() -> Self::Strategy {
                    AnyPrimitive(std::marker::PhantomData)
                }
            }
        )*};
    }

    arbitrary_floats!(f32, f64);
}

// ------------------------------------------------------------- collection

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Accepted sizes for collections: an exact count or a half-open range.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange { lo: r.start, hi: r.end }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange { lo: *r.start(), hi: *r.end() + 1 }
        }
    }

    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { elem, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

// ----------------------------------------------------------------- option

pub mod option {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    pub struct OptionStrategy<S>(S);

    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            // Bias toward Some, like real proptest's default weight.
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.0.generate(rng))
            }
        }
    }
}

// ----------------------------------------------------------------- macros

/// Defines `#[test]` functions whose arguments are generated from
/// strategies.  Supports `x: Type` (via [`arbitrary::Arbitrary`]) and
/// `[mut] x in strategy` parameters, plus an optional leading
/// `#![proptest_config(...)]`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($config:expr)) => {};
    (($config:expr)
     $(#[$meta:meta])*
     fn $name:ident($($params:tt)*) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            $crate::__proptest_case! { ($config) [] [] $($params)* ; $body }
        }
        $crate::__proptest_items! { ($config) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_case {
    // All parameters consumed: run the cases.
    (($config:expr) [$($pat:tt)*] [$($strat:expr,)*] ; $body:block) => {{
        let __config = $config;
        let __strategy = ($($strat,)*);
        let mut __rng = $crate::test_runner::TestRng::deterministic();
        for _ in 0..__config.cases {
            let ($($pat)*) = $crate::strategy::Strategy::generate(&__strategy, &mut __rng);
            $body
        }
    }};
    // `mut x in strategy`
    (($config:expr) [$($pat:tt)*] [$($strat:expr,)*] mut $v:ident in $s:expr ; $body:block) => {
        $crate::__proptest_case! { ($config) [$($pat)* mut $v,] [$($strat,)* $s,] ; $body }
    };
    (($config:expr) [$($pat:tt)*] [$($strat:expr,)*] mut $v:ident in $s:expr , $($rest:tt)*) => {
        $crate::__proptest_case! { ($config) [$($pat)* mut $v,] [$($strat,)* $s,] $($rest)* }
    };
    // `x in strategy`
    (($config:expr) [$($pat:tt)*] [$($strat:expr,)*] $v:ident in $s:expr ; $body:block) => {
        $crate::__proptest_case! { ($config) [$($pat)* $v,] [$($strat,)* $s,] ; $body }
    };
    (($config:expr) [$($pat:tt)*] [$($strat:expr,)*] $v:ident in $s:expr , $($rest:tt)*) => {
        $crate::__proptest_case! { ($config) [$($pat)* $v,] [$($strat,)* $s,] $($rest)* }
    };
    // `x: Type`
    (($config:expr) [$($pat:tt)*] [$($strat:expr,)*] $v:ident : $t:ty ; $body:block) => {
        $crate::__proptest_case! {
            ($config) [$($pat)* $v,] [$($strat,)* $crate::arbitrary::any::<$t>(),] ; $body
        }
    };
    (($config:expr) [$($pat:tt)*] [$($strat:expr,)*] $v:ident : $t:ty , $($rest:tt)*) => {
        $crate::__proptest_case! {
            ($config) [$($pat)* $v,] [$($strat,)* $crate::arbitrary::any::<$t>(),] $($rest)*
        }
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_ne!($a, $b, $($fmt)+) };
}

/// Uniform choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

pub mod prelude {
    pub use crate as prop;
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[derive(Clone, Debug, PartialEq)]
    enum Op {
        Add(u8),
        Pop,
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![(1u8..5).prop_map(Op::Add), Just(Op::Pop)]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_respect_bounds(x in 3u64..17, y in -4i32..=4, f in -2.0f64..2.0) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-4..=4).contains(&y));
            prop_assert!((-2.0..2.0).contains(&f), "f = {f}");
        }

        #[test]
        fn typed_params_and_tuples(a: u16, b: bool, pair in (0u8..4, 10u32..14)) {
            let _ = (a, b);
            prop_assert!(pair.0 < 4 && (10..14).contains(&pair.1));
        }

        #[test]
        fn vec_sizes_and_oneof(mut ops in prop::collection::vec(arb_op(), 1..20)) {
            prop_assert!((1..20).contains(&ops.len()));
            ops.push(Op::Pop);
            for op in &ops {
                if let Op::Add(n) = op {
                    prop_assert!((1..5).contains(n));
                }
            }
        }

        #[test]
        fn exact_vec_size_and_option(mask in prop::collection::vec(any::<bool>(), 8),
                                     maybe in prop::option::of(0u8..9)) {
            prop_assert_eq!(mask.len(), 8);
            if let Some(v) = maybe {
                prop_assert!(v < 9);
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;
        let s = 0u64..1_000_000;
        let a: Vec<u64> = (0..16).map(|_| s.generate(&mut TestRng::deterministic())).collect();
        let mut rng = TestRng::deterministic();
        let first = s.generate(&mut rng);
        assert!(a.iter().all(|&v| v == a[0]) && first == a[0]);
    }
}
