//! Minimal offline stand-in for `proptest`.
//!
//! Differences from the real crate, by design:
//!
//! - Sampling is **deterministic**: each test function gets a SplitMix64
//!   stream seeded from its module path and name (xor `PROPTEST_SEED`
//!   when set), so failures reproduce exactly across runs.
//! - There is **no shrinking** — a failing case reports the case index
//!   and the assertion message only.
//! - The default case count is 64 (not 256) to keep debug-mode suites
//!   fast; `PROPTEST_CASES` overrides it, including over explicit
//!   `ProptestConfig::with_cases` values.
//!
//! Only the surface this workspace uses is implemented: integer/float
//! range strategies, `Just`, tuples, `Vec<S>`, `prop_map`,
//! `prop_flat_map`, `prop::collection::vec`, `any::<bool>()`,
//! `prop_oneof!`, and the `proptest!`/`prop_assert*`/`prop_assume!`
//! macros.

use std::fmt;
use std::ops::{Range, RangeInclusive};

// ---------------------------------------------------------------
// RNG
// ---------------------------------------------------------------

/// SplitMix64: tiny, fast, and plenty for test-case generation.
pub struct TestRng {
    state: u64,
}

impl TestRng {
    pub fn from_seed(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// Seeds deterministically from a test's full name, so every test
    /// function draws an independent, reproducible stream.
    pub fn from_name(name: &str) -> Self {
        // FNV-1a over the name.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        if let Ok(seed) = std::env::var("PROPTEST_SEED") {
            if let Ok(s) = seed.parse::<u64>() {
                h ^= s;
            }
        }
        TestRng::from_seed(h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be nonzero.
    pub fn next_below(&mut self, n: u128) -> u128 {
        debug_assert!(n > 0);
        let wide = u128::from(self.next_u64()) << 64 | u128::from(self.next_u64());
        wide % n
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

// ---------------------------------------------------------------
// Strategy
// ---------------------------------------------------------------

/// A recipe for producing random values of one type.
pub trait Strategy {
    type Value;

    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S2: Strategy,
        F: Fn(Self::Value) -> S2,
    {
        FlatMap { inner: self, f }
    }
}

/// [`Strategy::prop_map`] adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

/// [`Strategy::prop_flat_map`] adapter.
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;

    fn sample(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.sample(rng)).sample(rng)
    }
}

/// Always produces a clone of one value.
#[derive(Clone, Debug)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let width = self.end as u128 - self.start as u128;
                (self.start as u128 + rng.next_below(width)) as $t
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let width = hi as u128 - lo as u128 + 1;
                (lo as u128 + rng.next_below(width)) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! signed_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let width = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + rng.next_below(width) as i128) as $t
            }
        }
    )*};
}

signed_range_strategy!(i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn sample(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

macro_rules! tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

/// A vector of strategies samples element-wise (used for per-dimension
/// dependent strategies).
impl<S: Strategy> Strategy for Vec<S> {
    type Value = Vec<S::Value>;

    fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
        self.iter().map(|s| s.sample(rng)).collect()
    }
}

/// Uniform choice among same-typed strategies (`prop_oneof!`).
pub struct OneOf<S>(pub Vec<S>);

impl<S: Strategy> Strategy for OneOf<S> {
    type Value = S::Value;

    fn sample(&self, rng: &mut TestRng) -> S::Value {
        assert!(!self.0.is_empty(), "prop_oneof! needs at least one arm");
        let i = rng.next_below(self.0.len() as u128) as usize;
        self.0[i].sample(rng)
    }
}

// ---------------------------------------------------------------
// any / Arbitrary
// ---------------------------------------------------------------

/// Types with a canonical whole-domain strategy.
pub trait Arbitrary: Sized {
    type Strategy: Strategy<Value = Self>;

    fn arbitrary() -> Self::Strategy;
}

/// The canonical strategy for `T` (`any::<bool>()` etc.).
pub fn any<T: Arbitrary>() -> T::Strategy {
    T::arbitrary()
}

pub struct AnyBool;

impl Strategy for AnyBool {
    type Value = bool;

    fn sample(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for bool {
    type Strategy = AnyBool;

    fn arbitrary() -> AnyBool {
        AnyBool
    }
}

macro_rules! arbitrary_full_range {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            type Strategy = RangeInclusive<$t>;

            fn arbitrary() -> Self::Strategy {
                <$t>::MIN..=<$t>::MAX
            }
        }
    )*};
}

arbitrary_full_range!(u8, u16, u32, u64, usize);

// ---------------------------------------------------------------
// Collections
// ---------------------------------------------------------------

pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Element counts for collection strategies.
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n,
                hi_inclusive: n,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty collection size range");
            SizeRange {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty collection size range");
            SizeRange {
                lo: *r.start(),
                hi_inclusive: *r.end(),
            }
        }
    }

    /// Strategy for vectors with random length and elements.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let width = self.size.hi_inclusive - self.size.lo + 1;
            let len = self.size.lo + rng.next_below(width as u128) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// `prop::collection::vec(element, size)`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// Namespace mirror so `prop::collection::vec` works as in the real
/// crate's prelude.
pub mod prop {
    pub use crate::collection;
}

// ---------------------------------------------------------------
// Runner plumbing
// ---------------------------------------------------------------

/// Per-block configuration; only `cases` is meaningful here.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig {
            cases: env_cases().unwrap_or(cases),
        }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: env_cases().unwrap_or(64),
        }
    }
}

fn env_cases() -> Option<u32> {
    std::env::var("PROPTEST_CASES").ok()?.parse().ok()
}

/// A failed property within one generated case.
#[derive(Debug)]
pub struct TestCaseError {
    msg: String,
}

impl TestCaseError {
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError { msg: msg.into() }
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

// ---------------------------------------------------------------
// Macros
// ---------------------------------------------------------------

/// Declares property tests. Each `fn name(pat in strategy, ...)` body
/// runs `config.cases` times with freshly sampled inputs; the body may
/// `return Ok(())` to skip the rest of a case.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident ( $($pat:pat_param in $strat:expr),+ $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            let mut __rng = $crate::TestRng::from_name(
                concat!(module_path!(), "::", stringify!($name)),
            );
            for __case in 0..__cfg.cases {
                $(let $pat = $crate::Strategy::sample(&($strat), &mut __rng);)+
                let __result: ::std::result::Result<(), $crate::TestCaseError> =
                    (|| { $body ::std::result::Result::Ok(()) })();
                if let ::std::result::Result::Err(e) = __result {
                    panic!(
                        "proptest case {}/{} for `{}` failed: {}",
                        __case + 1,
                        __cfg.cases,
                        stringify!($name),
                        e
                    );
                }
            }
        }
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
}

/// Asserts a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Skips the rest of a case whose inputs do not meet a precondition.
/// Unlike the real crate, the skipped case is not replaced by a fresh
/// draw: it counts toward `cases`.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(, $($fmt:tt)+)?) => {
        if !$cond {
            return ::std::result::Result::Ok(());
        }
    };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (__l, __r) = (&$a, &$b);
        if !(__l == __r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{:?}` == `{:?}`",
                __l, __r
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$a, &$b);
        if !(__l == __r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{:?}` == `{:?}`: {}",
                __l,
                __r,
                format!($($fmt)+)
            )));
        }
    }};
}

/// Asserts inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (__l, __r) = (&$a, &$b);
        if __l == __r {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{:?}` != `{:?}`",
                __l, __r
            )));
        }
    }};
}

/// Uniform choice among strategies producing the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::OneOf(vec![$($strat),+])
    };
}

/// The glob-import surface used by tests (`use proptest::prelude::*`).
pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Arbitrary, Just, ProptestConfig, Strategy, TestCaseError,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn sampling_is_deterministic_per_name() {
        let mut a = crate::TestRng::from_name("x");
        let mut b = crate::TestRng::from_name("x");
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = crate::TestRng::from_seed(7);
        for _ in 0..1000 {
            let v = (3u64..9).sample(&mut rng);
            assert!((3..9).contains(&v));
            let w = (0u8..=255).sample(&mut rng);
            let _ = w;
            let f = (-2.0f64..2.0).sample(&mut rng);
            assert!((-2.0..2.0).contains(&f));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_plumbing_works(v in prop::collection::vec(1u64..=5, 1..=4), flip in any::<bool>()) {
            prop_assert!(!v.is_empty());
            prop_assert!(v.iter().all(|&x| (1..=5).contains(&x)));
            if flip {
                return Ok(());
            }
            prop_assert_eq!(v.len(), v.len());
        }
    }
}
