//! Offline stand-in for `proptest`.
//!
//! A miniature property-testing framework that is source-compatible
//! with the subset of the real crate this workspace uses: the
//! `proptest!` macro, `any::<T>()`, integer-range strategies, string
//! pattern strategies (a small regex subset), `prop_map` /
//! `prop_filter`, `prop_oneof!`, `collection::vec`, and the
//! `prop_assert*` macros. Inputs are generated deterministically from
//! the test name, so failures reproduce; there is no shrinking — the
//! failing input is printed instead.

use std::ops::Range;

/// Deterministic RNG used to generate test cases (SplitMix64).
pub struct TestRng {
    state: u64,
}

impl TestRng {
    pub fn new(seed: u64) -> TestRng {
        TestRng { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// A generator of values of one type.
///
/// Unlike the real proptest there is no shrinking, so a strategy is
/// just a deterministic function of the RNG stream.
pub trait Strategy {
    type Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    fn prop_filter<F>(self, reason: &'static str, pred: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter {
            inner: self,
            pred,
            reason,
        }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Strategy returned by [`Strategy::prop_filter`]. Regenerates until
/// the predicate accepts (bounded; panics if the filter is too tight).
pub struct Filter<S, F> {
    inner: S,
    pred: F,
    reason: &'static str,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..10_000 {
            let v = self.inner.generate(rng);
            if (self.pred)(&v) {
                return v;
            }
        }
        panic!("prop_filter({:?}) rejected 10000 candidates", self.reason);
    }
}

/// Always produces a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical "any value" strategy (subset of the real
/// `Arbitrary`).
pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

/// Strategy for the full value range of `T` (see [`Arbitrary`]).
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

/// `any::<T>()` — the canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! arbitrary_int {
    ($($t:ty),+) => {
        $(impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        })+
    };
}
arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        // Full bit range (includes NaN/infinities, like the real crate);
        // tests that need finite values filter explicitly.
        f64::from_bits(rng.next_u64())
    }
}

impl Arbitrary for f32 {
    fn arbitrary(rng: &mut TestRng) -> f32 {
        f32::from_bits(rng.next_u64() as u32)
    }
}

macro_rules! range_strategy {
    ($($t:ty),+) => {
        $(impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        })+
    };
}
range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// String strategy from a regex-like pattern. Supports literal
/// characters, `.`, character classes `[a-z0-9_-]`, and the
/// quantifiers `{n}`, `{m,n}`, `{m,}`, `*`, `+`, `?` (unbounded
/// repetition is capped at 8).
impl Strategy for &'static str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        pattern::generate(self, rng)
    }
}

mod pattern {
    use super::TestRng;

    enum Atom {
        Literal(char),
        AnyChar,
        Class(Vec<char>),
    }

    pub fn generate(pat: &str, rng: &mut TestRng) -> String {
        let mut out = String::new();
        let chars: Vec<char> = pat.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let atom = match chars[i] {
                '[' => {
                    let mut set = Vec::new();
                    i += 1;
                    while i < chars.len() && chars[i] != ']' {
                        if chars[i] == '\\' && i + 1 < chars.len() {
                            set.push(chars[i + 1]);
                            i += 2;
                        } else if i + 2 < chars.len() && chars[i + 1] == '-' && chars[i + 2] != ']'
                        {
                            let (lo, hi) = (chars[i] as u32, chars[i + 2] as u32);
                            for c in lo..=hi {
                                if let Some(c) = char::from_u32(c) {
                                    set.push(c);
                                }
                            }
                            i += 3;
                        } else {
                            set.push(chars[i]);
                            i += 1;
                        }
                    }
                    i += 1; // closing ']'
                    Atom::Class(set)
                }
                '.' => {
                    i += 1;
                    Atom::AnyChar
                }
                '\\' if i + 1 < chars.len() => {
                    i += 2;
                    Atom::Literal(chars[i - 1])
                }
                c => {
                    i += 1;
                    Atom::Literal(c)
                }
            };
            let (min, max) = parse_quantifier(&chars, &mut i);
            let n = min + rng.below((max - min + 1) as u64) as usize;
            for _ in 0..n {
                match &atom {
                    Atom::Literal(c) => out.push(*c),
                    Atom::AnyChar => out.push(char::from_u32(32 + rng.below(95) as u32).unwrap()),
                    Atom::Class(set) => {
                        if !set.is_empty() {
                            out.push(set[rng.below(set.len() as u64) as usize]);
                        }
                    }
                }
            }
        }
        out
    }

    fn parse_quantifier(chars: &[char], i: &mut usize) -> (usize, usize) {
        const CAP: usize = 8;
        match chars.get(*i) {
            Some('*') => {
                *i += 1;
                (0, CAP)
            }
            Some('+') => {
                *i += 1;
                (1, CAP)
            }
            Some('?') => {
                *i += 1;
                (0, 1)
            }
            Some('{') => {
                let close = chars[*i..].iter().position(|&c| c == '}').unwrap() + *i;
                let body: String = chars[*i + 1..close].iter().collect();
                *i = close + 1;
                match body.split_once(',') {
                    None => {
                        let n = body.trim().parse().unwrap();
                        (n, n)
                    }
                    Some((m, n)) => {
                        let m: usize = m.trim().parse().unwrap();
                        let n: usize = if n.trim().is_empty() {
                            m + CAP
                        } else {
                            n.trim().parse().unwrap()
                        };
                        (m, n)
                    }
                }
            }
            _ => (1, 1),
        }
    }
}

/// Chooses uniformly among boxed alternative strategies
/// (see [`prop_oneof!`]).
pub struct Union<V> {
    options: Vec<Box<dyn Strategy<Value = V>>>,
}

impl<V> Union<V> {
    pub fn empty() -> Union<V> {
        Union {
            options: Vec::new(),
        }
    }

    pub fn or(mut self, s: impl Strategy<Value = V> + 'static) -> Union<V> {
        self.options.push(Box::new(s));
        self
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        assert!(!self.options.is_empty(), "empty prop_oneof");
        let idx = rng.below(self.options.len() as u64) as usize;
        self.options[idx].generate(rng)
    }
}

pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy for `Vec<S::Value>` with a length drawn from `len`.
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.len.end - self.len.start).max(1) as u64;
            let n = self.len.start + rng.below(span) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod test_runner {
    use super::TestRng;

    /// Number of cases per property (override with `PROPTEST_CASES`).
    pub fn cases() -> u64 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64)
    }

    /// Run `body` for each generated case with a deterministic RNG
    /// derived from the test name.
    pub fn run(name: &str, mut body: impl FnMut(&mut TestRng)) {
        let mut seed: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.as_bytes() {
            seed ^= u64::from(*b);
            seed = seed.wrapping_mul(0x1000_0000_01b3);
        }
        for case in 0..cases() {
            let mut rng = TestRng::new(seed ^ (case.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
            body(&mut rng);
        }
    }
}

/// Commonly used items, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Just, Strategy,
    };
}

#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($args:tt)*) $body:block)+) => {
        $(
            $(#[$meta])*
            fn $name() {
                $crate::test_runner::run(stringify!($name), |__proptest_rng| {
                    $crate::__proptest_bind!(__proptest_rng; $($args)*);
                    $body
                });
            }
        )+
    };
}

/// Internal: bind each `name in strategy` / `name: Type` parameter of a
/// `proptest!` test from the case RNG.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_bind {
    ($rng:ident;) => {};
    ($rng:ident; $arg:ident in $strat:expr) => {
        let $arg = $crate::Strategy::generate(&($strat), $rng);
    };
    ($rng:ident; $arg:ident in $strat:expr, $($rest:tt)*) => {
        let $arg = $crate::Strategy::generate(&($strat), $rng);
        $crate::__proptest_bind!($rng; $($rest)*);
    };
    ($rng:ident; $arg:ident : $ty:ty) => {
        let $arg = $crate::Strategy::generate(&$crate::any::<$ty>(), $rng);
    };
    ($rng:ident; $arg:ident : $ty:ty, $($rest:tt)*) => {
        let $arg = $crate::Strategy::generate(&$crate::any::<$ty>(), $rng);
        $crate::__proptest_bind!($rng; $($rest)*);
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_ne!($a, $b, $($fmt)+) };
}

#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::empty()$(.or($strat))+
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_and_filters() {
        let mut rng = crate::TestRng::new(1);
        let s = (10u64..20).prop_filter("even", |v| v % 2 == 0);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!((10..20).contains(&v) && v % 2 == 0);
        }
    }

    #[test]
    fn string_pattern_subset() {
        let mut rng = crate::TestRng::new(2);
        for _ in 0..50 {
            let s = "[a-c]{2,4}".generate(&mut rng);
            assert!((2..=4).contains(&s.len()));
            assert!(s.chars().all(|c| ('a'..='c').contains(&c)));
        }
    }

    #[test]
    fn oneof_and_vec() {
        let mut rng = crate::TestRng::new(3);
        let s = crate::collection::vec(
            prop_oneof![Just(1u8), Just(2u8), (5u8..7).prop_map(|v| v)],
            0..10,
        );
        for _ in 0..50 {
            let v = s.generate(&mut rng);
            assert!(v.len() < 10);
            assert!(v.iter().all(|&x| [1, 2, 5, 6].contains(&x)));
        }
    }

    proptest! {
        #[test]
        fn macro_roundtrip(a in 0u32..100, b in any::<bool>()) {
            prop_assert!(a < 100);
            prop_assert_eq!(b as u8 <= 1, true);
        }
    }
}
