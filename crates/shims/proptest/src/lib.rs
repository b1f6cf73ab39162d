//! Offline shim for the `proptest` crate.
//!
//! Implements the API subset this workspace's property tests use —
//! `proptest!`, `prop_oneof!`, `prop_assert*!`, `prop_assume!`,
//! `Strategy`/`prop_map`, ranges, tuples, string patterns,
//! `collection::vec`, `sample::select`, `any::<T>()` — over a
//! deterministic splitmix64 generator. No shrinking: failures report the
//! case number, and the fixed per-test seed makes every failure
//! reproducible by rerunning the test.

#![deny(rustdoc::broken_intra_doc_links)]
pub mod test_runner {
    /// Configuration accepted by `#![proptest_config(..)]`.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    /// Why a generated case did not pass: a genuine failure, or a
    /// `prop_assume!` rejection (the case is skipped, not failed).
    #[derive(Debug, Clone)]
    pub enum TestCaseError {
        Fail(String),
        Reject(String),
    }

    impl TestCaseError {
        pub fn fail(reason: impl Into<String>) -> Self {
            TestCaseError::Fail(reason.into())
        }

        pub fn reject(reason: impl Into<String>) -> Self {
            TestCaseError::Reject(reason.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                TestCaseError::Fail(r) => write!(f, "test case failed: {r}"),
                TestCaseError::Reject(r) => write!(f, "test case rejected: {r}"),
            }
        }
    }

    pub type TestCaseResult = Result<(), TestCaseError>;

    /// Deterministic splitmix64 stream, seeded from the test name and case
    /// index so every test has an independent, reproducible sequence.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        pub fn deterministic(test_name: &str, case: u32) -> Self {
            // FNV-1a over the name, mixed with the case index.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in test_name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            TestRng {
                state: h ^ ((case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            }
        }

        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform draw in `[0, bound)`; `bound` must be non-zero.
        pub(crate) fn below(&mut self, bound: u64) -> u64 {
            self.next_u64() % bound
        }

        pub(crate) fn usize_in(&mut self, range: std::ops::Range<usize>) -> usize {
            assert!(range.start < range.end, "empty range");
            range.start + self.below((range.end - range.start) as u64) as usize
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;

    /// Value-generation strategy. Unlike real proptest there is no
    /// shrinking tree; `Value` hangs directly off the trait, matching the
    /// `impl Strategy<Value = T>` spelling tests use.
    pub trait Strategy {
        type Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }

        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

    impl<V> Strategy for Box<dyn Strategy<Value = V>> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            (**self).generate(rng)
        }
    }

    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn generate(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.generate(rng))
        }
    }

    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Uniform choice between boxed alternatives (`prop_oneof!`).
    pub struct OneOf<V> {
        arms: Vec<BoxedStrategy<V>>,
    }

    impl<V> OneOf<V> {
        pub fn new(arms: Vec<BoxedStrategy<V>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            OneOf { arms }
        }
    }

    impl<V> Strategy for OneOf<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            let i = rng.below(self.arms.len() as u64) as usize;
            self.arms[i].generate(rng)
        }
    }

    macro_rules! impl_int_range {
        ($($ty:ty),*) => {$(
            impl Strategy for std::ops::Range<$ty> {
                type Value = $ty;
                fn generate(&self, rng: &mut TestRng) -> $ty {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let v = (rng.next_u64() as u128) % span;
                    (self.start as i128 + v as i128) as $ty
                }
            }
            impl Strategy for std::ops::RangeInclusive<$ty> {
                type Value = $ty;
                fn generate(&self, rng: &mut TestRng) -> $ty {
                    let (start, end) = (*self.start(), *self.end());
                    assert!(start <= end, "empty range strategy");
                    let span = (end as i128 - start as i128) as u128 + 1;
                    let v = (rng.next_u64() as u128) % span;
                    (start as i128 + v as i128) as $ty
                }
            }
        )*};
    }

    impl_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    /// `&str` acts as a generation pattern, supporting the regex subset the
    /// workspace uses: `.`, `[a-z0-9_]` classes, literal chars, and the
    /// quantifiers `{m}` and `{m,n}`.
    impl Strategy for &str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            generate_from_pattern(self, rng)
        }
    }

    enum Atom {
        Any,
        Class(Vec<(char, char)>),
        Literal(char),
    }

    fn random_char(rng: &mut TestRng) -> char {
        match rng.below(20) {
            // Mostly printable ASCII: the interesting space for parsers.
            0..=16 => (0x20u8 + rng.below(95) as u8) as char,
            17 => ['\n', '\t', '\r', '\0'][rng.below(4) as usize],
            _ => {
                // Arbitrary scalar value, skipping the surrogate gap.
                let v = rng.below(0x11_0000 - 0x800) as u32;
                char::from_u32(if v >= 0xD800 { v + 0x800 } else { v }).unwrap_or('\u{FFFD}')
            }
        }
    }

    fn generate_from_pattern(pattern: &str, rng: &mut TestRng) -> String {
        let chars: Vec<char> = pattern.chars().collect();
        let mut out = String::new();
        let mut i = 0;
        while i < chars.len() {
            let atom = match chars[i] {
                '.' => {
                    i += 1;
                    Atom::Any
                }
                '[' => {
                    i += 1;
                    let mut ranges = Vec::new();
                    while i < chars.len() && chars[i] != ']' {
                        let lo = chars[i];
                        if i + 2 < chars.len() && chars[i + 1] == '-' && chars[i + 2] != ']' {
                            ranges.push((lo, chars[i + 2]));
                            i += 3;
                        } else {
                            ranges.push((lo, lo));
                            i += 1;
                        }
                    }
                    i += 1; // closing ']'
                    Atom::Class(ranges)
                }
                c => {
                    i += 1;
                    Atom::Literal(c)
                }
            };
            // Optional quantifier.
            let (min, max) = if i < chars.len() && chars[i] == '{' {
                let close = chars[i..]
                    .iter()
                    .position(|&c| c == '}')
                    .map(|p| i + p)
                    .unwrap();
                let body: String = chars[i + 1..close].iter().collect();
                i = close + 1;
                match body.split_once(',') {
                    Some((m, n)) => (m.trim().parse().unwrap(), n.trim().parse().unwrap()),
                    None => {
                        let m: usize = body.trim().parse().unwrap();
                        (m, m)
                    }
                }
            } else {
                (1, 1)
            };
            let n = if min == max {
                min
            } else {
                rng.usize_in(min..max + 1)
            };
            for _ in 0..n {
                match &atom {
                    Atom::Any => out.push(random_char(rng)),
                    Atom::Class(ranges) => {
                        let (lo, hi) = ranges[rng.below(ranges.len() as u64) as usize];
                        let span = hi as u32 - lo as u32 + 1;
                        out.push(
                            char::from_u32(lo as u32 + rng.below(span as u64) as u32).unwrap(),
                        );
                    }
                    Atom::Literal(c) => out.push(*c),
                }
            }
        }
        out
    }

    macro_rules! impl_tuple_strategy {
        ($(($($name:ident),+))*) => {$(
            #[allow(non_snake_case)]
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (A)
        (A, B)
        (A, B, C)
        (A, B, C, D)
    }
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Types with a canonical "anything" strategy (`any::<T>()`).
    pub trait Arbitrary: Sized {
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    pub struct Any<T>(pub(crate) std::marker::PhantomData<T>);

    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(std::marker::PhantomData)
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    macro_rules! impl_arbitrary_int {
        ($($ty:ty),*) => {$(
            impl Arbitrary for $ty {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    // Bias toward boundary values, which find more bugs than
                    // uniform draws.
                    match rng.below(8) {
                        0 => 0 as $ty,
                        1 => <$ty>::MAX,
                        2 => <$ty>::MIN,
                        3 => 1 as $ty,
                        _ => rng.next_u64() as $ty,
                    }
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.below(2) == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            match rng.below(10) {
                0 => 0.0,
                1 => -0.0,
                2 => f64::INFINITY,
                3 => f64::NEG_INFINITY,
                4 => f64::NAN,
                5 => f64::from_bits(rng.next_u64()),
                _ => {
                    let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                    (unit - 0.5) * 2e12
                }
            }
        }
    }

    impl Arbitrary for char {
        fn arbitrary(rng: &mut TestRng) -> Self {
            let v = rng.below(0x11_0000 - 0x800) as u32;
            char::from_u32(if v >= 0xD800 { v + 0x800 } else { v }).unwrap_or('\u{FFFD}')
        }
    }

    impl Arbitrary for String {
        fn arbitrary(rng: &mut TestRng) -> Self {
            let len = rng.below(48) as usize;
            (0..len)
                .map(|_| {
                    if rng.below(10) < 8 {
                        (0x20u8 + rng.below(95) as u8) as char
                    } else {
                        char::arbitrary(rng)
                    }
                })
                .collect()
        }
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    pub struct VecStrategy<S> {
        elem: S,
        size: std::ops::Range<usize>,
    }

    pub fn vec<S: Strategy>(elem: S, size: std::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = if self.size.start < self.size.end {
                rng.usize_in(self.size.clone())
            } else {
                self.size.start
            };
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

pub mod sample {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    pub struct Select<T: Clone>(Vec<T>);

    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "sample::select needs options");
        Select(options)
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0[rng.below(self.0.len() as u64) as usize].clone()
        }
    }
}

pub mod bool {
    /// `proptest::bool::ANY`
    pub const ANY: crate::arbitrary::Any<std::primitive::bool> =
        crate::arbitrary::Any(std::marker::PhantomData);
}

pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestCaseResult};
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest};

    pub mod prop {
        pub use crate::bool;
        pub use crate::collection;
        pub use crate::sample;
    }
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(, $fmt:tt)* $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::reject(
                stringify!($cond),
            ));
        }
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {{
        let arms: ::std::vec::Vec<$crate::strategy::BoxedStrategy<_>> =
            vec![$(::std::boxed::Box::new($arm)),+];
        $crate::strategy::OneOf::new(arms)
    }};
}

#[macro_export]
macro_rules! proptest {
    // ---- internal: no more test functions ----
    (@fns ($cfg:expr)) => {};

    // ---- internal: `arg in strategy` form ----
    (@fns ($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::test_runner::ProptestConfig = $cfg;
            for case in 0..cfg.cases {
                let mut rng =
                    $crate::test_runner::TestRng::deterministic(stringify!($name), case);
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                let outcome = (move || -> $crate::test_runner::TestCaseResult {
                    $body
                    ::std::result::Result::Ok(())
                })();
                match outcome {
                    ::std::result::Result::Ok(()) => {}
                    ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(_)) => {}
                    ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(reason)) => {
                        panic!("proptest case {} of {} failed: {}", case, stringify!($name), reason)
                    }
                }
            }
        }
        $crate::proptest!(@fns ($cfg) $($rest)*);
    };

    // ---- internal: `arg: Type` form (uses `any::<Type>()`) ----
    (@fns ($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident : $ty:ty),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::test_runner::ProptestConfig = $cfg;
            for case in 0..cfg.cases {
                let mut rng =
                    $crate::test_runner::TestRng::deterministic(stringify!($name), case);
                $(let $arg = $crate::strategy::Strategy::generate(
                    &$crate::arbitrary::any::<$ty>(), &mut rng);)+
                let outcome = (move || -> $crate::test_runner::TestCaseResult {
                    $body
                    ::std::result::Result::Ok(())
                })();
                match outcome {
                    ::std::result::Result::Ok(()) => {}
                    ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(_)) => {}
                    ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(reason)) => {
                        panic!("proptest case {} of {} failed: {}", case, stringify!($name), reason)
                    }
                }
            }
        }
        $crate::proptest!(@fns ($cfg) $($rest)*);
    };

    // ---- entry: leading `#![proptest_config(..)]` ----
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@fns ($cfg) $($rest)*);
    };

    // ---- entry: default config ----
    ($($rest:tt)*) => {
        $crate::proptest!(@fns ($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}
