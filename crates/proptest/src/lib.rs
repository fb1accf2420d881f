//! # Offline proptest subset
//!
//! An in-tree, dependency-free replacement for the parts of the
//! [`proptest`](https://docs.rs/proptest) API this workspace uses, so
//! `cargo test` works with **no network / registry access**. Test files
//! written against upstream proptest compile unchanged:
//!
//! - the [`proptest!`] macro with `#![proptest_config(...)]`,
//! - [`Strategy`](strategy::Strategy) with `prop_map`, `prop_recursive`
//!   and `boxed`, plus range, tuple and [`collection::vec`] strategies,
//! - [`any`](arbitrary::any), [`Just`](strategy::Just), [`prop_oneof!`],
//! - [`prop_assert!`], [`prop_assert_eq!`], [`prop_assert_ne!`] and
//!   [`prop_assume!`].
//!
//! Two deliberate simplifications: sampling is driven by the in-tree
//! SplitMix64 generator with a per-test seed derived from the test name
//! (reproducible; override with `PROPTEST_SEED`), and there is **no
//! shrinking** — a failure reports the exact generated inputs instead.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arbitrary;
pub mod collection;
pub mod strategy;
pub mod test_runner;

/// Everything a property-test file needs in scope.
pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestCaseResult};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Declares property tests. Each `fn name(arg in strategy, ...) { body }`
/// item becomes a `#[test]` function running the body over generated
/// inputs.
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
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            $crate::test_runner::run_proptest(
                &($config),
                ::core::stringify!($name),
                |__proptest_rng| {
                    let ($($arg,)+) = (
                        $($crate::strategy::Strategy::sample(&($strat), __proptest_rng),)+
                    );
                    let __proptest_inputs = ::std::format!(
                        ::core::concat!($(::core::stringify!($arg), " = {:?}; ",)+),
                        $(&$arg),+
                    );
                    let __proptest_outcome: $crate::test_runner::TestCaseResult =
                        (move || {
                            $body
                            ::core::result::Result::Ok(())
                        })();
                    (__proptest_inputs, __proptest_outcome)
                },
            );
        }
        $crate::__proptest_items! { ($config) $($rest)* }
    };
}

/// Chooses between several strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(::std::vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

/// Asserts a condition inside a `proptest!` body; on failure the case
/// (with its inputs) is reported and the test fails.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!("assertion failed: {}", ::core::stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!(
                    "assertion failed: {} ({})",
                    ::core::stringify!($cond),
                    ::std::format!($($fmt)+),
                ),
            ));
        }
    };
}

/// Asserts two expressions are equal inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        if !($left == $right) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!(
                    "assertion failed: `{} == {}`\n  left: `{:?}`\n right: `{:?}`",
                    ::core::stringify!($left),
                    ::core::stringify!($right),
                    $left,
                    $right,
                ),
            ));
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        if !($left == $right) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!(
                    "assertion failed: `{} == {}` ({})\n  left: `{:?}`\n right: `{:?}`",
                    ::core::stringify!($left),
                    ::core::stringify!($right),
                    ::std::format!($($fmt)+),
                    $left,
                    $right,
                ),
            ));
        }
    };
}

/// Asserts two expressions are unequal inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        if $left == $right {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!(
                    "assertion failed: `{} != {}`\n  both: `{:?}`",
                    ::core::stringify!($left),
                    ::core::stringify!($right),
                    $left,
                ),
            ));
        }
    };
}

/// Skips the current case (re-drawing fresh inputs) when an assumption
/// about the generated values does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::reject(
                ::core::stringify!($cond),
            ));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Exercises the whole macro surface end to end.
        #[test]
        fn macro_round_trip(
            a in 0u16..100,
            b in any::<u8>(),
            items in crate::collection::vec(0u8..4, 0..5),
        ) {
            prop_assume!(a != 13);
            prop_assert!(a < 100);
            prop_assert_eq!(u16::from(b) + a, a + u16::from(b), "commutativity for {}", a);
            prop_assert_ne!(a, 13);
            prop_assert!(items.len() < 5, "len was {}", items.len());
        }
    }

    proptest! {
        #[test]
        fn default_config_also_works(x in prop_oneof![Just(1u8), Just(2u8)]) {
            prop_assert!(x == 1 || x == 2);
        }
    }
}
