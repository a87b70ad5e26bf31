//! [`name_enum!`](crate::name_enum): a closed set of stable names as a
//! fieldless enum.
//!
//! Span names, fault points and benchmark series are keyed by their
//! strings in traces, fault plans and the `BENCH_<pr>.json` trajectory.
//! Declaring each set as an enum makes a misspelled name a compile error
//! at the call site, with no registry to check it against.

/// Declares a fieldless enum whose variants each carry a stable
/// `&'static str` name, one `Variant = "name",` line per entry. The enum
/// derives `Debug`, `Clone`, `Copy`, `PartialEq` and `Eq`; it gets an
/// `ALL` slice in declaration order (so `v as usize` indexes it) and a
/// `const fn name`. Each variant's doc is its name.
///
/// ```
/// cqa_common::name_enum! {
///     /// Demo names.
///     pub enum Color {
///         Red = "color/red",
///         Blue = "color/blue",
///     }
/// }
/// assert_eq!(Color::Blue.name(), "color/blue");
/// assert_eq!(Color::ALL[Color::Blue as usize], Color::Blue);
/// ```
#[macro_export]
macro_rules! name_enum {
    (
        $(#[$meta:meta])*
        $vis:vis enum $ty:ident {
            $($variant:ident = $name:literal,)*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        $vis enum $ty {
            $(#[doc = concat!("`", $name, "`")] $variant,)*
        }

        impl $ty {
            /// Every variant, in declaration order.
            pub const ALL: &'static [$ty] = &[$($ty::$variant),*];

            /// The variant's stable name.
            pub const fn name(self) -> &'static str {
                match self {
                    $($ty::$variant => $name,)*
                }
            }
        }
    };
}
