//! Log-space non-negative numbers.
//!
//! The repair count `|rep(D, Σ)|` is a product of block sizes over the whole
//! database and the symbolic-space size `|S•|` can exceed `f64::MAX` by
//! thousands of orders of magnitude. Every quantity the approximation
//! schemes *compute with* is a small ratio, but the harness still reports
//! the raw counts, so we carry them as natural logarithms.

use std::cmp::Ordering;
use std::fmt;
use std::iter::{Product, Sum};
use std::ops::{Div, Mul};

/// A non-negative real stored as its natural logarithm.
///
/// `LogNum::ZERO` is represented by `ln = -inf`, so products and ratios
/// behave as expected without special cases.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNum {
    ln: f64,
}

impl LogNum {
    /// The number 0.
    pub const ZERO: LogNum = LogNum { ln: f64::NEG_INFINITY };
    /// The number 1.
    pub const ONE: LogNum = LogNum { ln: 0.0 };

    /// Wraps a plain non-negative value.
    pub fn from_value(v: f64) -> Self {
        assert!(v >= 0.0, "LogNum must be non-negative, got {v}");
        LogNum { ln: v.ln() }
    }

    /// Wraps an integer count.
    pub fn from_count(n: u64) -> Self {
        Self::from_value(n as f64)
    }

    /// Natural logarithm of the value (`-inf` for zero).
    #[inline]
    pub fn ln(self) -> f64 {
        self.ln
    }

    /// Base-10 logarithm of the value.
    #[inline]
    pub fn log10(self) -> f64 {
        self.ln / std::f64::consts::LN_10
    }

    /// The plain value, saturating to `f64::INFINITY` when it does not fit.
    #[inline]
    pub fn value(self) -> f64 {
        self.ln.exp()
    }

    /// True when this represents 0.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.ln == f64::NEG_INFINITY
    }

    /// Log-sum-exp addition.
    #[expect(
        clippy::should_implement_trait,
        reason = "`+` on log-space numbers would read as multiplication"
    )]
    pub fn add(self, other: LogNum) -> LogNum {
        if self.is_zero() {
            return other;
        }
        if other.is_zero() {
            return self;
        }
        let (hi, lo) = if self.ln >= other.ln { (self.ln, other.ln) } else { (other.ln, self.ln) };
        LogNum { ln: hi + (lo - hi).exp().ln_1p() }
    }

    /// `self / other` as a plain `f64` ratio, usable when the ratio itself
    /// is of moderate magnitude even though both operands are astronomical.
    pub fn ratio(self, other: LogNum) -> f64 {
        if self.is_zero() && other.is_zero() {
            return f64::NAN;
        }
        (self.ln - other.ln).exp()
    }
}

impl Mul for LogNum {
    type Output = LogNum;
    fn mul(self, rhs: LogNum) -> LogNum {
        if self.is_zero() || rhs.is_zero() {
            LogNum::ZERO
        } else {
            LogNum { ln: self.ln + rhs.ln }
        }
    }
}

impl Div for LogNum {
    type Output = LogNum;
    fn div(self, rhs: LogNum) -> LogNum {
        assert!(!rhs.is_zero(), "division by LogNum zero");
        if self.is_zero() {
            LogNum::ZERO
        } else {
            LogNum { ln: self.ln - rhs.ln }
        }
    }
}

impl Product for LogNum {
    fn product<I: Iterator<Item = LogNum>>(iter: I) -> LogNum {
        iter.fold(LogNum::ONE, |a, b| a * b)
    }
}

impl Sum for LogNum {
    fn sum<I: Iterator<Item = LogNum>>(iter: I) -> LogNum {
        iter.fold(LogNum::ZERO, LogNum::add)
    }
}

impl PartialOrd for LogNum {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        self.ln.partial_cmp(&other.ln)
    }
}

impl fmt::Display for LogNum {
    /// Renders as scientific notation, e.g. `3.16e+1423`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let l10 = self.log10();
        let exp = l10.floor();
        let mantissa = 10f64.powf(l10 - exp);
        write!(f, "{mantissa:.3}e{exp:+}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn products_of_block_sizes_do_not_overflow() {
        // 10_000 blocks of size 5: 5^10000 ≈ 10^6990.
        let total: LogNum = (0..10_000).map(|_| LogNum::from_count(5)).product();
        assert!((total.log10() - 10_000.0 * 5f64.log10()).abs() < 1e-6);
    }

    #[test]
    fn ratio_of_astronomical_numbers_is_finite() {
        let a: LogNum = (0..1000).map(|_| LogNum::from_count(4)).product();
        let b: LogNum =
            (0..1000).map(|_| LogNum::from_count(4)).product::<LogNum>() * LogNum::from_count(2);
        assert!((a.ratio(b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_is_absorbing_for_mul() {
        let z = LogNum::ZERO * LogNum::from_count(7);
        assert!(z.is_zero());
    }

    #[test]
    fn add_is_log_sum_exp() {
        let s = LogNum::from_count(3).add(LogNum::from_count(4));
        assert!((s.value() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn add_with_zero_is_identity() {
        let s = LogNum::ZERO.add(LogNum::from_count(9));
        assert!((s.value() - 9.0).abs() < 1e-12);
    }

    #[test]
    fn sum_over_iterator() {
        let s: LogNum = (1..=4u64).map(LogNum::from_count).sum();
        assert!((s.value() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn ordering_matches_values() {
        assert!(LogNum::from_count(3) < LogNum::from_count(4));
        assert!(LogNum::ZERO < LogNum::from_count(1));
    }

    #[test]
    fn display_is_scientific() {
        let n: LogNum = (0..100).map(|_| LogNum::from_count(10)).product();
        let s = format!("{n}");
        // 10^100 may land on either side of the exponent boundary in
        // floating point; accept both renderings.
        assert!(s == "1.000e+100" || s == "10.000e+99", "got {s}");
        assert_eq!(format!("{}", LogNum::ZERO), "0");
        assert_eq!(format!("{}", LogNum::from_value(3.5)), "3.500e+0");
    }

    #[test]
    #[should_panic]
    fn division_by_zero_panics() {
        let _ = LogNum::ONE / LogNum::ZERO;
    }
}
