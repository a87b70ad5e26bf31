//! Checked numeric conversions for estimator math.
//!
//! The DKLR planners and the coverage algorithm turn real-valued iteration
//! budgets (`Υ`, `N`, `ρ̂`…) into loop counts. A bare `as u64` hides two
//! failure modes: `NaN` silently becomes `0` (a planner that runs *zero*
//! iterations and reports a confident estimate), and overflow silently
//! saturates without anyone deciding that was acceptable. These helpers
//! make the policy explicit. The estimator modules deny clippy's
//! `cast_possible_truncation` and `arithmetic_side_effects`, so a bare cast
//! there fails the clippy step and has to come through here.

/// Converts an iteration budget to `u64` with an explicit failure policy:
/// negative values clamp to `0`, values beyond `u64::MAX` clamp to
/// `u64::MAX`, and `NaN` maps to `u64::MAX` — *not* `0` as `as u64` would —
/// so a poisoned budget trips the downstream `max_samples` guard instead
/// of silently planning a zero-iteration run.
#[must_use]
pub fn f64_to_u64(x: f64) -> u64 {
    if x.is_nan() {
        return u64::MAX;
    }
    // `as` saturates on both ends for finite values and ±∞ (Rust 1.45+),
    // which is exactly the clamp we want once NaN is handled.
    x as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finite_values_truncate() {
        assert_eq!(f64_to_u64(0.0), 0);
        assert_eq!(f64_to_u64(7.9), 7);
        assert_eq!(f64_to_u64(4096.0), 4096);
    }

    #[test]
    fn negatives_clamp_to_zero() {
        assert_eq!(f64_to_u64(-1.0), 0);
        assert_eq!(f64_to_u64(f64::NEG_INFINITY), 0);
    }

    #[test]
    fn overflow_clamps_to_max() {
        assert_eq!(f64_to_u64(1e300), u64::MAX);
        assert_eq!(f64_to_u64(f64::INFINITY), u64::MAX);
    }

    #[test]
    fn nan_fails_closed() {
        assert_eq!(f64_to_u64(f64::NAN), u64::MAX);
    }
}
