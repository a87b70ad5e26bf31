//! Wire-input validators: the trust boundary between the NDJSON protocol
//! and the estimator core.
//!
//! Every numeric or string field `crates/server` reads off the wire passes
//! through one of these at its single decode site in `protocol.rs`, so a
//! request outside a field's domain is refused there with
//! [`CqaError::Parse`] instead of reaching an allocation, a loop bound or
//! a sample count. `protocol.rs`'s `bad_requests_are_rejected` test holds
//! one row per validated boundary; the estimator core re-checks `eps` and
//! `delta` on entry.
//!
//! Contract: a validator either returns its input unchanged, inside its
//! documented bounds, or refuses the request with [`CqaError::Parse`].

use crate::error::{CqaError, Result};

/// Validates that `x` lies in the open unit interval (0, 1) — the domain
/// of the accuracy `eps` and confidence `delta` parameters. NaN fails
/// both comparisons and is rejected.
pub fn unit_open(field: &str, x: f64) -> Result<f64> {
    if x > 0.0 && x < 1.0 {
        Ok(x)
    } else {
        Err(CqaError::Parse(format!("'{field}' must lie in (0, 1); got {x}")))
    }
}

/// Validates that `s` is non-empty and at most `max_bytes` long.
pub fn bounded_str<'a>(field: &str, s: &'a str, max_bytes: usize) -> Result<&'a str> {
    if s.is_empty() || s.len() > max_bytes {
        Err(CqaError::Parse(format!("'{field}' must be 1..={max_bytes} bytes, got {}", s.len())))
    } else {
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_open_accepts_interior_rejects_boundary() {
        assert_eq!(unit_open("eps", 0.5).unwrap(), 0.5);
        assert!(unit_open("eps", 0.0).is_err());
        assert!(unit_open("eps", 1.0).is_err());
        assert!(unit_open("eps", -0.1).is_err());
        assert!(unit_open("eps", f64::NAN).is_err());
    }

    #[test]
    fn bounded_str_enforces_both_ends() {
        assert_eq!(bounded_str("id", "abc", 8).unwrap(), "abc");
        assert!(bounded_str("id", "", 8).is_err());
        assert!(bounded_str("id", "123456789", 8).is_err());
    }
}
