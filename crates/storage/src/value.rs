//! Values and their dictionary-encoded in-table representation.
//!
//! The approximation schemes are oblivious to the syntactic shape of facts
//! (§5), so tables store compact [`Datum`]s: integers inline, strings as
//! 32-bit dictionary ids resolved through the database's [`crate::Interner`].

use std::fmt;

/// A user-facing database value. The paper's databases are NULL-free, so
/// there is deliberately no null variant.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// A 64-bit integer (also used for dates, encoded as day numbers, and
    /// monetary amounts, encoded as cents).
    Int(i64),
    /// A string.
    Str(String),
}

impl Value {
    /// Convenience constructor from anything string-like.
    pub fn str(s: impl Into<String>) -> Self {
        Value::Str(s.into())
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// A dictionary id for an interned string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StrId(pub u32);

/// The in-table representation of a value: 16 bytes, `Copy`, hashable.
///
/// The derived `Ord` gives a deterministic total order (integers before
/// strings; strings by dictionary id). Block ids (`bid`) only need *some*
/// deterministic order — they are opaque identifiers, exactly as in the
/// paper's `dense_rank` view — so ordering strings by dictionary id rather
/// than lexicographically is fine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Datum {
    /// Inline integer.
    Int(i64),
    /// Interned string.
    Str(StrId),
}

impl Datum {
    /// True if this datum is an integer.
    pub fn is_int(&self) -> bool {
        matches!(self, Datum::Int(_))
    }

    /// The integer payload, if any.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Datum::Int(i) => Some(*i),
            Datum::Str(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_display() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::str("HR").to_string(), "'HR'");
    }

    #[test]
    fn value_conversions() {
        assert_eq!(Value::from(7i64), Value::Int(7));
        assert_eq!(Value::from("x"), Value::Str("x".into()));
        assert_eq!(Value::from(String::from("y")), Value::Str("y".into()));
    }

    #[test]
    fn datum_is_small_and_copy() {
        assert!(std::mem::size_of::<Datum>() <= 16);
        let d = Datum::Int(3);
        let e = d; // Copy
        assert_eq!(d, e);
    }

    #[test]
    fn datum_order_is_total_and_deterministic() {
        let mut v = vec![Datum::Str(StrId(2)), Datum::Int(5), Datum::Int(-1), Datum::Str(StrId(0))];
        v.sort();
        assert_eq!(
            v,
            vec![Datum::Int(-1), Datum::Int(5), Datum::Str(StrId(0)), Datum::Str(StrId(2))]
        );
    }
}
