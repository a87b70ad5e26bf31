//! The shared error type of the `cqa` workspace.

use std::fmt;

/// Errors surfaced by the CQA engine and benchmark infrastructure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CqaError {
    /// A relation/column/query referenced a name the schema does not define.
    UnknownName(String),
    /// A fact or tuple had the wrong arity for its relation.
    ArityMismatch {
        /// The relation whose arity was violated.
        relation: String,
        /// The declared arity.
        expected: usize,
        /// The arity supplied.
        got: usize,
    },
    /// A value had the wrong type for its column.
    TypeMismatch {
        /// The relation containing the offending column.
        relation: String,
        /// The column whose type was violated.
        column: String,
        /// Human-readable detail.
        detail: String,
    },
    /// A query string failed to parse.
    Parse(String),
    /// A structural invariant of an admissible pair was violated.
    InvalidSynopsis(String),
    /// An approximation run exceeded its time or sample budget.
    TimedOut {
        /// Which phase exhausted its budget.
        phase: &'static str,
        /// Samples drawn before the budget ran out (0 for a phase that
        /// draws none, such as query evaluation).
        samples: u64,
    },
    /// An exact computation was asked for an instance that is too large.
    TooLarge(String),
    /// Invalid user-supplied parameter (ε, δ, noise level, …).
    InvalidParameter(String),
}

impl fmt::Display for CqaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CqaError::UnknownName(n) => write!(f, "unknown name: {n}"),
            CqaError::ArityMismatch { relation, expected, got } => {
                write!(f, "arity mismatch for {relation}: expected {expected}, got {got}")
            }
            CqaError::TypeMismatch { relation, column, detail } => {
                write!(f, "type mismatch at {relation}.{column}: {detail}")
            }
            CqaError::Parse(msg) => write!(f, "parse error: {msg}"),
            CqaError::InvalidSynopsis(msg) => write!(f, "invalid synopsis: {msg}"),
            CqaError::TimedOut { phase, .. } => write!(f, "timed out during {phase}"),
            CqaError::TooLarge(msg) => write!(f, "instance too large for exact computation: {msg}"),
            CqaError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
        }
    }
}

impl std::error::Error for CqaError {}

/// Workspace-wide result alias.
pub type Result<T> = std::result::Result<T, CqaError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CqaError::ArityMismatch { relation: "emp".into(), expected: 3, got: 2 };
        assert!(e.to_string().contains("emp"));
        assert!(e.to_string().contains('3'));
        let t = CqaError::TimedOut { phase: "monte-carlo", samples: 7 };
        assert_eq!(t.to_string(), "timed out during monte-carlo");
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(CqaError::Parse("x".into()), CqaError::Parse("x".into()));
        assert_ne!(CqaError::Parse("x".into()), CqaError::Parse("y".into()));
    }
}
