#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes_without_reason
)]
#![warn(missing_docs)]

//! Conjunctive queries: representation, parsing, and evaluation.
//!
//! A CQ `Q(x̄) :- R₁(z̄₁) ∧ … ∧ Rₙ(z̄ₙ)` (§2) is represented by [`ast`],
//! parsed from a datalog-style surface syntax by [`parser`], and evaluated
//! by [`eval`], which enumerates **all homomorphisms** from the query to a
//! database together with per-atom fact provenance. The provenance is what
//! the synopsis construction (the paper's preprocessing step, §5) consumes:
//! each homomorphism `h` yields a homomorphic image `h(Q)` as a set of
//! facts, from which block metadata is attached.

//!
//! Queries that differ only in variable names and atom order are
//! interchangeable for synopsis construction; [`canonical`] computes a
//! deterministic representative of that equivalence class with a stable
//! fingerprint, which the server uses as its synopsis-cache key.
//!
//! ```
//! use cqa_query::parse;
//! use cqa_storage::{ColumnType::*, Schema};
//!
//! let schema = Schema::builder()
//!     .relation("employee", &[("id", Int), ("name", Str), ("dept", Str)], Some(1))
//!     .build();
//! let q = parse(&schema, "Q(n) :- employee(i, n, 'HR')")?;
//! assert_eq!(q.head.len(), 1);
//! assert_eq!(q.canonical_form().text(), "Q(x0) :- r0(x1, x0, 'HR')");
//! # Ok::<(), cqa_common::CqaError>(())
//! ```

pub mod ast;
pub mod canonical;
pub mod eval;
pub mod parser;

pub use ast::{Atom, ConjunctiveQuery, Term, VarId};
pub use canonical::{permute_query_text, CanonicalAtom, CanonicalQuery, CanonicalTerm};
pub use eval::{answers, for_each_hom, homomorphisms, is_answer, EvalOptions, Hom};
pub use parser::parse;
