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

//! Database synopses: the interface between databases and the
//! approximation schemes.
//!
//! The `(Σ,Q)`-synopsis of `D` for a tuple `t̄` (§4.1) is the pair
//! `(H, B)` of (i) the consistent homomorphic images of `Q(t̄)` in `D` and
//! (ii) the key-equal blocks of the facts occurring in those images. By
//! Lemma 4.1 the synopsis determines the relative frequency:
//! `R_{D,Σ,Q}(t̄) = R(H, B)`, and it can be built in polynomial time.
//!
//! * [`admissible`] — the integer-encoded admissible pair the schemes
//!   consume (`enc(syn_{Σ,Q}(D))` of §5: facts are `(block, tid)` pairs,
//!   blocks carry only their size `kcnt`). It is also the Block DNF of
//!   footnote 6: blocks partition the variables, and images are the
//!   clauses.
//! * [`build`] — the preprocessing step: one pass over all homomorphisms
//!   builds every tuple's synopsis, mirroring the paper's single-SQL-query
//!   rewriting `Q^rew` (Appendix C).
//! * [`exact`] — exact `R(H, B)` by `db(B)` enumeration and by
//!   inclusion–exclusion over `H` (ground truth for tests and accuracy
//!   experiments).
//! * [`stats`] — the dynamic query parameters of §6.1: homomorphic size,
//!   output size, and **balance**.
//!
//! # Example
//!
//! The paper's Example 1.1: `employee` is keyed on `id`, and employee 1
//! has two conflicting facts, so the database has two repairs. Building
//! the synopses and evaluating `R(H, B)` exactly recovers each answer's
//! relative frequency:
//!
//! ```
//! use cqa_query::parse;
//! use cqa_storage::{ColumnType, Database, Schema, Value};
//! use cqa_synopsis::{build_synopses, exact_ratio_enumerate, BuildOptions};
//!
//! let schema = Schema::builder()
//!     .relation(
//!         "employee",
//!         &[("id", ColumnType::Int), ("name", ColumnType::Str), ("dept", ColumnType::Str)],
//!         Some(1),
//!     )
//!     .build();
//! let mut db = Database::new(schema);
//! for (id, name, dept) in [(1, "Bob", "HR"), (1, "Bob", "IT"), (2, "Alice", "IT")] {
//!     db.insert_named("employee", &[Value::Int(id), Value::str(name), Value::str(dept)])?;
//! }
//!
//! // Who works in IT? Two candidate answers, one synopsis each.
//! let q = parse(db.schema(), "Q(n) :- employee(i, n, 'IT')")?;
//! let syn = build_synopses(&db, &q, BuildOptions::default())?;
//! assert_eq!(syn.output_size(), 2);
//!
//! // Alice's fact is conflict-free: she answers in both repairs.
//! let alice = db.lookup_value(&Value::str("Alice")).unwrap();
//! let pair = &syn.get(&[alice]).unwrap().pair;
//! assert_eq!(exact_ratio_enumerate(pair, 1_000)?, 1.0);
//!
//! // Bob is in IT only in the repair that picks (1, Bob, IT).
//! let bob = db.lookup_value(&Value::str("Bob")).unwrap();
//! let pair = &syn.get(&[bob]).unwrap().pair;
//! assert_eq!(exact_ratio_enumerate(pair, 1_000)?, 0.5);
//! # Ok::<(), cqa_common::CqaError>(())
//! ```

pub mod admissible;
pub mod build;
pub mod certain;
pub mod exact;
pub mod rewrite;
pub mod stats;

pub use admissible::{AdmissiblePair, ImageAtom};
pub use build::{build_synopses, BuildOptions, SynopsisEntry, SynopsisSet};
pub use certain::{certain_answers, certain_answers_of, is_certain, CertaintyEvidence};
pub use exact::{exact_ratio_enumerate, exact_ratio_inclusion_exclusion};
pub use rewrite::{fold_rows, rewrite_rows, AtomMeta, RewriteRow};
pub use stats::SynopsisStats;
