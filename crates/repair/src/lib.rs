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

//! Repairs of an inconsistent database w.r.t. primary keys.
//!
//! A repair keeps exactly one fact from each key-equal block (§2):
//! `rep(D, Σ) = { {α₁,…,αₙ} | ⟨α₁,…,αₙ⟩ ∈ ×_{B ∈ blockΣ(D)} B }`.
//!
//! This crate provides repair counting (log-space), full enumeration (for
//! small inputs and for ground-truth tests), and an
//! **exact** consistent-query-answering baseline that computes the relative
//! frequency `R_{D,Σ,Q}(t̄)` by brute force. The exact baseline is
//! exponential by design — `RelativeFreq` is `#P`-hard (§2) — and exists to
//! validate the synopsis reduction (Lemma 4.1) and the approximation
//! schemes' ε-guarantees on small instances.

pub mod enumerate;
pub mod exact;

pub use enumerate::{repair_count_checked, repair_to_database, RepairIter};
pub use exact::{certain_answer_exact, consistent_answers_exact, relative_frequency_exact};
