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

//! Shared infrastructure for the `cqa` workspace.
//!
//! This crate hosts the building blocks that every other crate relies on:
//!
//! * [`mt`] — a from-scratch MT19937-64 Mersenne Twister. The paper's
//!   implementation uses the Mersenne Twister of Matsumoto & Nishimura for
//!   all random choices (§5), so the approximation schemes here draw from
//!   the same generator family.
//! * [`alias`] — Walker's alias method for O(1) weighted sampling, used to
//!   pick an image index `i` with probability `|I^i| / |S•|` when sampling
//!   from the symbolic space.
//! * [`logspace`] — log-space non-negative numbers for quantities such as
//!   `|db(B)|` that overflow `f64`.
//! * [`stats`] — running mean/variance and percentile helpers for the
//!   benchmark harness.
//! * [`timer`] — stopwatches and soft deadlines (the paper flags runs as
//!   timed out after a budget; we do the same).
//! * [`checked`] — explicit float→integer conversions for estimator math,
//!   where clippy's `cast_possible_truncation` is denied.
//! * [`error`] — the shared error type.
//! * [`names`] — [`name_enum!`], the enum form of a closed set of names
//!   (spans, fault points, benchmark series).
//! * [`par`] — [`par_map`], the one order-preserving parallel map:
//!   `apx_cqa_parallel`'s per-answer sampling and the figure harness's
//!   per-pair runs both go through it.

pub mod alias;
pub mod checked;
pub mod error;
pub mod hash;
pub mod json;
pub mod logspace;
pub mod mt;
pub mod names;
pub mod par;
pub mod stats;
pub mod timer;
pub mod validate;

pub use alias::AliasTable;
pub use error::{CqaError, Result};
pub use hash::{fnv1a64, fnv1a64_parts, Fnv1a64};
pub use json::Json;
pub use logspace::LogNum;
pub use mt::{Below, Mt64};
pub use par::par_map;
pub use stats::{percentile, RunningStats};
pub use timer::{Deadline, Stopwatch};
