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

//! Approximation schemes for consistent query answering — the paper's
//! primary contribution.
//!
//! Given a database `D`, primary keys `Σ`, a CQ `Q(x̄)` and error
//! parameters `ε, δ`, a *data-efficient randomized approximation scheme*
//! for `RelativeFreq` outputs, for each candidate answer `t̄`, a value
//! within relative error `ε` of `R_{D,Σ,Q}(t̄)` with probability ≥ 1 − δ,
//! in time polynomial in `‖D‖`, `1/ε`, `log(1/δ)` (§3).
//!
//! Four schemes are implemented, all operating on encoded synopses
//! (Lemma 4.1):
//!
//! | module | algorithm |
//! |---|---|
//! | [`sampler`] | Samplers 1–3: `SampleNatural`, `SampleKL`, `SampleKLM`, and the `SamplingKernel` all four schemes share |
//! | [`optest`]  | `OptEstimate`: the Dagum–Karp–Luby–Ross optimal Monte-Carlo estimator |
//! | [`montecarlo`] | `MonteCarlo[Sample]` (Algorithm 2) |
//! | [`coverage`] | `SelfAdjustingCoverage` (Algorithm 6, after Karp–Luby–Madras) |
//! | [`scheme`] | the four schemes `Natural`, `KL`, `KLM`, `Cover` (Algorithms 3–5) |
//! | [`driver`] | `ApxCQA` (Algorithm 1 with the shared preprocessing of §5) |
//!
//! # Example
//!
//! The synopsis → scheme pipeline on the paper's Example 1.1: preprocess
//! the inconsistent database once (§5), then run an estimator over the
//! synopses. Alice works in IT in both repairs, Bob in one of two:
//!
//! ```
//! use cqa_common::Mt64;
//! use cqa_core::{apx_cqa_on_synopses, Budget, Scheme};
//! use cqa_query::parse;
//! use cqa_storage::{ColumnType, Database, Schema, Value};
//! use cqa_synopsis::{build_synopses, BuildOptions};
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
//! let q = parse(db.schema(), "Q(n) :- employee(i, n, 'IT')")?;
//! let syn = build_synopses(&db, &q, BuildOptions::default())?;
//! let mut rng = Mt64::new(42);
//! let res = apx_cqa_on_synopses(&syn, Scheme::Klm, 0.1, 0.25, &Budget::unbounded(), &mut rng)?;
//! for a in &res.answers {
//!     let expect = if db.resolve(a.tuple[0]) == Value::str("Alice") { 1.0 } else { 0.5 };
//!     assert!((a.frequency - expect).abs() <= 0.1 * expect);
//! }
//! # Ok::<(), cqa_common::CqaError>(())
//! ```

pub mod coverage;
pub mod driver;
pub mod montecarlo;
pub mod optest;
pub mod sampler;
pub mod scheme;

pub use coverage::{coverage_iterations, self_adjusting_coverage, CoverageOutcome};
pub use driver::{apx_cqa, apx_cqa_on_synopses, apx_cqa_parallel, ApxCqaResult, TupleEstimate};
pub use montecarlo::{monte_carlo, MonteCarloOutcome};
pub use optest::{plan_iterations, stopping_rule, PlanOutcome, StoppingOutcome};
pub use sampler::{KlSampler, KlmSampler, NaturalSampler, Sampler, SamplingKernel, SymbolicDraw};
pub use scheme::{approx_relative_frequency, ApproxOutcome, Budget, Scheme, ALL_SCHEMES};
