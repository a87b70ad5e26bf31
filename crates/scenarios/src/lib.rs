#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! The benchmark proper: test scenarios and the experiment pipelines that
//! regenerate every figure of the paper (§6–§7, Appendices E–H).
//!
//! * [`config`] — benchmark profiles (`quick` for CI-sized runs, `full`
//!   for paper-shaped grids), overridable via `CQA_*` environment
//!   variables.
//! * [`pool`] — builds the database–query pair set `P_H` (§6.2): a
//!   consistent TPC-H-like base `D_H`, SQG queries per join level, noisy
//!   databases `D_Q[p]` per noise level, and DQG-balanced queries
//!   `Q_p[q]` plus the Boolean `Q_p[0]`.
//! * [`runner`] — runs all four schemes on a pair with a shared
//!   preprocessing pass and per-scheme timeouts; the figures spread pairs
//!   over `cfg.threads` threads with [`cqa_common::par_map`].
//! * [`report`] — figure data structures, ASCII rendering, CSV output.
//! * [`figures`] — one pipeline per paper figure: `fig1` (noise),
//!   `fig2` (balance), `fig3` (preprocessing distribution), `fig4`
//!   (joins share), `fig5` (TPC-H/TPC-DS validation), and the take-home
//!   verdict table.

pub mod config;
pub mod figures;
pub mod pool;
pub mod report;
pub mod runner;

pub use config::BenchConfig;
pub use pool::{Pool, PoolQuery};
pub use report::{Figure, Series};
pub use runner::{run_pair, PairOutcome, SchemeRun};
