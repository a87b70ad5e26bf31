#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! `cqa-perf` — the continuous benchmarking subsystem.
//!
//! The paper this workspace reproduces is itself a benchmark, so the repo
//! holds itself to a machine-readable perf contract: every PR records a
//! `BENCH_<pr>.json` at the repo root as the trajectory, and CI gates each
//! change by running the merge base's build and its own in turn.
//!
//! * [`names`] — every series name, as the [`names::SeriesName`] enum.
//! * [`stats`] — warmup/repeat measurement with median + MAD outlier
//!   rejection.
//! * [`schema`] — the versioned, serde-free `BENCH_<pr>.json` schema.
//! * [`envinfo`] — commit/rustc/CPU fingerprinting.
//! * [`suites`] — the suite registry: samplers, schemes, synopsis
//!   construction, figure pipeline, server throughput/tail latency, and
//!   the ablation and DKLR-cost series.
//! * [`mod@diff`] — the paired regression gate: base and head alternate
//!   per suite for 12 rounds, judged per series by a sign test.
//! * [`cli`] — argument parsing and dispatch for the `cqa-perf` binary:
//!   `run` and `diff`.
//!
//! See `docs/BENCHMARKING.md` for the operational story.

pub mod cli;
pub mod diff;
pub mod envinfo;
pub mod names;
pub mod schema;
pub mod stats;
pub mod suites;

pub use schema::{bench_series, BenchReport, EnvFingerprint, Series};
pub use stats::{MeasureOpts, Summary};
