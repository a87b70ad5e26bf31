#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::allow_attributes_without_reason
)]
#![warn(missing_docs)]

//! `cqa-server` — a long-lived approximate-CQA service.
//!
//! The batch binaries rebuild every synopsis from scratch per invocation;
//! preprocessing dominates their cost (Fig. 3 of the paper). This crate
//! amortizes it: a TCP daemon loads a database dump once, caches built
//! synopses keyed by `(database fingerprint, constraint-set fingerprint,
//! canonical query fingerprint)` — so α-equivalent spellings of a query
//! share one entry — and answers approximate-CQA requests over a versioned
//! line-delimited JSON protocol (see `docs/PROTOCOL.md`). Components:
//!
//! * [`protocol`] — request/response types and their wire encoding.
//! * [`cache`] — the LRU synopsis cache, one map behind one lock, with
//!   hit/miss accounting.
//! * [`metrics`] — per-instance [`cqa_obs`] metric handles (counters,
//!   gauges and log-scale latency histograms), served by the protocol's
//!   `stats` command as JSON or Prometheus text, each metric under its
//!   one Prometheus name.
//! * [`server`] — the TCP daemon. Each query runs on its connection's
//!   thread once it holds one of a fixed number of admission permits,
//!   with a bounded wait list and per-request deadlines. Every request
//!   carries a request id (client-supplied `request_id` or
//!   server-generated) and leaves a digest in the always-on
//!   [`cqa_obs::flight`] recorder, dumped by the protocol's
//!   `debug flight` / `debug slowlog` commands.
//! * [`client`] — the blocking client library the CLI subcommands use.
//! * [`retry`] — the retrying client layer: exponential backoff with
//!   jitter under a budget, reconnect on transport errors, retry only on
//!   retryable structured errors (see `docs/RELIABILITY.md`).
//! * [`loadgen`] — the closed-loop load generator behind `cqa-cli
//!   bench-serve` and the `cqa-perf` server suite.
//! * [`chaos`] — the chaos runner behind `cqa-cli chaos`: replays
//!   bench-serve load under a seeded [`cqa_chaos`] fault plan and checks
//!   the reliability invariants.

pub mod cache;
pub mod chaos;
pub mod client;
mod gate;
pub mod loadgen;
pub mod metrics;
pub mod protocol;
pub mod retry;
pub mod server;

pub use cache::{CacheKey, CacheStats, SynopsisCache};
pub use chaos::{run_chaos, ChaosReport, ChaosSpec};
pub use client::Client;
pub use loadgen::{run_load, LoadReport, LoadSpec};
pub use metrics::{Metrics, MetricsSnapshot};
pub use protocol::{
    DebugTarget, ErrorKind, QueryRequest, Request, Response, StatsFormat, WireAnswer,
    MAX_REQUEST_ID_BYTES, MAX_REQUEST_LINE_BYTES, PROTOCOL_VERSION,
};
pub use retry::{RetryPolicy, RetryingClient};
pub use server::{Server, ServerConfig, ServerHandle};
