//! # cqa-obs — observability for the cqa workspace
//!
//! Std-only, zero-cost-when-disabled tracing and metrics, shared by every
//! crate in the workspace:
//!
//! * **Tracing** ([`trace`]): RAII [`span`]s and instant events
//!   ([`instant_args`]), each named by a [`Span`] variant, with
//!   monotonic microsecond timestamps, thread-local span stacks (for depth
//!   and self-time attribution), and a bounded event log. Off by default;
//!   instrumented code pays one relaxed atomic load until
//!   [`set_enabled`]`(true)`.
//! * **Export** ([`export`]): the recorded log renders as Chrome
//!   `trace_event` JSON (open in `chrome://tracing` or Perfetto) or as a
//!   terminal flat profile sorted by self time.
//! * **Metrics** ([`metrics`]): lock-free [`Counter`], [`Gauge`] and log₂
//!   latency [`Histogram`] handles. They carry no names; `cqa-server`
//!   owns one set per instance and renders it, with the values it reads
//!   from the cache and the flight recorder, as JSON or Prometheus text.
//! * **Flight recorder** ([`flight`]): always-on per-request digests and a
//!   tail-sampled slow/error log of full span trees, served live by
//!   `cqa-server`'s `debug flight` / `debug slowlog` commands.
//!
//! The trace events, the digests and the slow/error entries are three
//! logs of one type: the newest N records under a mutex, the oldest
//! evicted first and counted.
//!
//! ```
//! use cqa_obs::Span;
//!
//! cqa_obs::set_enabled(true);
//! {
//!     let mut g = cqa_obs::span(Span::SynopsisBuild);
//!     g.set_args(42, 0);
//! }
//! let json = cqa_obs::export::chrome_trace_string();
//! assert!(json.contains("synopsis/build"));
//! cqa_obs::set_enabled(false);
//! ```

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

mod bounded;
pub mod export;
pub mod flight;
pub mod metrics;
pub mod names;
pub mod trace;

pub use export::{chrome_trace_string, flat_profile_string, write_chrome_trace};
pub use flight::{FlightDigest, SlowlogEntry};
pub use metrics::{Counter, Gauge, Histogram};
pub use names::Span;
pub use trace::{
    enabled, instant_args, now_micros, record_span, set_enabled, span, span_args, EventKind,
    SpanGuard, TraceEvent,
};
