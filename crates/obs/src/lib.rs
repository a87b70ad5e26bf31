//! # cqa-obs — observability for the cqa workspace
//!
//! Std-only, zero-cost-when-disabled tracing and metrics, shared by every
//! crate in the workspace:
//!
//! * **Tracing** ([`trace`]): RAII [`span`]s and [`instant`] events with
//!   monotonic microsecond timestamps, thread-local span stacks (for depth
//!   and self-time attribution), and a lock-free bounded ring buffer. Off
//!   by default; instrumented code pays one relaxed atomic load until
//!   [`set_enabled`]`(true)`.
//! * **Export** ([`export`]): the recorded ring renders as Chrome
//!   `trace_event` JSON (open in `chrome://tracing` or Perfetto) or as a
//!   terminal flat profile sorted by self time.
//! * **Metrics** ([`metrics`]): named counters, gauges, and log₂ latency
//!   [`Histogram`]s in a [`Registry`] rendered to JSON or Prometheus text
//!   exposition format. A process-wide [`metrics::global`] registry holds
//!   library-level counters (samples drawn, rejected draws, scheme runs,
//!   budget expiries); servers own per-instance registries.
//! * **Flight recorder** ([`flight`]): always-on per-request digests in
//!   the same lock-free ring type the trace buffer uses, a tail-sampled
//!   slow/error log of full span trees, and a thread-local request
//!   context (`request_id`), served live by `cqa-server`'s
//!   `debug flight` / `debug slowlog` commands.
//!
//! ```
//! cqa_obs::set_enabled(true);
//! {
//!     let mut g = cqa_obs::span("demo/work");
//!     g.set_args(42, 0);
//! }
//! let json = cqa_obs::export::chrome_trace_string();
//! assert!(json.contains("demo/work"));
//! cqa_obs::set_enabled(false);
//! ```

#![forbid(unsafe_code)]

pub mod export;
pub mod flight;
pub mod metrics;
pub mod names;
mod ring;
pub mod trace;

pub use export::{chrome_trace_string, flat_profile_string, write_chrome_trace};
pub use flight::{FlightDigest, SlowlogEntry};
pub use metrics::{Counter, Gauge, Histogram, Registry};
pub use trace::{
    enabled, instant, instant_args, now_micros, record_span, set_enabled, span, span_args,
    EventKind, SpanGuard, TraceEvent,
};
