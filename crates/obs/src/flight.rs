//! The flight recorder: always-on, per-request observability.
//!
//! Three pieces, all process-global:
//!
//! 1. **The digest log** — the newest [`DEFAULT_CAPACITY`]
//!    [`FlightDigest`]s, one per completed server request: request id,
//!    canonical query fingerprint, cache hit/miss, queue wait, sample
//!    count, the estimator's CI half-width at termination, and the latency
//!    breakdown. On overflow the oldest digests are evicted; snapshots
//!    report how many.
//! 2. **The slow/error log** — the newest [`SLOWLOG_CAPACITY`]
//!    [`SlowlogEntry`]s, each the *full span tree* (captured per request
//!    via [`crate::trace::begin_capture`]) of a request that exceeded a
//!    latency threshold or returned a structured error.
//! 3. **The request scope** — [`begin_request`]/[`end_request`] bracket
//!    one request's execution on the thread that runs it and capture its
//!    spans for the slow/error log.
//!
//! Both logs are the trace buffer's bounded log (`bounded.rs`), holding
//! each record as it is. Unlike tracing, the recorder is **always on**: a
//! digest is one short locked push per request, and its cost is inside
//! every `cqa-perf` `server/*` series.

use crate::bounded::BoundedLog;
use crate::trace::{self, TraceEvent};
use cqa_common::Json;
use std::borrow::Cow;

/// Digest-log capacity in requests.
pub const DEFAULT_CAPACITY: usize = 1 << 10;

/// Slow/error-log capacity in entries.
pub const SLOWLOG_CAPACITY: usize = 64;

/// Spans captured per request for the slow/error log's span tree.
pub const CAPTURE_SPANS: usize = 256;

// ---------------------------------------------------------------------------
// The request scope
// ---------------------------------------------------------------------------

/// Opens a request scope on this thread: a span-capture window (up to
/// [`CAPTURE_SPANS`] spans) for the slow/error log. Call on the thread
/// that will execute the request, before any request work.
pub fn begin_request() {
    trace::begin_capture(CAPTURE_SPANS);
}

/// Closes this thread's request scope. The captured spans stay in the
/// thread's reusable buffer: the fast path pays nothing, and a caller
/// that decides the request was slow (or failed) pulls them with
/// [`take_request_spans`] before the next [`begin_request`] overwrites
/// them.
pub fn end_request() {
    trace::end_capture();
}

/// The span tree captured for this thread's most recent request scope, in
/// timestamp order. Allocates; call only for requests headed to the
/// slow/error log.
pub fn take_request_spans() -> Vec<TraceEvent> {
    trace::take_capture()
}

// ---------------------------------------------------------------------------
// The digest log
// ---------------------------------------------------------------------------

/// One completed request. It is also the wire form of `debug flight`: each
/// field is named after its wire key, except the fingerprint, which rides
/// as the 16-hex-digit `query_fp`. A new field is declared here and in the
/// protocol's digest codec, nowhere else.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlightDigest {
    /// Client-supplied or server-generated request id.
    pub request_id: String,
    /// Canonical query fingerprint (0 when the query never parsed).
    pub query_fingerprint: u64,
    /// Scheme display name (`"Natural"`, `"KL"`, `"KLM"`, `"Cover"`).
    pub scheme: Cow<'static, str>,
    /// Did the synopsis come from the cache?
    pub cache_hit: bool,
    /// Structured error kind name for failed requests.
    pub error: Option<Cow<'static, str>>,
    /// Time spent queued before a worker picked the request up,
    /// microseconds.
    pub queue_wait_us: u64,
    /// Samples the scheme drew.
    pub samples: u64,
    /// Running sample variance of the estimator at termination.
    pub variance: f64,
    /// One-standard-error CI half-width of the estimate at termination
    /// (the worst answer's, for multi-answer queries).
    pub ci_half_width: f64,
    /// Synopsis-build time, microseconds (0 on cache hits).
    pub preprocess_us: u64,
    /// Sampling time, microseconds.
    pub scheme_us: u64,
    /// Admission-to-reply wall time, microseconds.
    pub total_us: u64,
    /// Completion timestamp, microseconds since the trace epoch.
    pub ts_us: u64,
}

static DIGESTS: BoundedLog<FlightDigest> = BoundedLog::new(DEFAULT_CAPACITY);

/// Records one request digest, evicting the oldest past
/// [`DEFAULT_CAPACITY`].
pub fn record(digest: FlightDigest) {
    DIGESTS.push(digest);
}

/// Digests recorded so far (completion-timestamp order) and how many were
/// evicted past capacity.
pub fn snapshot() -> (Vec<FlightDigest>, u64) {
    let (mut digests, dropped) = DIGESTS.snapshot();
    digests.sort_by_key(|d| d.ts_us);
    (digests, dropped)
}

/// Digests evicted so far — [`snapshot`]'s `dropped` without building the
/// snapshot, cheap enough for `stats`.
pub fn dropped_count() -> u64 {
    DIGESTS.dropped()
}

/// Empties the digest log (tests).
pub fn clear() {
    DIGESTS.clear();
}

// ---------------------------------------------------------------------------
// The slow/error log
// ---------------------------------------------------------------------------

/// One tail-sampled request: its identity plus its span tree, rendered
/// once when it is recorded. It is also the wire form of `debug slowlog`:
/// each field is named after its wire key.
#[derive(Debug, Clone, PartialEq)]
pub struct SlowlogEntry {
    /// The request's id.
    pub request_id: String,
    /// Structured error kind name, when the request failed.
    pub error: Option<Cow<'static, str>>,
    /// Admission-to-reply wall time, microseconds.
    pub total_us: u64,
    /// Completion timestamp, microseconds since the trace epoch.
    pub ts_us: u64,
    /// The span tree as a JSON array ([`span_tree_json`]), timestamp
    /// order; `depth` reconstructs nesting.
    pub spans: Json,
}

/// Renders a captured span tree for a [`SlowlogEntry`]: one object of
/// name, depth, timings and arguments per event.
pub fn span_tree_json(events: &[TraceEvent]) -> Json {
    Json::Arr(
        events
            .iter()
            .map(|ev| {
                Json::obj([
                    ("name", Json::str(ev.name)),
                    ("depth", Json::from(u64::from(ev.depth))),
                    ("ts_us", Json::from(ev.ts_micros)),
                    ("dur_us", Json::from(ev.dur_micros)),
                    ("self_us", Json::from(ev.self_micros)),
                    ("a0", Json::from(ev.a0)),
                    ("a1", Json::from(ev.a1)),
                ])
            })
            .collect(),
    )
}

static SLOWLOG: BoundedLog<SlowlogEntry> = BoundedLog::new(SLOWLOG_CAPACITY);

/// Appends to the slow/error log, evicting the oldest entry past
/// [`SLOWLOG_CAPACITY`].
pub fn slowlog_record(entry: SlowlogEntry) {
    SLOWLOG.push(entry);
}

/// The current slow/error-log contents, oldest first.
pub fn slowlog_snapshot() -> Vec<SlowlogEntry> {
    SLOWLOG.snapshot().0
}

/// The current slow/error-log length, without cloning the entries.
pub fn slowlog_len() -> usize {
    SLOWLOG.len()
}

/// Empties the slow/error log (tests).
pub fn slowlog_clear() {
    SLOWLOG.clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(id: &str, ts: u64) -> FlightDigest {
        FlightDigest {
            request_id: id.to_owned(),
            query_fingerprint: 0xfeed,
            scheme: "Natural".into(),
            cache_hit: true,
            error: None,
            queue_wait_us: 12,
            samples: 1800,
            variance: 0.25,
            ci_half_width: 0.011,
            preprocess_us: 0,
            scheme_us: 900,
            total_us: 950,
            ts_us: ts,
        }
    }

    /// The digest log is process-global; exercise record/snapshot/clear
    /// from one test to avoid cross-test interference.
    #[test]
    fn digest_log_roundtrip_threads_and_eviction() {
        clear();
        record(digest("client-abc", 10));
        let failed = FlightDigest {
            error: Some("deadline_exceeded".into()),
            cache_hit: false,
            ..digest("srv-0000000000000001", 20)
        };
        record(failed.clone());
        assert_eq!(snapshot(), (vec![digest("client-abc", 10), failed], 0));

        // Four threads of 250 pushes each, released together, fill the
        // 1024-slot log without losing one, and the snapshot is in
        // timestamp order.
        clear();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4 {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    for i in 0..250 {
                        record(digest(&format!("t{t}-{i}"), crate::now_micros()));
                    }
                });
            }
        });
        let (got, dropped) = snapshot();
        assert_eq!((got.len(), dropped), (1000, 0));
        assert!(got.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
        let mut ids: Vec<&str> = got.iter().map(|d| d.request_id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 1000, "every pushed digest is kept");

        // Past capacity the oldest go first, each one counted.
        clear();
        for i in 0..(DEFAULT_CAPACITY as u64 + 5) {
            record(digest("wrap", i));
        }
        let (got, dropped) = snapshot();
        assert_eq!((got.len(), dropped, dropped_count()), (DEFAULT_CAPACITY, 5, 5));
        assert_eq!(got.first().map(|d| d.ts_us), Some(5));
        clear();
    }

    #[test]
    fn request_scope_captures_the_span_tree() {
        begin_request();
        {
            let _g = crate::span(crate::Span::ServerRequest);
        }
        end_request();
        let spans = take_request_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "server/request");
        assert!(take_request_spans().is_empty(), "taking the spans drains the buffer");
    }

    #[test]
    fn slowlog_is_bounded_and_ordered() {
        slowlog_clear();
        for i in 0..(SLOWLOG_CAPACITY as u64 + 3) {
            slowlog_record(SlowlogEntry {
                request_id: format!("slow-{i}"),
                error: None,
                total_us: 1000 + i,
                ts_us: i,
                spans: span_tree_json(&[]),
            });
        }
        let log = slowlog_snapshot();
        assert_eq!(log.len(), SLOWLOG_CAPACITY);
        assert_eq!(log.first().unwrap().request_id, "slow-3");
        assert_eq!(log.last().unwrap().request_id, format!("slow-{}", SLOWLOG_CAPACITY + 2));
        slowlog_clear();
        assert!(slowlog_snapshot().is_empty());
    }
}
