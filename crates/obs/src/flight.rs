//! The flight recorder: always-on, per-request observability.
//!
//! Three pieces, all process-global:
//!
//! 1. **The digest ring** — a fixed-capacity lock-free ring of
//!    [`FlightDigest`]s, one per completed server request: request id,
//!    canonical query fingerprint, cache hit/miss, queue wait, sample
//!    count, the estimator's CI half-width at termination, and the latency
//!    breakdown. It is the trace buffer's ring (`ring.rs`) with 18-word
//!    slots: a ticket via `fetch_add`, a forward-only claim that drops
//!    the digest when a wrapped writer holds the slot, and readers that
//!    skip torn slots — so recording a digest is a handful of plain
//!    atomic stores and never blocks. On wrap the oldest digests are
//!    overwritten; snapshots report how many.
//! 2. **The slow/error log** — a small bounded log of [`SlowlogEntry`]s
//!    that tail-samples the *full span tree* (captured per request via
//!    [`crate::trace::begin_capture`]) of requests that exceeded a latency
//!    threshold or returned a structured error. This is the expensive,
//!    rare path, so a mutex-guarded deque is fine here.
//! 3. **The request context** — a thread-local request id installed by
//!    [`begin_request`] for the duration of one request's execution on a
//!    worker thread, so any layer can attribute telemetry to the request
//!    without threading an id through every signature.
//!
//! Unlike tracing, the recorder is **always on**: digests are integer
//! stores into pre-allocated slots, cheap enough for every request, and
//! its cost is inside every `cqa-perf` `server/*` series.

use crate::ring::Ring;
use crate::trace::{self, TraceEvent};
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::{Mutex, OnceLock, PoisonError};

/// Digest-ring capacity in requests.
pub const DEFAULT_CAPACITY: usize = 1 << 10;

/// Longest request id retained in a digest slot; longer client-supplied
/// ids are rejected at the protocol layer, so truncation never happens in
/// practice.
pub const MAX_REQUEST_ID_BYTES: usize = 32;

/// Bounded slow/error-log length (oldest entries fall off).
pub const SLOWLOG_CAPACITY: usize = 64;

/// Spans captured per request for the slow/error log's span tree.
pub const CAPTURE_SPANS: usize = 256;

// ---------------------------------------------------------------------------
// The request context
// ---------------------------------------------------------------------------

thread_local! {
    static CURRENT_ID: RefCell<String> = const { RefCell::new(String::new()) };
}

/// Opens a request scope on this thread: installs `request_id` as the
/// thread's current request id and opens a span-capture window (up to
/// [`CAPTURE_SPANS`] spans) for the slow/error log. Call on the worker
/// thread that will execute the request, before any request work.
pub fn begin_request(request_id: &str) {
    CURRENT_ID.with(|c| {
        let mut id = c.borrow_mut();
        id.clear();
        id.push_str(request_id);
    });
    trace::begin_capture(CAPTURE_SPANS);
}

/// The request id installed by [`begin_request`], empty outside a request
/// scope.
pub fn current_request_id() -> String {
    CURRENT_ID.with(|c| c.borrow().clone())
}

/// Closes this thread's request scope. The captured spans stay in the
/// thread's reusable buffer: the fast path pays nothing, and a caller
/// that decides the request was slow (or failed) pulls them with
/// [`take_request_spans`] before the next [`begin_request`] overwrites
/// them.
pub fn end_request() {
    CURRENT_ID.with(|c| c.borrow_mut().clear());
    trace::end_capture();
}

/// The span tree captured for this thread's most recent request scope, in
/// timestamp order. Allocates; call only for requests headed to the
/// slow/error log.
pub fn take_request_spans() -> Vec<TraceEvent> {
    trace::take_capture()
}

// ---------------------------------------------------------------------------
// The digest ring
// ---------------------------------------------------------------------------

/// One completed request, compressed to fixed-width fields. It is also
/// the wire form of `debug flight`: each field is named after its wire key,
/// except the fingerprint, which rides as the 16-hex-digit `query_fp`.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightDigest {
    /// Client-supplied or server-generated request id (≤
    /// [`MAX_REQUEST_ID_BYTES`] bytes survive the ring).
    pub request_id: String,
    /// Canonical query fingerprint (0 when the query never parsed).
    pub query_fingerprint: u64,
    /// Scheme display name (`"Natural"`, `"KL"`, `"KLM"`, `"Cover"`); the
    /// ring keeps its first 8 bytes.
    pub scheme: Cow<'static, str>,
    /// Did the synopsis come from the cache?
    pub cache_hit: bool,
    /// Structured error kind name for failed requests; the ring keeps its
    /// first 24 bytes.
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

/// A digest is 18 ring words: the request id (4), the query fingerprint,
/// the scheme name (1), the error name (3), flags (bit 0 = cache hit,
/// bit 1 = error present), then the eight timing and estimator-telemetry fields.
/// Names ride as NUL-padded bytes, like the request id.
const DIGEST_WORDS: usize = 18;

fn ring() -> &'static Ring<DIGEST_WORDS> {
    static RING: OnceLock<Ring<DIGEST_WORDS>> = OnceLock::new();
    RING.get_or_init(|| Ring::new(DEFAULT_CAPACITY))
}

/// Packs the first `8 * N` bytes of `s` into `N` little-endian words,
/// NUL-padded.
fn str_words<const N: usize>(s: &str) -> [u64; N] {
    let mut words = [0u64; N];
    for (i, b) in s.as_bytes().iter().take(8 * N).enumerate() {
        words[i / 8] |= u64::from(*b) << ((i % 8) * 8);
    }
    words
}

fn words_str(words: &[u64]) -> String {
    let mut bytes = Vec::with_capacity(8 * words.len());
    'outer: for &w in words {
        for k in 0..8 {
            let b = ((w >> (k * 8)) & 0xff) as u8;
            if b == 0 {
                break 'outer;
            }
            bytes.push(b);
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Records one request digest into the ring. Wait-free: the shared ring's
/// claim-or-drop publication, no loops.
pub fn record(d: &FlightDigest) {
    let [i0, i1, i2, i3] = str_words(&d.request_id);
    let [scheme] = str_words(&d.scheme);
    let [e0, e1, e2] = str_words(d.error.as_deref().unwrap_or(""));
    let flags = u64::from(d.cache_hit) | (u64::from(d.error.is_some()) << 1);
    ring().push([
        i0,
        i1,
        i2,
        i3,
        d.query_fingerprint,
        scheme,
        e0,
        e1,
        e2,
        flags,
        d.queue_wait_us,
        d.samples,
        d.variance.to_bits(),
        d.ci_half_width.to_bits(),
        d.preprocess_us,
        d.scheme_us,
        d.total_us,
        d.ts_us,
    ]);
}

fn unpack(w: [u64; DIGEST_WORDS]) -> FlightDigest {
    let [i0, i1, i2, i3, fp, scheme, e0, e1, e2, flags, wait, samples, var, ci, pre, sch, total, ts] =
        w;
    FlightDigest {
        request_id: words_str(&[i0, i1, i2, i3]),
        query_fingerprint: fp,
        scheme: Cow::Owned(words_str(&[scheme])),
        cache_hit: flags & 1 != 0,
        error: (flags & 2 != 0).then(|| Cow::Owned(words_str(&[e0, e1, e2]))),
        queue_wait_us: wait,
        samples,
        variance: f64::from_bits(var),
        ci_half_width: f64::from_bits(ci),
        preprocess_us: pre,
        scheme_us: sch,
        total_us: total,
        ts_us: ts,
    }
}

/// Digests recorded so far (completion-timestamp order) and how many were
/// overwritten by ring wrap. Torn slots (a writer was mid-publish) are
/// skipped.
pub fn snapshot() -> (Vec<FlightDigest>, u64) {
    let (slots, dropped) = ring().snapshot();
    let mut digests = Vec::with_capacity(slots.len());
    for words in slots {
        digests.push(unpack(words));
    }
    digests.sort_by_key(|d| d.ts_us);
    (digests, dropped)
}

/// Digests lost to ring wrap so far — [`snapshot`]'s `dropped` without
/// building the snapshot. One atomic load, cheap enough for `stats`.
pub fn dropped_count() -> u64 {
    ring().dropped()
}

/// Empties the digest ring (tests; callers must ensure no concurrent
/// writers, as with [`crate::trace::clear`]).
pub fn clear() {
    ring().clear();
}

// ---------------------------------------------------------------------------
// The slow/error log
// ---------------------------------------------------------------------------

/// One tail-sampled request: its identity plus the full captured span
/// tree.
#[derive(Debug, Clone)]
pub struct SlowlogEntry {
    /// The request's id.
    pub request_id: String,
    /// Structured error kind name, when the request failed.
    pub error: Option<&'static str>,
    /// Admission-to-reply wall time.
    pub total_micros: u64,
    /// Completion timestamp, microseconds since the trace epoch.
    pub ts_micros: u64,
    /// The request's span tree (timestamp order; depth reconstructs
    /// nesting).
    pub spans: Vec<TraceEvent>,
}

fn slowlog() -> &'static Mutex<VecDeque<SlowlogEntry>> {
    static LOG: OnceLock<Mutex<VecDeque<SlowlogEntry>>> = OnceLock::new();
    LOG.get_or_init(|| Mutex::new(VecDeque::new()))
}

/// Appends to the slow/error log, evicting the oldest entry past
/// [`SLOWLOG_CAPACITY`].
pub fn slowlog_record(entry: SlowlogEntry) {
    let mut log = slowlog().lock().unwrap_or_else(PoisonError::into_inner);
    if log.len() >= SLOWLOG_CAPACITY {
        log.pop_front();
    }
    log.push_back(entry);
}

/// The current slow/error-log contents, oldest first.
pub fn slowlog_snapshot() -> Vec<SlowlogEntry> {
    slowlog().lock().unwrap_or_else(PoisonError::into_inner).iter().cloned().collect()
}

/// The current slow/error-log length, without cloning the entries.
pub fn slowlog_len() -> usize {
    slowlog().lock().unwrap_or_else(PoisonError::into_inner).len()
}

/// Empties the slow/error log (tests).
pub fn slowlog_clear() {
    slowlog().lock().unwrap_or_else(PoisonError::into_inner).clear();
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

    /// The ring is process-global; exercise record/snapshot/clear from one
    /// test to avoid cross-test interference.
    #[test]
    fn digest_ring_roundtrip_and_wrap() {
        clear();
        record(&digest("client-abc", 10));
        record(&FlightDigest {
            error: Some("deadline_exceeded".into()),
            cache_hit: false,
            ..digest("srv-0000000000000001", 20)
        });
        let (got, dropped) = snapshot();
        assert_eq!(dropped, 0);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], digest("client-abc", 10));
        assert_eq!(got[1].error.as_deref(), Some("deadline_exceeded"));
        assert!(!got[1].cache_hit);

        // Long ids keep their first MAX_REQUEST_ID_BYTES bytes.
        let long = "x".repeat(MAX_REQUEST_ID_BYTES + 9);
        record(&digest(&long, 30));
        let (got, _) = snapshot();
        assert_eq!(got.last().unwrap().request_id, "x".repeat(MAX_REQUEST_ID_BYTES));

        // Wrap: capacity + extra records drop the oldest.
        clear();
        for i in 0..(DEFAULT_CAPACITY as u64 + 5) {
            record(&digest("wrap", i));
        }
        let (got, dropped) = snapshot();
        assert_eq!(got.len(), DEFAULT_CAPACITY);
        assert_eq!(dropped, 5);
    }

    #[test]
    fn request_scope_carries_the_id_and_span_tree() {
        begin_request("req-77");
        assert_eq!(current_request_id(), "req-77");
        {
            let _g = crate::span(crate::Span::ServerRequest);
        }
        end_request();
        assert_eq!(current_request_id(), "");
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
                total_micros: 1000 + i,
                ts_micros: i,
                spans: Vec::new(),
            });
        }
        let log = slowlog_snapshot();
        assert_eq!(log.len(), SLOWLOG_CAPACITY);
        assert_eq!(log.first().unwrap().request_id, "slow-3");
        assert_eq!(log.last().unwrap().request_id, format!("slow-{}", SLOWLOG_CAPACITY + 2));
        slowlog_clear();
        assert!(slowlog_snapshot().is_empty());
    }

    #[test]
    fn str_words_roundtrip() {
        for id in ["", "a", "exactly-8", "a-much-longer-request-id-string!"] {
            assert_eq!(words_str(&str_words::<4>(id)), *id);
        }
        assert_eq!(words_str(&str_words::<1>("Natural")), "Natural");
        assert_eq!(words_str(&str_words::<1>("truncated")), "truncate");
    }
}
