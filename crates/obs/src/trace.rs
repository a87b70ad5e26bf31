//! Span/event tracing: thread-local span stacks, monotonic timestamps, and
//! a lock-free bounded ring buffer of events.
//!
//! The design goals, in order:
//!
//! 1. **Zero cost when disabled.** Every public entry point starts with one
//!    relaxed load of a global [`AtomicBool`]; nothing else happens while
//!    tracing is off, so instrumented hot paths (the sampler loops, the
//!    synopsis builder) pay a single predictable branch.
//! 2. **No locks on the hot path when enabled.** Events land in a global
//!    bounded ring of atomic slots, the one ring (`ring.rs`) the flight
//!    recorder also uses: a writer takes a ticket with one `fetch_add`,
//!    claims its slot with one forward-only compare-exchange (or drops
//!    the event when a wrapped writer holds it), and publishes through
//!    the slot's sequence word, so recording is wait-free and readers
//!    skip torn slots — expressed entirely in safe Rust because every
//!    word of a slot is itself an atomic.
//! 3. **Integer-only events.** A span's name is a [`Span`], and its id
//!    in the ring is the enum discriminant, so a recorded event is seven
//!    integer payload words, one 64-byte slot with its sequence word.
//!
//! When the ring wraps, the oldest events are overwritten; the exporter
//! reports how many were dropped. Timestamps are microseconds since a
//! process-wide epoch captured on first use, which is exactly the clock
//! Chrome's `trace_event` format wants.

use crate::names::Span;
use crate::ring::Ring;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Default ring capacity in events (~4 MiB resident once touched).
pub const DEFAULT_CAPACITY: usize = 1 << 16;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is tracing currently on? One relaxed load — the check instrumented code
/// performs before doing any other tracing work.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns tracing on or off process-wide. Spans opened while disabled stay
/// no-ops; a span opened while enabled records to the ring on drop only if
/// tracing is still enabled then (it may still land in an open request
/// capture — see [`begin_capture`]).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the process trace epoch. Usable as an explicit start
/// time for [`record_span`].
#[inline]
pub fn now_micros() -> u64 {
    epoch().elapsed().as_micros() as u64
}

// ---------------------------------------------------------------------------
// The event ring
// ---------------------------------------------------------------------------

/// What a recorded event describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A completed span: `ts` is the start, `dur` the wall duration.
    Span,
    /// A point-in-time marker; `dur` is 0.
    Instant,
}

/// Ring words per event: with the sequence word, one 64-byte slot.
const EVENT_WORDS: usize = 7;

/// Packs one event into the ring's seven payload words: the [`Span`]
/// discriminant, `kind` (bit 0) | `depth << 1` (7 bits) | `tid << 8`,
/// start, duration, self-time and the two arguments. `timing` is
/// `[duration, self-time]` in microseconds.
fn push(name: Span, kind: EventKind, depth: u8, ts: u64, timing: [u64; 2], args: [u64; 2]) {
    let kind_bit = match kind {
        EventKind::Span => 0u64,
        EventKind::Instant => 1u64,
    };
    let meta = kind_bit | (u64::from(depth & 0x7f) << 1) | (u64::from(thread_id()) << 8);
    ring().push([name as u64, meta, ts, timing[0], timing[1], args[0], args[1]]);
}

fn unpack([name, meta, ts, dur, self_us, a0, a1]: [u64; EVENT_WORDS]) -> TraceEvent {
    TraceEvent {
        name: Span::ALL.get(name as usize).map_or("?", |s| s.name()),
        kind: if meta & 1 == 0 { EventKind::Span } else { EventKind::Instant },
        tid: (meta >> 8) as u32,
        depth: ((meta >> 1) & 0x7f) as u8,
        ts_micros: ts,
        dur_micros: dur,
        self_micros: self_us,
        a0,
        a1,
    }
}

fn ring() -> &'static Ring<EVENT_WORDS> {
    static RING: OnceLock<Ring<EVENT_WORDS>> = OnceLock::new();
    RING.get_or_init(|| Ring::new(DEFAULT_CAPACITY))
}

// ---------------------------------------------------------------------------
// Thread ids and the span stack
// ---------------------------------------------------------------------------

static NEXT_TID: AtomicU32 = AtomicU32::new(1);

struct Frame {
    /// Wall micros spent in already-closed direct children, for self-time.
    child_micros: u64,
}

thread_local! {
    static TID: u32 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

fn thread_id() -> u32 {
    TID.with(|t| *t)
}

// ---------------------------------------------------------------------------
// Request-scoped span capture
// ---------------------------------------------------------------------------
//
// The flight recorder's slow/error log wants the *full span tree of one
// request* even while global tracing is off. A thread can therefore open a
// capture window: spans and instants recorded on that thread land in a
// pre-sized thread-local buffer (in addition to the global ring when
// tracing is enabled). The buffer never grows after `begin_capture`, so a
// capture adds no allocation to the instrumented paths themselves.

struct Capture {
    /// Pre-sized at `begin_capture`; `buf[..len]` holds captured events.
    buf: Vec<TraceEvent>,
    len: usize,
}

thread_local! {
    static CAPTURING: Cell<bool> = const { Cell::new(false) };
    static CAPTURE: RefCell<Option<Capture>> = const { RefCell::new(None) };
}

/// Is a span-capture window open on this thread? One thread-local load.
#[inline(always)]
pub fn capturing() -> bool {
    CAPTURING.with(|c| c.get())
}

/// Opens a span-capture window on this thread: up to `limit` spans and
/// instants recorded here are retained for [`take_capture`], independent of
/// whether global tracing is enabled. Replaces any previous window. The
/// buffer is thread-local and **reused** across windows — a worker thread
/// pays its allocation once, not per request (the `cqa-perf` flight suite
/// gates on that).
pub fn begin_capture(limit: usize) {
    CAPTURE.with(|c| {
        let mut slot = c.borrow_mut();
        match slot.as_mut() {
            Some(cap) if cap.buf.len() == limit => cap.len = 0,
            _ => {
                let mut cap = Capture { buf: Vec::new(), len: 0 };
                cap.buf.resize_with(limit, unwritten_event);
                *slot = Some(cap);
            }
        }
    });
    CAPTURING.with(|c| c.set(true));
}

/// Closes this thread's capture window, leaving the captured events in
/// the reusable buffer for [`take_capture`]. The cheap path: no
/// allocation, no copy, no sort.
pub fn end_capture() {
    CAPTURING.with(|c| c.set(false));
}

/// Returns (and clears) the events captured since the last
/// [`begin_capture`] on this thread, in timestamp order. Events beyond the
/// window's limit were discarded. Also closes the window if it is still
/// open. Allocates the returned copy — callers on the fast path use
/// [`end_capture`] and never pay for it.
pub fn take_capture() -> Vec<TraceEvent> {
    CAPTURING.with(|c| c.set(false));
    CAPTURE.with(|c| match c.borrow_mut().as_mut() {
        Some(cap) => {
            let mut events = cap.buf[..cap.len].to_vec();
            cap.len = 0;
            events.sort_by_key(|e| e.ts_micros);
            events
        }
        None => Vec::new(),
    })
}

fn unwritten_event() -> TraceEvent {
    TraceEvent {
        name: "",
        kind: EventKind::Span,
        tid: 0,
        depth: 0,
        ts_micros: 0,
        dur_micros: 0,
        self_micros: 0,
        a0: 0,
        a1: 0,
    }
}

/// Writes into the pre-sized buffer; no allocation happens here.
fn capture_push(ev: TraceEvent) {
    CAPTURE.with(|c| {
        if let Some(cap) = c.borrow_mut().as_mut() {
            if cap.len < cap.buf.len() {
                cap.buf[cap.len] = ev;
                cap.len += 1;
            }
        }
    });
}

// ---------------------------------------------------------------------------
// Public recording API
// ---------------------------------------------------------------------------

/// An RAII guard for one span. Records a [`EventKind::Span`] event covering
/// construction-to-drop when tracing was enabled at construction; otherwise
/// a no-op shell.
pub struct SpanGuard {
    name: Span,
    start: u64,
    args: [u64; 2],
    active: bool,
}

/// Opens a span.
#[inline]
pub fn span(name: Span) -> SpanGuard {
    span_args(name, 0, 0)
}

/// Opens a span carrying two integer arguments (attribution values such as
/// a seed, a noise level ×100, or a sample count).
#[inline]
pub fn span_args(name: Span, a0: u64, a1: u64) -> SpanGuard {
    if !enabled() && !capturing() {
        return SpanGuard { name, start: 0, args: [0, 0], active: false };
    }
    STACK.with(|s| s.borrow_mut().push(Frame { child_micros: 0 }));
    SpanGuard { name, start: now_micros(), args: [a0, a1], active: true }
}

impl SpanGuard {
    /// Replaces the span's arguments — for values only known at the end,
    /// like the number of samples a loop ran.
    #[inline]
    pub fn set_args(&mut self, a0: u64, a1: u64) {
        if self.active {
            self.args = [a0, a1];
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let dur = now_micros().saturating_sub(self.start);
        let (depth, self_us) = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Guards pop in push order, but a panicking unwind can run drops
            // with the stack already torn down; degrade to zero child
            // attribution rather than panicking inside `Drop`.
            let child_micros = stack.pop().map_or(0, |frame| frame.child_micros);
            let self_us = dur.saturating_sub(child_micros);
            if let Some(parent) = stack.last_mut() {
                parent.child_micros = parent.child_micros.saturating_add(dur);
            }
            (stack.len().min(0x7f) as u8, self_us)
        });
        if enabled() {
            push(self.name, EventKind::Span, depth, self.start, [dur, self_us], self.args);
        }
        if capturing() {
            capture_push(TraceEvent {
                name: self.name.name(),
                kind: EventKind::Span,
                tid: thread_id(),
                depth,
                ts_micros: self.start,
                dur_micros: dur,
                self_micros: self_us,
                a0: self.args[0],
                a1: self.args[1],
            });
        }
    }
}

/// Records a point-in-time event with two integer arguments.
#[inline]
pub fn instant_args(name: Span, a0: u64, a1: u64) {
    if !enabled() && !capturing() {
        return;
    }
    let depth = STACK.with(|s| s.borrow().len().min(0x7f) as u8);
    let ts = now_micros();
    if enabled() {
        push(name, EventKind::Instant, depth, ts, [0, 0], [a0, a1]);
    }
    if capturing() {
        capture_push(TraceEvent {
            name: name.name(),
            kind: EventKind::Instant,
            tid: thread_id(),
            depth,
            ts_micros: ts,
            dur_micros: 0,
            self_micros: 0,
            a0,
            a1,
        });
    }
}

/// Records a completed span from an explicit start timestamp (from
/// [`now_micros`]) to now. Unlike [`span`], this does not interact with the
/// thread-local stack — use it for durations that straddle threads, such as
/// the time a request spent queued before a worker picked it up.
#[inline]
pub fn record_span(name: Span, start_micros: u64, a0: u64, a1: u64) {
    if !enabled() && !capturing() {
        return;
    }
    let dur = now_micros().saturating_sub(start_micros);
    if enabled() {
        push(name, EventKind::Span, 0, start_micros, [dur, dur], [a0, a1]);
    }
    if capturing() {
        capture_push(TraceEvent {
            name: name.name(),
            kind: EventKind::Span,
            tid: thread_id(),
            depth: 0,
            ts_micros: start_micros,
            dur_micros: dur,
            self_micros: dur,
            a0,
            a1,
        });
    }
}

// ---------------------------------------------------------------------------
// Draining
// ---------------------------------------------------------------------------

/// One event read back out of the ring.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// The span/event name ([`Span::name`] for recorded events).
    pub name: &'static str,
    /// Span or instant.
    pub kind: EventKind,
    /// Small dense per-thread id (1-based, assigned on first event).
    pub tid: u32,
    /// Span-stack depth at record time (capped at 127).
    pub depth: u8,
    /// Start time, microseconds since the trace epoch.
    pub ts_micros: u64,
    /// Wall duration (0 for instants).
    pub dur_micros: u64,
    /// Duration minus time spent in direct child spans.
    pub self_micros: u64,
    /// First user argument.
    pub a0: u64,
    /// Second user argument.
    pub a1: u64,
}

/// Events recorded so far and how many were overwritten by ring wrap.
/// Torn slots (a writer was mid-publish during the read) are skipped.
/// Events are returned in timestamp order.
pub fn snapshot() -> (Vec<TraceEvent>, u64) {
    let (slots, dropped) = ring().snapshot();
    let mut events = Vec::with_capacity(slots.len());
    for words in slots {
        events.push(unpack(words));
    }
    events.sort_by_key(|e| e.ts_micros);
    (events, dropped)
}

/// Empties the ring. Callers must ensure no spans are concurrently being
/// recorded (fine for tests and CLI runs); events published during the
/// clear may survive it.
pub fn clear() {
    ring().clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ring and the enable flag are process-global, so exercise all the
    /// behaviours from one test to avoid cross-test interference. The spans
    /// here appear in no other test of this crate.
    #[test]
    fn spans_instants_and_self_time() {
        set_enabled(true);
        clear();
        {
            let mut outer = span_args(Span::DklrStoppingRule, 1, 2);
            {
                let _inner = span(Span::DklrVarianceEstimation);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            instant_args(Span::DklrPlanned, 7, 8);
            outer.set_args(3, 4);
        }
        let t0 = now_micros();
        std::thread::sleep(std::time::Duration::from_millis(1));
        record_span(Span::ServerQueueWait, t0, 9, 0);
        set_enabled(false);

        let (events, dropped) = snapshot();
        assert_eq!(dropped, 0);
        let by_name = |n: Span| events.iter().find(|e| e.name == n.name()).unwrap();
        let outer = by_name(Span::DklrStoppingRule);
        let inner = by_name(Span::DklrVarianceEstimation);
        let marker = by_name(Span::DklrPlanned);
        let detached = by_name(Span::ServerQueueWait);

        assert_eq!(outer.kind, EventKind::Span);
        assert_eq!((outer.a0, outer.a1), (3, 4));
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert_eq!(marker.kind, EventKind::Instant);
        assert_eq!((marker.a0, marker.a1), (7, 8));
        // Self time excludes the inner span.
        assert!(inner.dur_micros >= 2_000);
        assert!(outer.dur_micros >= inner.dur_micros);
        assert!(outer.self_micros <= outer.dur_micros - inner.dur_micros);
        assert!(detached.dur_micros >= 1_000);
        // Timestamp-sorted.
        assert!(events.windows(2).all(|w| w[0].ts_micros <= w[1].ts_micros));

        // Disabled ⇒ nothing records.
        let before = snapshot().0.len();
        let _g = span(Span::CoreCoverageLoop);
        instant_args(Span::CoreCoverageLoop, 0, 0);
        drop(_g);
        assert_eq!(snapshot().0.len(), before);
    }

    /// Deliberately does not touch the global enable flag (other tests in
    /// this module own it): capture must work in either state.
    #[test]
    fn capture_is_independent_of_global_tracing() {
        begin_capture(3);
        {
            let _outer = span_args(Span::SynopsisBuild, 5, 0);
            let _inner = span(Span::SynopsisEnumerateHoms);
        }
        instant_args(Span::CoreSampleCapHit, 0, 0);
        instant_args(Span::CoreDeadlineExpired, 0, 0); // 4th event: beyond the window limit
        let events = take_capture();
        assert!(!capturing());
        assert_eq!(events.len(), 3, "window limit respected");
        let names: Vec<_> = events.iter().map(|e| e.name).collect();
        assert!(names.contains(&"synopsis/build"));
        assert!(names.contains(&"synopsis/enumerate_homs"));
        assert!(names.contains(&"core/sample_cap_hit"));
        let inner = events.iter().find(|e| e.name == "synopsis/enumerate_homs").unwrap();
        assert_eq!(inner.depth, 1, "span tree depth is preserved");
        // Timestamp-sorted; a second take returns nothing.
        assert!(events.windows(2).all(|w| w[0].ts_micros <= w[1].ts_micros));
        assert!(take_capture().is_empty());
        // Cross-thread durations are captured too.
        begin_capture(4);
        record_span(Span::ScenarioRunPair, now_micros(), 1, 2);
        let events = take_capture();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "scenario/run_pair");
        assert_eq!((events[0].a0, events[0].a1), (1, 2));
    }

    #[test]
    fn ring_ids_name_the_span() {
        for &s in Span::ALL {
            assert_eq!(unpack([s as u64, 0, 0, 0, 0, 0, 0]).name, s.name());
        }
    }
}
