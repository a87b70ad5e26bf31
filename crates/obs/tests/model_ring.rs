//! Exhaustive interleaving checks for the one seqlock ring behind the
//! trace buffer and the flight recorder (`crates/obs/src/ring.rs`).
//!
//! Writers take a monotonically increasing **ticket** with
//! `head.fetch_add`, and the slot's sequence word carries it (`2t+1`
//! while writing, `2t+2` once published), so two writers whose tickets
//! wrap onto the same slot race against each other as well as against a
//! concurrent reader. `Ring::push` claims the slot with a forward-only
//! compare-exchange and drops its payload on contention; a reader reads
//! the sequence, the payload and the sequence again and keeps the slot
//! only if both reads saw the same even, nonzero value. These tests model
//! that protocol in miniature over `loom` (the vendored interleaving
//! explorer in `shims/loom`) and assert that no sequentially-consistent
//! interleaving lets a reader accept — or the quiesced slot retain — a
//! payload whose words come from two different pushes.
//!
//! Two negative controls are the evidence that the passing tests
//! constrain the protocol: a writer with no claim and no odd "writing"
//! phase, and the trace buffer's former writer (odd store, payload, even
//! store, no claim). The explorer must catch a torn slot from each; the
//! second is the torn-event defect the shared ring removed.
//!
//! Tickets are pre-assigned here rather than modeled: `head.fetch_add`
//! hands out distinct values by atomicity alone, and leaving it out of
//! the explored ops keeps the schedule space within exhaustive reach.

use loom::sync::atomic::{AtomicU64, Ordering};
use loom::sync::Arc;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A capacity-1 model of the ring: one slot with a two-word payload. The
/// model writes `(v, v)`, so a torn slot is any accepted read with
/// `a != b`.
struct Slot {
    seq: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

impl Slot {
    fn new() -> Slot {
        Slot { seq: AtomicU64::new(0), a: AtomicU64::new(0), b: AtomicU64::new(0) }
    }

    /// The real protocol, `Ring::push` in miniature: claim the slot with a
    /// forward-only CAS to the odd "writing" value (drop the payload if
    /// another writer is in progress or a newer ticket got there first),
    /// write the payload, publish (even). Returns whether it published.
    fn push(&self, ticket: u64, value: u64) -> bool {
        let writing = 2 * ticket + 1;
        let cur = self.seq.load(Ordering::Acquire);
        if cur % 2 == 1
            || cur > writing
            || self.seq.compare_exchange(cur, writing, Ordering::AcqRel, Ordering::Relaxed).is_err()
        {
            return false;
        }
        self.a.store(value, Ordering::Relaxed);
        self.b.store(value, Ordering::Relaxed);
        self.seq.store(writing + 1, Ordering::Release);
        true
    }

    /// Negative control: payload first, no claim, no in-progress marker.
    fn push_unguarded(&self, ticket: u64, value: u64) {
        self.a.store(value, Ordering::Relaxed);
        self.b.store(value, Ordering::Relaxed);
        self.seq.store(2 * ticket + 2, Ordering::Release);
    }

    /// Negative control: the trace buffer's former writer — an odd
    /// in-progress marker, but no claim, so a lap-behind writer can
    /// finish publishing its even sequence over a newer payload.
    fn push_unclaimed(&self, ticket: u64, value: u64) {
        self.seq.store(2 * ticket + 1, Ordering::Release);
        self.a.store(value, Ordering::Relaxed);
        self.b.store(value, Ordering::Relaxed);
        self.seq.store(2 * ticket + 2, Ordering::Release);
    }

    /// One snapshot attempt, mirroring `Ring::snapshot`: reject
    /// never-written (zero), in-progress (odd), and concurrently rewritten
    /// (sequence changed) slots.
    fn try_read(&self) -> Option<(u64, u64)> {
        let s1 = self.seq.load(Ordering::Acquire);
        if s1 == 0 || s1 % 2 == 1 {
            return None;
        }
        let a = self.a.load(Ordering::Relaxed);
        let b = self.b.load(Ordering::Relaxed);
        let s2 = self.seq.load(Ordering::Acquire);
        if s1 != s2 {
            return None;
        }
        Some((a, b))
    }
}

/// A reader with bounded retries (exploration needs bounded loops; the
/// real `snapshot` visits each slot once per call).
fn read_with_retries(slot: &Slot, attempts: usize) -> Option<(u64, u64)> {
    for _ in 0..attempts {
        if let Some(pair) = slot.try_read() {
            return Some(pair);
        }
    }
    None
}

/// Runs a model that must fail and asserts the explorer found the
/// failure `expected` names.
fn assert_caught(expected: &str, body: impl Fn() + Send + Sync + 'static) {
    let outcome = catch_unwind(AssertUnwindSafe(|| loom::model(body)));
    let msg = match outcome {
        Ok(report) => panic!(
            "broken writer survived {} interleavings — the model is not exploring enough",
            report.iterations
        ),
        Err(payload) => payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic".to_owned()),
    };
    assert!(msg.contains(expected), "unexpected failure: {msg}");
}

/// Two wrapped writers race on one slot (the lap-behind scenario: tickets
/// a full ring apart). In every interleaving at least one publishes, and
/// the slot quiesces to one push's payload intact under an even sequence
/// — never words from two pushes.
#[test]
fn concurrent_writers_never_publish_a_torn_slot() {
    loom::model(|| {
        let slot = Arc::new(Slot::new());
        let s2 = Arc::clone(&slot);
        let newer = loom::thread::spawn(move || s2.push(1, 20));
        let older_published = slot.push(0, 10);
        let newer_published = newer.join().unwrap();
        assert!(
            older_published || newer_published,
            "contention must drop at most one payload, never both"
        );
        let (a, b) = slot.try_read().expect("published slot must be readable");
        assert_eq!(a, b, "torn slot survived quiescence");
        assert!(a == 10 || a == 20);
    });
}

/// A reader races a writer re-claiming a live slot (the next lap
/// overwriting a published payload). The reader either skips the slot or
/// sees one of the two published payloads intact — never a mix.
#[test]
fn reader_never_accepts_a_torn_slot() {
    loom::model(|| {
        let slot = Arc::new(Slot::new());
        // Ticket 0 is already published before the race begins, as in a
        // warm ring.
        assert!(slot.push(0, 10));
        let s2 = Arc::clone(&slot);
        let writer = loom::thread::spawn(move || s2.push(1, 20));
        if let Some((a, b)) = read_with_retries(&slot, 2) {
            assert_eq!(a, b, "torn read: words from different pushes");
            assert!(a == 10 || a == 20, "payload from a push never published");
        }
        assert!(writer.join().unwrap(), "an uncontended writer always publishes");
        let (a, b) = slot.try_read().expect("published slot must be readable");
        assert_eq!((a, b), (20, 20));
    });
}

/// A writer preempted mid-write (odd sequence) is always skipped: the
/// reader never observes a half-written payload and never blocks, even if
/// the writer stalls forever.
#[test]
fn in_progress_slots_are_skipped() {
    loom::model(|| {
        let slot = Arc::new(Slot::new());
        let s2 = Arc::clone(&slot);
        let writer = loom::thread::spawn(move || s2.push(0, 7));
        if let Some((a, b)) = read_with_retries(&slot, 2) {
            assert_eq!((a, b), (7, 7));
        }
        writer.join().unwrap();
    });
}

/// Negative control: without the claim and the odd in-progress phase, a
/// reader racing a live-slot rewrite accepts half of each payload, and
/// two wrapped writers leave a torn slot under a stable even sequence.
#[test]
fn unguarded_writer_torn_slot_is_caught() {
    assert_caught("torn read admitted", || {
        let slot = Arc::new(Slot::new());
        slot.push_unguarded(0, 10);
        let s2 = Arc::clone(&slot);
        let writer = loom::thread::spawn(move || s2.push_unguarded(1, 20));
        if let Some((a, b)) = read_with_retries(&slot, 2) {
            assert_eq!(a, b, "torn read admitted");
        }
        writer.join().unwrap();
    });
    assert_caught("torn slot admitted", || {
        let slot = Arc::new(Slot::new());
        let s2 = Arc::clone(&slot);
        let newer = loom::thread::spawn(move || s2.push_unguarded(1, 20));
        slot.push_unguarded(0, 10);
        newer.join().unwrap();
        if let Some((a, b)) = slot.try_read() {
            assert_eq!(a, b, "torn slot admitted");
        }
    });
}

/// Negative control, the defect the shared ring removed: the trace
/// buffer's former writer marks the slot odd but does not claim it, so
/// two wrapped writers can interleave their payload stores and the older
/// one's final even store publishes the mix.
#[test]
fn unclaimed_trace_writer_torn_slot_is_caught() {
    assert_caught("torn slot admitted", || {
        let slot = Arc::new(Slot::new());
        let s2 = Arc::clone(&slot);
        let newer = loom::thread::spawn(move || s2.push_unclaimed(1, 20));
        slot.push_unclaimed(0, 10);
        newer.join().unwrap();
        if let Some((a, b)) = slot.try_read() {
            assert_eq!(a, b, "torn slot admitted");
        }
    });
}
