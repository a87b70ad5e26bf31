//! The one lock-free ring behind the trace buffer ([`crate::trace`]) and
//! the flight recorder's digest ring ([`crate::flight`]).
//!
//! A ring is a fixed array of slots, each a sequence word plus `W`
//! payload words, all atomics, so the whole protocol is safe Rust. A
//! writer takes a ticket with one `fetch_add` on `head`; ticket `t` maps
//! to slot `t % capacity`, and the slot's sequence reads 0 (never
//! written), `2t + 1` (ticket `t` is writing) or `2t + 2` (ticket `t` is
//! published).
//!
//! **Claim or drop.** Two writers meet on one slot only when the ring
//! wraps a full lap while the older one is still mid-publish. Without a
//! claim, their interleaved stores can leave a *torn* payload under a
//! stable even sequence; the loom model `crates/obs/tests/model_ring.rs`
//! finds exactly that for an unclaimed writer. So [`Ring::push`] claims
//! the slot with one forward-only compare-exchange to its odd "writing"
//! value, and on any contention (another writer in progress, or a newer
//! ticket already in the slot) drops its payload instead. Recording stays wait-free: no loops, no locks.
//!
//! **Readers** ([`Ring::snapshot`]) read the sequence, the payload and
//! the sequence again, and keep the slot only if both reads saw the same
//! even, nonzero value; they never wait on a stalled writer.

use std::sync::atomic::{fence, AtomicU64, Ordering};

struct Slot<const W: usize> {
    seq: AtomicU64,
    words: [AtomicU64; W],
}

/// A bounded ring of `W`-word payloads; see the module docs for the
/// publication protocol.
pub(crate) struct Ring<const W: usize> {
    slots: Box<[Slot<W>]>,
    head: AtomicU64,
}

impl<const W: usize> Ring<W> {
    pub(crate) fn new(capacity: usize) -> Ring<W> {
        let slots = (0..capacity)
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                words: std::array::from_fn(|_| AtomicU64::new(0)),
            })
            .collect();
        Ring { slots, head: AtomicU64::new(0) }
    }

    /// Publishes `words` into the next slot, or drops them if another
    /// writer holds the slot or a newer ticket already reached it.
    pub(crate) fn push(&self, words: [u64; W]) {
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket as usize) % self.slots.len()];
        let writing = 2 * ticket + 1;
        let cur = slot.seq.load(Ordering::Acquire);
        if cur % 2 == 1
            || cur > writing
            || slot.seq.compare_exchange(cur, writing, Ordering::AcqRel, Ordering::Relaxed).is_err()
        {
            return;
        }
        // Pairs with the reader's acquire fence: a reader that sees any of
        // the payload stores below re-reads this claim or a later sequence,
        // so it rejects the slot instead of accepting a mix.
        fence(Ordering::Release);
        for (w, v) in slot.words.iter().zip(words) {
            w.store(v, Ordering::Relaxed);
        }
        slot.seq.store(writing + 1, Ordering::Release);
    }

    /// Every published payload (in slot order; callers sort) and the
    /// number of payloads lost to ring wrap. Never-written, in-progress
    /// and concurrently rewritten slots are skipped.
    pub(crate) fn snapshot(&self) -> (Vec<[u64; W]>, u64) {
        let dropped = self.dropped();
        let mut out = Vec::new();
        for slot in self.slots.iter() {
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == 0 || seq % 2 == 1 {
                continue;
            }
            let words = std::array::from_fn(|i| slot.words[i].load(Ordering::Relaxed));
            fence(Ordering::Acquire); // pairs with the writer's release fence
            if slot.seq.load(Ordering::Acquire) != seq {
                continue; // torn: a writer reclaimed the slot while we read
            }
            out.push(words);
        }
        (out, dropped)
    }

    /// Payloads lost to ring wrap so far: one atomic load.
    pub(crate) fn dropped(&self) -> u64 {
        self.head.load(Ordering::Acquire).saturating_sub(self.slots.len() as u64)
    }

    /// Empties the ring. Callers must ensure no concurrent writers (fine
    /// for tests and CLI runs); payloads published during the clear may
    /// survive it.
    pub(crate) fn clear(&self) {
        self.head.store(0, Ordering::Release);
        for slot in self.slots.iter() {
            slot.seq.store(0, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_slots_fill_one_cache_line() {
        assert_eq!(std::mem::size_of::<Slot<7>>(), 64);
    }
}
