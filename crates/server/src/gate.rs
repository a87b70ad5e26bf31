//! Admission control: a gate of a fixed number of permits.
//!
//! A query runs on the thread of the connection that sent it, and only
//! while it holds one of the gate's permits, so concurrent query work is
//! bounded however many clients connect. A query that finds every permit
//! taken waits for one, but at most `queue_depth` queries wait at once:
//! past that [`Gate::acquire`] refuses immediately and the server answers
//! `overloaded`, which keeps memory bounded and latency honest under burst
//! load instead of letting an unbounded backlog grow. Deadlines are the
//! other half of admission control: the server stamps each request's
//! deadline before it asks for a permit, so time spent waiting counts
//! against it.
//!
//! The gate's mutex guards two counters and nothing else; it is never held
//! while a query runs.

use std::sync::{Condvar, Mutex, PoisonError};

/// Why [`Gate::acquire`] refused: every permit was taken and `depth`
/// queries were already waiting. The caller sheds the request as
/// `overloaded`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Full {
    /// The waiter bound that was reached.
    pub(crate) depth: usize,
}

#[derive(Debug, Default)]
struct Slots {
    /// Permits held.
    running: usize,
    /// Callers blocked in [`Gate::acquire`].
    waiting: usize,
}

/// A counting semaphore with a bounded wait list.
#[derive(Debug)]
pub(crate) struct Gate {
    permits: usize,
    queue_depth: usize,
    slots: Mutex<Slots>,
    freed: Condvar,
}

/// One held permit; dropping it (a panic unwinding past it included)
/// frees the permit and wakes a waiter.
#[derive(Debug)]
#[must_use = "the permit is released as soon as it is dropped"]
pub(crate) struct Permit<'a> {
    gate: &'a Gate,
}

impl Gate {
    /// A gate of `permits` permits with at most `queue_depth` waiters
    /// (each at least 1).
    pub(crate) fn new(permits: usize, queue_depth: usize) -> Gate {
        Gate {
            permits: permits.max(1),
            queue_depth: queue_depth.max(1),
            slots: Mutex::new(Slots::default()),
            freed: Condvar::new(),
        }
    }

    /// Takes a permit, waiting for one if all are held, or refuses with
    /// [`Full`] when `queue_depth` callers are already waiting.
    pub(crate) fn acquire(&self) -> Result<Permit<'_>, Full> {
        // Chaos: an injected submit failure is indistinguishable from a
        // full wait list — the caller sheds the request as `overloaded`.
        if cqa_chaos::fault_point!(PoolSubmit).is_some() {
            return Err(Full { depth: self.queue_depth });
        }
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        if slots.running >= self.permits {
            if slots.waiting >= self.queue_depth {
                return Err(Full { depth: self.queue_depth });
            }
            slots.waiting += 1;
            slots = self
                .freed
                .wait_while(slots, |s| s.running >= self.permits)
                .unwrap_or_else(PoisonError::into_inner);
            slots.waiting -= 1;
        }
        slots.running += 1;
        Ok(Permit { gate: self })
    }

    /// `(permits held, callers waiting)`.
    #[cfg(test)]
    fn counts(&self) -> (usize, usize) {
        let slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        (slots.running, slots.waiting)
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut slots = self.gate.slots.lock().unwrap_or_else(PoisonError::into_inner);
        slots.running -= 1;
        let wake = slots.waiting > 0;
        drop(slots);
        if wake {
            self.gate.freed.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    /// Polls until `waiting` callers are blocked in `acquire`.
    fn until_waiting(gate: &Gate, waiting: usize) {
        let start = Instant::now();
        while gate.counts().1 != waiting {
            assert!(start.elapsed() < Duration::from_secs(10), "waiters never reached {waiting}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn at_most_permits_holders_at_once() {
        let gate = Gate::new(2, 64);
        let (now, peak, done) = (AtomicUsize::new(0), AtomicUsize::new(0), AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let _permit = gate.acquire().unwrap();
                    let held = now.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(held, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(5));
                    now.fetch_sub(1, Ordering::SeqCst);
                    done.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(done.load(Ordering::SeqCst), 8, "every caller got a permit in the end");
        assert!(peak.load(Ordering::SeqCst) <= 2, "peak {}", peak.load(Ordering::SeqCst));
        assert_eq!(gate.counts(), (0, 0));
    }

    #[test]
    fn at_most_queue_depth_callers_wait() {
        let gate = &Gate::new(1, 2);
        let held = gate.acquire().unwrap();
        let (tx, rx) = mpsc::channel::<bool>();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let tx = tx.clone();
                s.spawn(move || tx.send(gate.acquire().is_ok()).unwrap());
            }
            // Two callers wait; the other two are refused at once.
            let refused: Vec<bool> = (0..2).map(|_| rx.recv().unwrap()).collect();
            assert_eq!(refused, [false, false]);
            assert_eq!(gate.counts(), (1, 2));
            drop(held);
            let admitted: Vec<bool> = (0..2).map(|_| rx.recv().unwrap()).collect();
            assert_eq!(admitted, [true, true]);
        });
        assert_eq!(gate.counts(), (0, 0));
    }

    #[test]
    fn a_full_wait_list_refuses_with_its_depth() {
        let gate = Gate::new(1, 3);
        let held = gate.acquire().unwrap();
        std::thread::scope(|s| {
            let waiters: Vec<_> = (0..3).map(|_| s.spawn(|| gate.acquire().is_ok())).collect();
            until_waiting(&gate, 3);
            assert_eq!(gate.acquire().err(), Some(Full { depth: 3 }));
            drop(held);
            for w in waiters {
                assert!(w.join().unwrap());
            }
        });
        assert_eq!(Gate::new(1, 0).queue_depth, 1, "the wait list holds at least one caller");
    }

    #[test]
    fn a_waiter_proceeds_as_soon_as_a_permit_frees() {
        let gate = Gate::new(1, 1);
        let held = gate.acquire().unwrap();
        let (tx, rx) = mpsc::channel::<()>();
        std::thread::scope(|s| {
            s.spawn(|| {
                let _permit = gate.acquire().unwrap();
                tx.send(()).unwrap();
            });
            until_waiting(&gate, 1);
            assert!(rx.recv_timeout(Duration::from_millis(50)).is_err(), "no permit is free yet");
            drop(held);
            rx.recv_timeout(Duration::from_secs(10)).unwrap();
        });
    }

    #[test]
    fn a_panicking_job_releases_its_permit() {
        let gate = Gate::new(1, 1);
        let outcome = std::panic::catch_unwind(|| {
            let _permit = gate.acquire().unwrap();
            panic!("injected job panic");
        });
        assert!(outcome.is_err());
        assert_eq!(gate.counts(), (0, 0), "the unwind dropped the permit");
        let _permit = gate.acquire().unwrap();
    }
}
