//! The one bounded log behind the trace buffer ([`crate::trace`]) and the
//! flight recorder's digest and slow/error logs ([`crate::flight`]): the
//! newest `capacity` records, the oldest evicted first, under one mutex.
//!
//! A lock is enough for all three. A digest is one push per request, a
//! slow/error entry is rarer still, and trace events are per phase, not
//! per sample, and only while tracing is on. Records are stored as they
//! are, so a new field is declared on its type and nowhere else here.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A "newest `capacity`, oldest evicted" log of `T`.
pub(crate) struct BoundedLog<T> {
    capacity: usize,
    inner: Mutex<Inner<T>>,
}

struct Inner<T> {
    records: VecDeque<T>,
    /// Records evicted past capacity since creation or the last clear.
    evicted: u64,
}

impl<T> Inner<T> {
    const fn empty() -> Inner<T> {
        Inner { records: VecDeque::new(), evicted: 0 }
    }
}

impl<T: Clone> BoundedLog<T> {
    /// An empty log that keeps at most `capacity` (≥ 1) records. `const`,
    /// so a recorder is a plain `static`.
    pub(crate) const fn new(capacity: usize) -> BoundedLog<T> {
        BoundedLog { capacity, inner: Mutex::new(Inner::empty()) }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends `record`, evicting the oldest one when the log is full.
    pub(crate) fn push(&self, record: T) {
        let mut inner = self.lock();
        if inner.records.len() >= self.capacity {
            inner.records.pop_front();
            inner.evicted += 1;
        }
        inner.records.push_back(record);
    }

    /// A copy of the records, oldest first, and the eviction count.
    pub(crate) fn snapshot(&self) -> (Vec<T>, u64) {
        let inner = self.lock();
        (inner.records.iter().cloned().collect(), inner.evicted)
    }

    /// Records evicted so far, without copying any.
    pub(crate) fn dropped(&self) -> u64 {
        self.lock().evicted
    }

    /// Records held now, without copying any.
    pub(crate) fn len(&self) -> usize {
        self.lock().records.len()
    }

    /// Empties the log and zeroes its eviction count.
    pub(crate) fn clear(&self) {
        *self.lock() = Inner::empty();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pushes_past_capacity_evict_oldest_first() {
        let log = BoundedLog::new(4);
        for i in 0..11u64 {
            log.push(i);
        }
        assert_eq!(log.snapshot(), (vec![7, 8, 9, 10], 7));
        assert_eq!((log.len(), log.dropped()), (4, 7));
        log.clear();
        assert_eq!(log.snapshot(), (Vec::new(), 0));
    }
}
