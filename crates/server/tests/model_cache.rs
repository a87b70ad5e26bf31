//! Exhaustive interleaving checks for the LRU cache protocol.
//!
//! These tests model the concurrency skeleton of
//! `cqa_server::cache::SynopsisCache` — one map behind one mutex, atomic
//! hit/miss/eviction counters bumped while the lock is held, stamp-based
//! LRU eviction — with `loom` (the vendored interleaving explorer in
//! `shims/loom`). Every sequentially-consistent schedule of the modeled
//! operations is enumerated, so the invariants below hold for *all*
//! interleavings, not just the ones a stress test happens to hit.
//!
//! The model mirrors the real code's structure (compare
//! `crates/server/src/cache.rs`): one `Mutex<Lru>` over a logical clock
//! and a capacity-bounded map, counters as atomics beside the lock. The
//! last test is a *negative control*: it breaks the counter discipline the
//! way a refactor plausibly would (load-then-store outside the lock) and
//! asserts the explorer catches the lost update — evidence the harness
//! detects the bug class these tests guard against.

use loom::sync::atomic::{AtomicU64, Ordering};
use loom::sync::{Arc, Mutex};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The modeled map: key → LRU stamp, plus the stamp clock and the
/// capacity. Values are irrelevant to the race being checked, so keys
/// stand in for entries.
struct Lru {
    entries: Vec<(u32, u64)>,
    clock: u64,
    capacity: usize,
}

/// A miniature of `SynopsisCache` over loom primitives.
struct ModelCache {
    lru: Mutex<Lru>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ModelCache {
    fn new(capacity: usize) -> ModelCache {
        ModelCache {
            lru: Mutex::new(Lru { entries: Vec::new(), clock: 0, capacity }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Mirrors `SynopsisCache::get`: refresh the LRU stamp on a hit, bump
    /// the hit/miss counter while the lock is held.
    fn get(&self, key: u32) -> bool {
        let mut lru = self.lru.lock();
        lru.clock += 1;
        let stamp = lru.clock;
        match lru.entries.iter_mut().find(|(k, _)| *k == key) {
            Some(entry) => {
                entry.1 = stamp;
                self.hits.fetch_add(1, Ordering::Relaxed);
                true
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// Mirrors `SynopsisCache::insert`: evict the smallest-stamp entry
    /// when inserting a new key into a full cache.
    fn insert(&self, key: u32) {
        let mut lru = self.lru.lock();
        lru.clock += 1;
        let stamp = lru.clock;
        let exists = lru.entries.iter().any(|(k, _)| *k == key);
        if !exists && lru.entries.len() >= lru.capacity {
            if let Some(victim) =
                lru.entries.iter().enumerate().min_by_key(|(_, (_, s))| *s).map(|(i, _)| i)
            {
                lru.entries.remove(victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        match lru.entries.iter_mut().find(|(k, _)| *k == key) {
            Some(entry) => entry.1 = stamp,
            None => lru.entries.push((key, stamp)),
        }
    }

    fn contains(&self, key: u32) -> bool {
        self.lru.lock().entries.iter().any(|(k, _)| *k == key)
    }

    fn len(&self) -> usize {
        self.lru.lock().entries.len()
    }
}

/// Two threads race insert+get on distinct keys against a capacity-1
/// cache. In every interleaving: the cache never exceeds capacity, the
/// loser of the insert race is the one eviction, and the counters account
/// for exactly the lookups that happened.
#[test]
fn insert_get_race_keeps_counters_and_capacity_consistent() {
    loom::model(|| {
        let cache = Arc::new(ModelCache::new(1));
        let c2 = Arc::clone(&cache);
        let t = loom::thread::spawn(move || {
            c2.insert(1);
            c2.get(1)
        });
        cache.insert(2);
        cache.get(2);
        t.join().unwrap();

        assert_eq!(cache.len(), 1, "cache exceeded its capacity");
        assert_eq!(
            cache.evictions.load(Ordering::Relaxed),
            1,
            "two distinct inserts into a full cache evict exactly once"
        );
        let hits = cache.hits.load(Ordering::Relaxed);
        let misses = cache.misses.load(Ordering::Relaxed);
        assert_eq!(hits + misses, 2, "every lookup is counted exactly once");
        assert_eq!(cache.lru.lock().clock, 4, "each operation advances the clock once");
    });
}

/// A `get` refreshing an entry's stamp races an `insert` that must evict
/// the LRU victim. Whichever order the schedule picks, the new key is
/// resident afterwards, exactly one old key was evicted, and the refresh
/// is never double-counted.
#[test]
fn lru_refresh_races_eviction_without_corruption() {
    loom::model(|| {
        let cache = Arc::new(ModelCache::new(2));
        // Resident: 1 (older), 2 (newer) — stamps 1 and 2.
        cache.insert(1);
        cache.insert(2);
        let c2 = Arc::clone(&cache);
        let t = loom::thread::spawn(move || {
            c2.get(1) // refresh: makes 2 the LRU victim, if it wins the race
        });
        cache.insert(3); // full cache: must evict the current LRU
        let refreshed = t.join().unwrap();

        assert!(cache.contains(3), "the new entry is always resident");
        assert_eq!(cache.len(), 2, "eviction kept the cache at capacity");
        assert_eq!(cache.evictions.load(Ordering::Relaxed), 1);
        // The victim depends on the schedule, but is determined by whether
        // the refresh's stamp landed before the eviction scan.
        let survivor_is_1 = cache.contains(1);
        let survivor_is_2 = cache.contains(2);
        assert!(survivor_is_1 ^ survivor_is_2, "exactly one of the old entries survives");
        // The lock serializes the two operations, so the outcome is
        // fully determined by which won: a successful refresh means key 2
        // became the victim; a miss means key 1 already had.
        assert_eq!(
            refreshed, survivor_is_1,
            "survivor must match the refresh/evict order the schedule chose"
        );
    });
}

/// Negative control: bump the miss counter with a separate load and store
/// *outside* the lock — the bug an innocent-looking refactor of
/// `SynopsisCache::get` could introduce. The explorer must find the
/// interleaving that loses an update.
#[test]
fn torn_counter_update_is_caught_by_the_model() {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        loom::model(|| {
            let cache = Arc::new(ModelCache::new(4));
            let c2 = Arc::clone(&cache);
            let broken_miss = |c: &ModelCache| {
                let lru = c.lru.lock();
                // BUG under test: the guard is dropped before the counter
                // update, and the update is a divisible load-then-store.
                drop(lru);
                let v = c.misses.load(Ordering::Relaxed);
                c.misses.store(v + 1, Ordering::Relaxed);
            };
            let t = loom::thread::spawn(move || broken_miss(&c2));
            broken_miss(&cache);
            t.join().unwrap();
            assert_eq!(cache.misses.load(Ordering::Relaxed), 2, "lost counter update");
        })
    }));
    let msg = match outcome {
        Ok(report) => panic!(
            "torn counter survived {} interleavings — the model is not exploring enough",
            report.iterations
        ),
        Err(payload) => payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic".to_owned()),
    };
    assert!(msg.contains("lost counter update"), "unexpected failure: {msg}");
}
