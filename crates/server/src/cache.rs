//! The synopsis cache.
//!
//! Synopsis construction is the expensive phase of `ApxCQA` (Fig. 3:
//! preprocessing dominates end-to-end latency), and a synopsis depends only
//! on the database, its constraints, and the query *up to α-equivalence* —
//! not on the scheme, `(ε, δ)`, the query's spelling, or its atom order.
//! The server therefore caches built [`SynopsisSet`]s keyed by
//! `(database fingerprint, constraint-set fingerprint, canonical query
//! fingerprint)`, so a repeat query under any scheme — or the same query
//! re-spelled with renamed variables and shuffled atoms — goes straight to
//! `apx_cqa_on_synopses`. Hits that only canonicalization made possible
//! (the literal text differs from the one that built the entry) are counted
//! separately as *canonical rekeys*.
//!
//! One map sits behind one `parking_lot::Mutex`: the admission gate caps
//! concurrent queries at `workers`, and each takes the lock only for a
//! lookup and, on a miss, an insert. The cache evicts its
//! least-recently-used entry when it reaches capacity; values are
//! `Arc<SynopsisSet>`, so an evicted synopsis stays alive while a query
//! still holds it.

use cqa_common::fnv1a64;
use cqa_query::ConjunctiveQuery;
use cqa_storage::{dump_fingerprint, schema_to_ddl, Database};
use cqa_synopsis::SynopsisSet;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A cache key: the database and constraint fingerprints plus the
/// canonical query fingerprint (see [`cqa_query::canonical`]).
///
/// The database fingerprint is [`dump_fingerprint`]: the dump streamed
/// into an FNV-1a hasher, never materialized. A server computes it once,
/// in `Server::bind`, and stamps it into each request's key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// FNV-1a of the canonical database dump ([`dump_fingerprint`]).
    pub db_fingerprint: u64,
    /// FNV-1a of the canonical DDL (which carries the key constraints).
    pub constraint_fingerprint: u64,
    /// Fingerprint of the query's canonical form — shared by every
    /// spelling in its α-equivalence class.
    pub query_fingerprint: u64,
}

impl CacheKey {
    /// Builds a key for a parsed query against a database. The database
    /// fingerprints hash the *canonical* dump/DDL text, so two structurally
    /// identical databases share cache entries even if loaded from
    /// different files; the query fingerprint hashes the canonical form, so
    /// α-equivalent spellings share entries too. Hashing the dump walks
    /// the whole database, so a caller keying many queries against one
    /// database computes the fingerprints once, as the server does.
    pub fn new(db: &Database, query: &ConjunctiveQuery) -> CacheKey {
        CacheKey {
            db_fingerprint: dump_fingerprint(db),
            constraint_fingerprint: fnv1a64(schema_to_ddl(db.schema()).as_bytes()),
            query_fingerprint: query.canonical_fingerprint(),
        }
    }

    /// Fingerprint of a query's literal wire text, used to tell plain
    /// repeat hits from hits canonicalization earned ([`SynopsisCache::get`]).
    pub fn literal_fingerprint(query_text: &str) -> u64 {
        fnv1a64(query_text.as_bytes())
    }
}

struct Entry {
    value: Arc<SynopsisSet>,
    /// Use stamp from the cache's clock; smallest = LRU victim.
    stamp: u64,
    /// [`CacheKey::literal_fingerprint`] of the query text that built this
    /// entry; a hit under a different literal text is a canonical rekey.
    literal_fp: u64,
}

struct Lru {
    map: HashMap<CacheKey, Entry>,
    clock: u64,
    capacity: usize,
}

/// Point-in-time counters, reported by the `stats` protocol command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that did not.
    pub misses: u64,
    /// Hits whose literal query text differed from the text that built the
    /// entry — hits only canonicalization made possible.
    pub canonical_rekeys: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Maximum resident entries.
    pub capacity: usize,
}

/// An LRU map from [`CacheKey`] to `Arc<SynopsisSet>`.
pub struct SynopsisCache {
    lru: Mutex<Lru>,
    hits: AtomicU64,
    misses: AtomicU64,
    canonical_rekeys: AtomicU64,
    evictions: AtomicU64,
}

impl SynopsisCache {
    /// A cache holding at most `capacity` synopsis sets (at least one).
    pub fn with_capacity(capacity: usize) -> SynopsisCache {
        SynopsisCache {
            lru: Mutex::new(Lru { map: HashMap::new(), clock: 0, capacity: capacity.max(1) }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            canonical_rekeys: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Looks up a synopsis, refreshing its LRU stamp on a hit.
    ///
    /// `literal_fp` is [`CacheKey::literal_fingerprint`] of the request's
    /// wire text; a hit whose entry was built under a *different* literal
    /// text is counted as a canonical rekey.
    pub fn get(&self, key: &CacheKey, literal_fp: u64) -> Option<Arc<SynopsisSet>> {
        // Chaos: a failed lock acquisition or a dropped lookup both
        // degrade to a miss — the caller rebuilds the synopsis and still
        // answers correctly, the cache just doesn't help.
        if cqa_chaos::fault_point!(CacheShardLock).is_some()
            || cqa_chaos::fault_point!(CacheLookup).is_some()
        {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let mut lru = self.lru.lock();
        lru.clock += 1;
        let stamp = lru.clock;
        match lru.map.get_mut(key) {
            Some(entry) => {
                entry.stamp = stamp;
                self.hits.fetch_add(1, Ordering::Relaxed);
                if entry.literal_fp != literal_fp {
                    self.canonical_rekeys.fetch_add(1, Ordering::Relaxed);
                }
                Some(Arc::clone(&entry.value))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a synopsis built for the query text fingerprinted by
    /// `literal_fp`, evicting the LRU entry if the cache is full. Returns
    /// the evicted value, mostly for tests.
    pub fn insert(
        &self,
        key: CacheKey,
        literal_fp: u64,
        value: Arc<SynopsisSet>,
    ) -> Option<Arc<SynopsisSet>> {
        // Chaos: a failed insert skips caching — the value is still
        // returned to the requester, later requests rebuild it.
        if cqa_chaos::fault_point!(CacheInsert).is_some() {
            return None;
        }
        let mut lru = self.lru.lock();
        lru.clock += 1;
        let stamp = lru.clock;
        let mut evicted = None;
        if !lru.map.contains_key(&key) && lru.map.len() >= lru.capacity {
            // Linear scan for the LRU victim: capacity is small (a hundred
            // or so synopsis sets) and only a miss pays the scan, next to
            // the synopsis build it follows, so a scan beats the
            // bookkeeping of an intrusive list.
            if let Some(victim) = lru.map.iter().min_by_key(|(_, e)| e.stamp).map(|(k, _)| *k) {
                evicted = lru.map.remove(&victim).map(|e| e.value);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        lru.map.insert(key, Entry { value, stamp, literal_fp });
        evicted
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let (entries, capacity) = {
            let lru = self.lru.lock();
            (lru.map.len(), lru.capacity)
        };
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            canonical_rekeys: self.canonical_rekeys.load(Ordering::Relaxed),
            entries,
            evictions: self.evictions.load(Ordering::Relaxed),
            capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A key whose canonical fingerprint is the literal text's fingerprint
    /// — convenient for tests that only exercise LRU mechanics.
    fn key(q: &str) -> CacheKey {
        CacheKey {
            db_fingerprint: 1,
            constraint_fingerprint: 2,
            query_fingerprint: CacheKey::literal_fingerprint(q),
        }
    }

    fn lit(q: &str) -> u64 {
        CacheKey::literal_fingerprint(q)
    }

    fn empty_set() -> Arc<SynopsisSet> {
        Arc::new(SynopsisSet {
            entries: vec![],
            hom_size: 0,
            total_homs: 0,
            build_time: Duration::ZERO,
        })
    }

    /// The database fingerprint is FNV-1a of the dump bytes, pinned here
    /// for the tiny TPC-H instance: a change to either would silently
    /// re-key every cache entry a deployment relies on.
    #[test]
    fn database_fingerprint_is_pinned() {
        let db = cqa_tpch::generate(cqa_tpch::TpchConfig::tiny());
        let q = cqa_query::parse(db.schema(), "Q(rn) :- region(rk, rn)").unwrap();
        let key = CacheKey::new(&db, &q);
        assert_eq!(key.db_fingerprint, 0xb0e4_6255_aed3_ffbd);
        assert_eq!(key.db_fingerprint, fnv1a64(cqa_storage::dump_to_string(&db).as_bytes()));
    }

    #[test]
    fn get_miss_then_hit() {
        let cache = SynopsisCache::with_capacity(4);
        assert!(cache.get(&key("Q1"), lit("Q1")).is_none());
        cache.insert(key("Q1"), lit("Q1"), empty_set());
        assert!(cache.get(&key("Q1"), lit("Q1")).is_some());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!(stats.canonical_rekeys, 0);
        assert_eq!(stats.hits as f64 / (stats.hits + stats.misses) as f64, 0.5);
    }

    #[test]
    fn hit_under_different_literal_text_counts_as_rekey() {
        let cache = SynopsisCache::with_capacity(4);
        // Two spellings of the same canonical query share the key but have
        // distinct literal fingerprints.
        cache.insert(key("Q"), lit("Q(x) :- r(x, y)"), empty_set());
        assert!(cache.get(&key("Q"), lit("Q(a) :- r(a, b)")).is_some());
        assert!(cache.get(&key("Q"), lit("Q(x) :- r(x, y)")).is_some());
        let stats = cache.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.canonical_rekeys, 1, "only the re-spelled lookup is a rekey");
    }

    /// Fills a cache to capacity, refreshes the first key, inserts one
    /// more: exactly the second-inserted key, the LRU one, is evicted.
    #[test]
    fn full_cache_evicts_exactly_the_lru_entry() {
        for capacity in [2usize, 16] {
            let cache = SynopsisCache::with_capacity(capacity);
            let names: Vec<String> = (0..=capacity).map(|i| format!("Q{i}")).collect();
            let (resident, extra) = names.split_at(capacity);
            for q in resident {
                cache.insert(key(q), lit(q), empty_set());
            }
            let stats = cache.stats();
            assert_eq!((stats.entries, stats.evictions), (capacity, 0), "capacity {capacity}");
            let first = &resident[0];
            assert!(cache.get(&key(first), lit(first)).is_some()); // the second is now LRU
            let extra = &extra[0];
            assert!(cache.insert(key(extra), lit(extra), empty_set()).is_some());
            for q in &names {
                let want = q != &resident[1];
                assert_eq!(cache.get(&key(q), lit(q)).is_some(), want, "{q}, capacity {capacity}");
            }
            let stats = cache.stats();
            assert_eq!((stats.entries, stats.evictions), (capacity, 1), "capacity {capacity}");
        }
    }

    #[test]
    fn reinsert_does_not_evict() {
        let cache = SynopsisCache::with_capacity(1);
        cache.insert(key("a"), lit("a"), empty_set());
        assert!(cache.insert(key("a"), lit("a"), empty_set()).is_none());
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn distinct_fingerprints_are_distinct_keys() {
        let cache = SynopsisCache::with_capacity(8);
        cache.insert(key("Q"), lit("Q"), empty_set());
        let other_db = CacheKey { db_fingerprint: 99, ..key("Q") };
        assert!(cache.get(&other_db, lit("Q")).is_none());
        let other_sigma = CacheKey { constraint_fingerprint: 99, ..key("Q") };
        assert!(cache.get(&other_sigma, lit("Q")).is_none());
    }

    #[test]
    fn concurrent_access_keeps_counts_consistent() {
        let cache = Arc::new(SynopsisCache::with_capacity(64));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..50 {
                        let q = format!("Q{}", (t * 50 + i) % 20);
                        let k = key(&q);
                        if cache.get(&k, lit(&q)).is_none() {
                            cache.insert(k, lit(&q), empty_set());
                        }
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 200);
        assert_eq!(stats.canonical_rekeys, 0);
        assert!(stats.entries <= 20);
    }
}
