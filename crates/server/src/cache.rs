//! The sharded synopsis cache.
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
//! The map is split into shards, each behind its own `parking_lot::Mutex`,
//! so concurrent workers rarely contend. Each shard evicts its
//! least-recently-used entry when it reaches capacity; values are
//! `Arc<SynopsisSet>`, so an evicted synopsis stays alive while a worker
//! still holds it.

use cqa_common::{fnv1a64, fnv1a64_parts};
use cqa_query::ConjunctiveQuery;
use cqa_storage::{dump_to_string, schema_to_ddl, Database};
use cqa_synopsis::SynopsisSet;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A cache key: the database and constraint fingerprints plus the
/// canonical query fingerprint (see [`cqa_query::canonical`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// FNV-1a of the canonical database dump.
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
    /// α-equivalent spellings share entries too.
    pub fn new(db: &Database, query: &ConjunctiveQuery) -> CacheKey {
        CacheKey {
            db_fingerprint: fnv1a64(dump_to_string(db).as_bytes()),
            constraint_fingerprint: fnv1a64(schema_to_ddl(db.schema()).as_bytes()),
            query_fingerprint: query.canonical_fingerprint(),
        }
    }

    /// Fingerprint of a query's literal wire text, used to tell plain
    /// repeat hits from hits canonicalization earned ([`SynopsisCache::get`]).
    pub fn literal_fingerprint(query_text: &str) -> u64 {
        fnv1a64(query_text.as_bytes())
    }

    fn shard_hash(&self) -> u64 {
        fnv1a64_parts([
            self.db_fingerprint.to_le_bytes().as_slice(),
            self.constraint_fingerprint.to_le_bytes().as_slice(),
            self.query_fingerprint.to_le_bytes().as_slice(),
        ])
    }
}

struct Entry {
    value: Arc<SynopsisSet>,
    /// Use stamp from the owning shard's clock; smallest = LRU victim.
    stamp: u64,
    /// [`CacheKey::literal_fingerprint`] of the query text that built this
    /// entry; a hit under a different literal text is a canonical rekey.
    literal_fp: u64,
}

struct Shard {
    map: HashMap<CacheKey, Entry>,
    clock: u64,
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
    /// Maximum resident entries across all shards.
    pub capacity: usize,
}

/// A sharded LRU map from [`CacheKey`] to `Arc<SynopsisSet>`.
pub struct SynopsisCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    canonical_rekeys: AtomicU64,
    evictions: AtomicU64,
}

/// Default shard count; a small power of two well above typical worker
/// counts, so two workers rarely hash to the same lock.
pub const DEFAULT_SHARDS: usize = 8;

impl SynopsisCache {
    /// A cache holding at most `capacity` synopsis sets across `shards`
    /// shards. Capacity is rounded up to a multiple of the shard count
    /// (each shard gets an equal slice, and a shard never exceeds its own
    /// slice even if others sit empty).
    pub fn new(capacity: usize, shards: usize) -> SynopsisCache {
        let shards = shards.max(1);
        let per_shard_capacity = capacity.div_ceil(shards).max(1);
        SynopsisCache {
            shards: (0..shards)
                .map(|_| Mutex::new(Shard { map: HashMap::new(), clock: 0 }))
                .collect(),
            per_shard_capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            canonical_rekeys: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// A cache with the default shard count.
    pub fn with_capacity(capacity: usize) -> SynopsisCache {
        SynopsisCache::new(capacity, DEFAULT_SHARDS)
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<Shard> {
        // cqa-lint: allow(no-panic-in-request-path): the index is shard_hash % shards.len(), always in bounds, and shards is non-empty by construction
        &self.shards[(key.shard_hash() % self.shards.len() as u64) as usize]
    }

    /// Looks up a synopsis, refreshing its LRU stamp on a hit.
    ///
    /// `literal_fp` is [`CacheKey::literal_fingerprint`] of the request's
    /// wire text; a hit whose entry was built under a *different* literal
    /// text is counted as a canonical rekey.
    pub fn get(&self, key: &CacheKey, literal_fp: u64) -> Option<Arc<SynopsisSet>> {
        // Chaos: a failed shard-lock acquisition or a dropped lookup both
        // degrade to a miss — the caller rebuilds the synopsis and still
        // answers correctly, the cache just doesn't help.
        if cqa_chaos::fault_point!(CacheShardLock).is_some()
            || cqa_chaos::fault_point!(CacheLookup).is_some()
        {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let mut shard = self.shard(key).lock();
        shard.clock += 1;
        let stamp = shard.clock;
        match shard.map.get_mut(key) {
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
    /// `literal_fp`, evicting the shard's LRU entry if it is full. Returns
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
        let mut shard = self.shard(&key).lock();
        shard.clock += 1;
        let stamp = shard.clock;
        let mut evicted = None;
        if !shard.map.contains_key(&key) && shard.map.len() >= self.per_shard_capacity {
            // Linear scan for the LRU victim: per-shard capacity is small
            // (a handful of synopsis sets), so a scan beats the bookkeeping
            // of an intrusive list.
            if let Some(victim) = shard.map.iter().min_by_key(|(_, e)| e.stamp).map(|(k, _)| *k) {
                evicted = shard.map.remove(&victim).map(|e| e.value);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.map.insert(key, Entry { value, stamp, literal_fp });
        evicted
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            canonical_rekeys: self.canonical_rekeys.load(Ordering::Relaxed),
            entries: self.shards.iter().map(|s| s.lock().map.len()).sum(),
            evictions: self.evictions.load(Ordering::Relaxed),
            capacity: self.per_shard_capacity * self.shards.len(),
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

    #[test]
    fn single_shard_evicts_lru() {
        let cache = SynopsisCache::new(2, 1);
        cache.insert(key("a"), lit("a"), empty_set());
        cache.insert(key("b"), lit("b"), empty_set());
        assert!(cache.get(&key("a"), lit("a")).is_some()); // refresh "a": "b" is now LRU
        cache.insert(key("c"), lit("c"), empty_set());
        assert!(cache.get(&key("a"), lit("a")).is_some());
        assert!(cache.get(&key("b"), lit("b")).is_none(), "LRU entry should be evicted");
        assert!(cache.get(&key("c"), lit("c")).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn reinsert_does_not_evict() {
        let cache = SynopsisCache::new(1, 1);
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
