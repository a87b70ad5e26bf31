//! Every fault-injection point in the workspace, as the [`Point`] enum.
//!
//! [`crate::fault_point!`] takes a [`Point`] variant, so a misspelled
//! point is a compile error at the boundary. The reverse direction (every
//! variant is planted at some boundary) is checked by
//! `crates/chaos/tests/call_sites.rs`.
//!
//! Naming scheme mirrors the span names: `area/operation`, the area
//! matching the subsystem that owns the boundary. The per-point failure
//! semantics — what a client observes when each point fires — are the
//! guarantee table in `docs/RELIABILITY.md`.
//!
//! ```compile_fail
//! // A misspelled point does not compile.
//! let _ = cqa_chaos::fault_point!(CacheLokup);
//! ```

cqa_common::name_enum! {
    /// A fault-injection point, sorted by name. Its discriminant keys the
    /// per-point hit and injection counters.
    pub enum Point {
        // crates/server/src/cache.rs — synopsis cache
        CacheInsert = "cache/insert",
        CacheLookup = "cache/lookup",
        CacheShardLock = "cache/shard_lock",
        // crates/server/src/pool.rs + server.rs — worker pool
        PoolHandoff = "pool/handoff",
        PoolSubmit = "pool/submit",
        // crates/server/src/server.rs — connection I/O
        ProtocolFlush = "protocol/flush",
        ProtocolRead = "protocol/read",
        ProtocolWrite = "protocol/write",
        // crates/server/src/server.rs — request execution
        ServerDeadline = "server/deadline",
        // crates/storage — dump loading
        StorageDumpLoad = "storage/dump_load",
        // crates/server/src/server.rs — synopsis construction
        SynopsisBuild = "synopsis/build",
    }
}

impl Point {
    /// The point a fault plan names, or `None` for an unknown name.
    pub fn from_name(name: &str) -> Option<Point> {
        Point::ALL.iter().copied().find(|p| p.name() == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_sorted_and_follow_the_scheme() {
        for w in Point::ALL.windows(2) {
            assert!(w[0].name() < w[1].name(), "{:?} must sort before {:?}", w[0], w[1]);
        }
        for p in Point::ALL {
            assert!(p.name().contains('/') && !p.name().contains(' '), "{p:?} is area/operation");
            assert_eq!(Point::from_name(p.name()), Some(*p));
        }
        assert_eq!(Point::from_name("no/such_point"), None);
    }
}
