//! Other half of the seeded ABBA cycle: the pool takes its queue lock and
//! then calls back into the cache, which retakes the shard lock. Each
//! direction acquires a second lock under a guard, so each is reported at
//! its second acquisition with its own call path.

use crate::sync::Mutex;

pub struct Pool {
    queue: Mutex<u32>,
}

impl Pool {
    pub fn reserve_worker(&self) -> u32 {
        let q = self.queue.lock();
        *q
    }

    pub fn shed(&self, cache: &Cache) -> u32 {
        let q = self.queue.lock();
        cache.refresh();
        *q
    }
}
