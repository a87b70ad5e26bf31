//! An order-preserving parallel map over independent jobs.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `f(i)` for every `i` in `0..n` on `threads.clamp(1, n.max(1))`
/// scoped threads and returns the results in index order.
///
/// Each thread claims the next unclaimed index from one shared counter, so
/// a slow job holds up no other and the threads share nothing else. Which
/// thread runs which index depends on scheduling; callers that need
/// reproducible results derive any randomness from `i`, not from the
/// thread. A panic in `f` is re-raised on the caller with its original
/// payload once every thread has stopped.
pub fn par_map<R, F>(n: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    // The counter only hands out indices; results travel through each
    // thread's join, so `Relaxed` is enough.
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return done;
            }
            done.push((i, f(i)));
        }
    };
    // Every index in 0..n is claimed exactly once, so sorting the merged
    // `(index, result)` pairs restores job order.
    let mut results: Vec<(usize, R)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads).map(|_| scope.spawn(work)).collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
            .collect()
    });
    results.sort_unstable_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        for threads in [1, 2, 8] {
            let results = par_map(100, threads, |i| (i * i) as u64);
            assert_eq!(results, (0..100).map(|i| (i * i) as u64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn edge_sizes_and_thread_counts_work() {
        assert!(par_map(0, 4, |i| i).is_empty());
        assert!(par_map(0, 0, |i| i).is_empty());
        assert_eq!(par_map(3, 0, |i| i + 1), vec![1, 2, 3]);
        assert_eq!(par_map(1, 16, |i| i + 8), vec![8]);
        assert_eq!(par_map(5, 64, |i| i * 2), vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn a_panicking_job_reraises_its_payload() {
        for threads in [1, 2, 4] {
            let caught = std::panic::catch_unwind(|| {
                par_map(8, threads, |i| {
                    if i == 3 {
                        panic!("job 3");
                    }
                    i
                })
            });
            let payload = caught.expect_err("the job's panic must reach the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"job 3"), "threads = {threads}");
        }
    }
}
