//! A fixed-size worker pool with bounded-queue admission control.
//!
//! Query work runs on a small set of long-lived threads fed by a bounded
//! channel. `try_submit` never blocks: when the queue is full the job is
//! rejected immediately and the server answers `overloaded`, which keeps
//! the daemon's memory bounded and its latency honest under burst load
//! instead of letting an unbounded backlog grow. Deadlines are the other
//! half of admission control: the server stamps each request's deadline at
//! admission, so time spent waiting in this queue counts against it.

use crossbeam::channel::{self, Receiver, Sender, TrySendError};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Sizing knobs for a [`WorkerPool`].
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Worker thread count.
    pub workers: usize,
    /// Jobs that may wait in the queue before `overloaded` rejections
    /// start.
    pub queue_depth: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
            queue_depth: 64,
        }
    }
}

/// Why a submission was refused. Both variants are request-shedding
/// outcomes the caller must answer with a structured protocol error —
/// nothing on this path panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue was full; reject as `overloaded`.
    Full {
        /// The queue depth that was exceeded.
        depth: usize,
    },
    /// The pool was [`close`](WorkerPool::close)d, or every worker exited;
    /// reject as `internal`.
    Shutdown,
}

/// A fixed set of worker threads draining a bounded job queue.
pub struct WorkerPool {
    tx: Option<Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
    queue_depth: usize,
}

impl WorkerPool {
    /// Spawns the worker threads. Fails cleanly (no partial pool is
    /// leaked: already-spawned workers exit when `tx`/`rx` drop) if the OS
    /// refuses a thread.
    pub fn new(config: PoolConfig) -> std::io::Result<WorkerPool> {
        let workers = config.workers.max(1);
        let queue_depth = config.queue_depth.max(1);
        let (tx, rx) = channel::bounded::<Job>(queue_depth);
        let handles = (0..workers)
            .map(|i| {
                let rx: Receiver<Job> = rx.clone();
                std::thread::Builder::new().name(format!("cqa-worker-{i}")).spawn(move || {
                    // Exits when every sender is gone (pool drop).
                    for job in rx.iter() {
                        // A panicking job (injected panic-in-worker, or a
                        // latent bug the no-panic lint missed) must not
                        // take the worker down: contain it, keep serving.
                        // The fault point sits inside the containment so
                        // an injected panic exercises the same path.
                        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            // Chaos: a dropped handoff discards the job;
                            // its reply channel closes and the dispatcher
                            // answers a structured `internal` error.
                            if cqa_chaos::fault_point!(PoolHandoff).is_some() {
                                return;
                            }
                            // cqa-lint: allow(opaque-call): jobs are the boxed closures built in server.rs, which the request-path seeds already cover
                            job();
                        }));
                    }
                })
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(WorkerPool { tx: Some(tx), handles, queue_depth })
    }

    /// Enqueues a job without blocking. An `Err` means the caller should
    /// shed the request with the corresponding protocol error.
    pub fn try_submit(
        &self,
        job: impl FnOnce() + Send + 'static,
    ) -> std::result::Result<(), SubmitError> {
        let Some(tx) = self.tx.as_ref() else {
            return Err(SubmitError::Shutdown);
        };
        // Chaos: an injected submit failure is indistinguishable from a
        // full queue — the caller sheds the request as `overloaded`.
        if cqa_chaos::fault_point!(PoolSubmit).is_some() {
            return Err(SubmitError::Full { depth: self.queue_depth });
        }
        match tx.try_send(Box::new(job)) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(_)) => Err(SubmitError::Full { depth: self.queue_depth }),
            // Disconnected means every worker's receiver is gone — the
            // workers all exited. Shed rather than panic.
            Err(TrySendError::Disconnected(_)) => Err(SubmitError::Shutdown),
        }
    }

    /// Stops accepting jobs. Queued jobs still drain; workers are joined
    /// on drop. Subsequent [`try_submit`](WorkerPool::try_submit) calls
    /// return [`SubmitError::Shutdown`].
    pub fn close(&mut self) {
        drop(self.tx.take());
    }

    /// Jobs currently waiting (excludes jobs already being run).
    pub fn queue_len(&self) -> usize {
        self.tx.as_ref().map(Sender::len).unwrap_or(0)
    }

    /// Worker thread count.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }
}

impl Drop for WorkerPool {
    /// Waits for queued jobs to drain, then joins the workers.
    fn drop(&mut self) {
        drop(self.tx.take());
        let me = std::thread::current().id();
        for handle in self.handles.drain(..) {
            // The pool can be dropped *by one of its own workers*: the
            // last job closure in flight may own the final Arc to the
            // server's shared state, which embeds this pool. Joining
            // yourself is EDEADLK and std escalates it to a panic; that
            // worker is already exiting (its receiver just disconnected),
            // so it needs no join.
            if handle.thread().id() == me {
                continue;
            }
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::sync::Arc;

    #[test]
    fn dropping_the_pool_from_a_worker_does_not_panic() {
        // A worker can end up owning the pool itself (via the last Arc to
        // the server's shared state). Its self-join used to EDEADLK-panic.
        let pool = WorkerPool::new(PoolConfig { workers: 2, queue_depth: 4 }).unwrap();
        let slot = Arc::new(std::sync::Mutex::new(Some(pool)));
        let (done_tx, done_rx) = mpsc::channel::<bool>();
        let job_slot = Arc::clone(&slot);
        slot.lock()
            .unwrap()
            .as_ref()
            .unwrap()
            .try_submit(move || {
                let pool = job_slot.lock().unwrap().take();
                drop(pool); // joins the sibling worker, must skip self
                done_tx.send(true).unwrap();
            })
            .unwrap();
        assert!(done_rx.recv_timeout(std::time::Duration::from_secs(10)).unwrap());
    }

    #[test]
    fn runs_submitted_jobs() {
        let pool = WorkerPool::new(PoolConfig { workers: 3, queue_depth: 16 }).unwrap();
        assert_eq!(pool.workers(), 3);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let counter = Arc::clone(&counter);
            let job = move || {
                counter.fetch_add(1, Ordering::SeqCst);
            };
            // Spin on backpressure: the queue (depth 16) legitimately
            // fills while three workers drain fifty jobs.
            while pool.try_submit(job.clone()).is_err() {
                std::thread::yield_now();
            }
        }
        drop(pool); // joins after draining
        assert_eq!(counter.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn rejects_when_queue_is_full() {
        let pool = WorkerPool::new(PoolConfig { workers: 1, queue_depth: 1 }).unwrap();
        // Wedge the single worker, then fill the queue.
        let (release_tx, release_rx) = mpsc::channel::<()>();
        pool.try_submit(move || {
            release_rx.recv().unwrap();
        })
        .unwrap();
        // The wedge job may still be in the queue; keep adding until full.
        let mut rejected = None;
        for _ in 0..3 {
            if let Err(e) = pool.try_submit(|| {}) {
                rejected = Some(e);
                break;
            }
        }
        assert_eq!(rejected, Some(SubmitError::Full { depth: 1 }));
        release_tx.send(()).unwrap();
    }

    /// Regression for the `.expect("pool alive while not dropped")` /
    /// `unreachable!` that used to live in `try_submit`: a closed pool
    /// sheds submissions with `Shutdown` instead of panicking the request
    /// thread.
    #[test]
    fn closed_pool_sheds_instead_of_panicking() {
        let mut pool = WorkerPool::new(PoolConfig { workers: 1, queue_depth: 4 }).unwrap();
        pool.try_submit(|| {}).unwrap();
        pool.close();
        assert_eq!(pool.try_submit(|| {}), Err(SubmitError::Shutdown));
        assert_eq!(pool.queue_len(), 0, "a closed pool reports an empty queue");
    }

    /// A panicking job must not kill its worker: the pool stays at full
    /// strength and keeps running subsequent jobs. This is the containment
    /// that makes the chaos harness's `panic-in-worker` fault survivable.
    #[test]
    fn worker_survives_a_panicking_job() {
        let pool = WorkerPool::new(PoolConfig { workers: 1, queue_depth: 8 }).unwrap();
        pool.try_submit(|| panic!("injected job panic")).unwrap();
        let (done_tx, done_rx) = mpsc::channel::<bool>();
        // Same single worker: it must have survived to run this.
        pool.try_submit(move || {
            done_tx.send(true).unwrap();
        })
        .unwrap();
        assert!(done_rx.recv_timeout(std::time::Duration::from_secs(10)).unwrap());
    }

    #[test]
    fn drop_waits_for_in_flight_jobs() {
        let pool = WorkerPool::new(PoolConfig { workers: 2, queue_depth: 8 }).unwrap();
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..4 {
            let done = Arc::clone(&done);
            pool.try_submit(move || {
                std::thread::sleep(std::time::Duration::from_millis(10));
                done.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        drop(pool);
        assert_eq!(done.load(Ordering::SeqCst), 4);
    }
}
