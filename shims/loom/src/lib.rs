#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # loom (offline mini-loom) — deterministic interleaving exploration
//!
//! The build container has no crates-io mirror, so this shim vendors the
//! small subset of [`loom`](https://docs.rs/loom)'s API the workspace uses
//! to model-check its one concurrent kernel, the synopsis cache (see
//! `docs/ANALYSIS.md`).
//!
//! [`model`] runs a closure under a cooperative scheduler that enumerates
//! **every sequentially-consistent interleaving** of the closure's shared
//! memory operations ([`sync::Mutex`], [`sync::atomic`], spawn/join), via
//! depth-first search over scheduling decisions. Assertions inside the
//! closure therefore hold for *all* interleavings, not just the ones a
//! lucky stress test happens to hit; a panic, a deadlock, or an unbounded
//! retry loop in any interleaving fails the model with the offending
//! schedule.
//!
//! Scope (honest limitations, same trade as documented in loom itself for
//! its default mode): exploration is at sequential-consistency level —
//! it finds interleaving races, lost updates, torn reads, and lock-order
//! deadlocks, but not reorderings only a weak memory model would allow.
//! Models must be deterministic (no wall clock, no OS randomness) and
//! must bound their retry loops.
//!
//! ```
//! use loom::sync::atomic::{AtomicU64, Ordering};
//! use loom::sync::Arc;
//!
//! let report = loom::model(|| {
//!     let c = Arc::new(AtomicU64::new(0));
//!     let c2 = Arc::clone(&c);
//!     let t = loom::thread::spawn(move || c2.fetch_add(1, Ordering::SeqCst));
//!     c.fetch_add(1, Ordering::SeqCst);
//!     t.join().unwrap();
//!     assert_eq!(c.load(Ordering::SeqCst), 2); // holds in EVERY interleaving
//! });
//! assert!(report.iterations > 1); // more than one interleaving explored
//! ```

mod sched;
pub mod sync;
pub mod thread;

use sched::{Abort, Choice};
use std::sync::{Mutex, OnceLock};

/// Outcome of an exhausted exploration.
#[derive(Debug, Clone, Copy)]
pub struct Report {
    /// Number of distinct executions (interleavings) explored.
    pub iterations: u64,
}

/// Tunable exploration bounds.
#[derive(Debug, Clone, Copy)]
pub struct Builder {
    /// Cap on explored executions; exceeding it panics (the model is too
    /// large to check exhaustively — shrink it).
    pub max_iterations: u64,
    /// Cap on scheduling decisions within one execution; exceeding it
    /// panics (the model has an unbounded spin/retry loop).
    pub max_choices: usize,
}

impl Default for Builder {
    fn default() -> Self {
        Builder { max_iterations: 100_000, max_choices: 20_000 }
    }
}

/// Serializes model runs process-wide: the scheduler state is global, and
/// cargo's test harness runs tests concurrently.
fn model_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// Installs (once) a panic-hook filter that silences panics on model
/// worker threads: those panics are part of normal exploration (aborted
/// executions unwind via a sentinel) and are re-reported coherently by
/// [`Builder::check`]. Other threads keep the previous hook.
fn install_quiet_hook() {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let on_worker =
                std::thread::current().name().is_some_and(|n| n.starts_with("loom-worker"));
            if !on_worker {
                prev(info);
            }
        }));
    });
}

/// The deepest schedule prefix with an untried alternative, or `None` when
/// the whole space has been explored.
fn next_prefix(mut schedule: Vec<Choice>) -> Option<Vec<Choice>> {
    while let Some(last) = schedule.last_mut() {
        if last.index + 1 < last.alts.len() {
            last.index += 1;
            return Some(schedule);
        }
        schedule.pop();
    }
    None
}

impl Builder {
    /// A builder with the default bounds.
    pub fn new() -> Builder {
        Builder::default()
    }

    /// Exhaustively explores every interleaving of `f`. Panics — with the
    /// failing thread's message and the iteration number — if any
    /// interleaving panics, deadlocks, or exceeds the bounds.
    pub fn check<F>(&self, f: F) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        let _serial = match model_lock().lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        install_quiet_hook();
        let f = std::sync::Arc::new(f);
        let mut prefix: Vec<Choice> = Vec::new();
        let mut iterations: u64 = 0;
        loop {
            iterations += 1;
            assert!(
                iterations <= self.max_iterations,
                "loom: model not exhausted after {} executions — shrink the model",
                self.max_iterations
            );
            sched::begin_execution(prefix, self.max_choices);
            let f_run = std::sync::Arc::clone(&f);
            let root_result = std::sync::Arc::new(Mutex::new(None::<()>));
            let slot = std::sync::Arc::clone(&root_result);
            let root = std::thread::Builder::new()
                .name("loom-worker-0".to_owned())
                .spawn(move || thread::run_model_thread(0, &slot, move || f_run()))
                .expect("spawn loom root thread");
            let (schedule, abort, handles) = sched::wait_execution_done();
            let _ = root.join();
            for h in handles {
                let _ = h.join();
            }
            match abort {
                Some(Abort::Panic(msg)) => panic!(
                    "loom: interleaving {iterations} failed ({} scheduling points): {msg}",
                    schedule.len()
                ),
                Some(Abort::Deadlock(msg)) => {
                    panic!("loom: interleaving {iterations} deadlocked: {msg}")
                }
                Some(Abort::TooDeep(msg)) => panic!("loom: {msg}"),
                None => {}
            }
            match next_prefix(schedule) {
                Some(p) => prefix = p,
                None => break,
            }
        }
        Report { iterations }
    }
}

/// Explores every interleaving of `f` under the default bounds. See
/// [`Builder::check`].
pub fn model<F>(f: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    Builder::default().check(f)
}
