//! The deterministic scheduler behind [`crate::model`].
//!
//! One execution runs the model closure and every thread it spawns on real
//! OS threads, but only ever lets **one** of them make progress at a time:
//! each shared-memory operation (atomic access, mutex acquire, spawn,
//! join) first calls [`yield_point`], which consults the current schedule
//! to decide which thread runs next and parks everyone else on a condvar.
//! Because every side effect on shared state sits behind such a point, the
//! set of schedules is exactly the set of sequentially-consistent
//! interleavings of those operations.
//!
//! Exploration is a depth-first search over schedules: the first execution
//! always picks the runnable thread with the smallest id; each subsequent
//! execution replays a recorded choice prefix, takes the next untried
//! alternative at the deepest incrementable choice point, and lets the
//! default rule finish the run. When no choice point has an untried
//! alternative left, the space is exhausted.
//!
//! Blocking (a held mutex, a join on a live thread) removes a thread from
//! the runnable set; if the runnable set ever empties while threads are
//! still blocked, the schedule found a deadlock and the run aborts with a
//! report. A panic on any model thread likewise aborts the run: the other
//! threads are woken, unwind via a sentinel panic at their next yield
//! point (dropping any lock guards on the way), and the original payload
//! is re-raised on the caller's thread.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};

/// The panic payload used to unwind model threads when an execution
/// aborts. [`crate::thread::spawn`]'s wrapper swallows it.
pub(crate) const ABORT_SENTINEL: &str = "loom-model-abort";

/// Why an execution stopped exploring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Abort {
    /// A model thread panicked; the payload text is preserved.
    Panic(String),
    /// Every unfinished thread was blocked.
    Deadlock(String),
    /// One execution exceeded the choice-point bound (an unbounded
    /// spin/retry loop in the model).
    TooDeep(String),
}

/// Whether a logical thread can currently be scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Run {
    Runnable,
    /// Waiting for the lock with this id to be released.
    BlockedLock(usize),
    /// Waiting for the thread with this id to finish.
    BlockedJoin(usize),
    Finished,
}

/// One recorded scheduling decision: which runnable thread was picked out
/// of which alternatives. DFS backtracking advances `index` through
/// `alts`.
#[derive(Debug, Clone)]
pub(crate) struct Choice {
    pub(crate) index: usize,
    pub(crate) alts: Vec<usize>,
}

#[derive(Default)]
pub(crate) struct ExecState {
    /// Per-logical-thread run state; index = thread id.
    threads: Vec<Run>,
    /// The thread currently allowed to make progress.
    cur: usize,
    /// Recorded decisions: a replayed prefix plus fresh tail.
    pub(crate) schedule: Vec<Choice>,
    /// Next decision index (== number of decisions taken so far).
    pub(crate) pos: usize,
    /// Lock id → holding thread, for locks the model created this run.
    locks: HashMap<usize, Option<usize>>,
    next_lock_id: usize,
    pub(crate) abort: Option<Abort>,
    /// Real handles of spawned threads, joined by the controller.
    pub(crate) real_handles: Vec<std::thread::JoinHandle<()>>,
    /// Bound on decisions per execution (catches unbounded model loops).
    pub(crate) max_choices: usize,
    active: bool,
}

pub(crate) struct Exec {
    pub(crate) state: Mutex<ExecState>,
    pub(crate) cv: Condvar,
}

pub(crate) fn exec() -> &'static Exec {
    static EXEC: OnceLock<Exec> = OnceLock::new();
    EXEC.get_or_init(|| Exec { state: Mutex::new(ExecState::default()), cv: Condvar::new() })
}

thread_local! {
    /// The logical thread id of the current OS thread, when it belongs to
    /// the running model.
    static CUR_TID: Cell<Option<usize>> = const { Cell::new(None) };
}

pub(crate) fn set_tid(tid: Option<usize>) {
    CUR_TID.with(|c| c.set(tid));
}

/// The calling thread's logical id; panics outside a model run so misuse
/// of `loom` primitives from ordinary code fails loudly.
pub(crate) fn tid() -> usize {
    // Deliberate loud failure: loom primitives outside loom::model are a
    // test-harness bug; production builds use the parking_lot shim.
    CUR_TID.with(|c| c.get()).expect("loom primitive used outside loom::model")
}

fn lock_state() -> MutexGuard<'static, ExecState> {
    match exec().state.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// Starts a fresh execution with `schedule` as the prescribed prefix.
pub(crate) fn begin_execution(schedule: Vec<Choice>, max_choices: usize) {
    let mut st = lock_state();
    *st = ExecState {
        threads: vec![Run::Runnable],
        cur: 0,
        schedule,
        pos: 0,
        locks: HashMap::new(),
        next_lock_id: 0,
        abort: None,
        real_handles: Vec::new(),
        max_choices,
        active: true,
    };
}

/// Blocks the controller until every model thread finished, then returns
/// the terminal state (schedule, abort, handles to join).
pub(crate) fn wait_execution_done() -> (Vec<Choice>, Option<Abort>, Vec<std::thread::JoinHandle<()>>)
{
    let mut st = lock_state();
    while !(st.active && st.threads.iter().all(|t| *t == Run::Finished)) {
        st = match exec().cv.wait(st) {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
    }
    st.active = false;
    (std::mem::take(&mut st.schedule), st.abort.take(), std::mem::take(&mut st.real_handles))
}

/// Registers a new logical thread; returns its id. The spawner registers
/// *before* starting the real thread so the child's id is valid by the
/// time it first parks.
pub(crate) fn register_thread() -> usize {
    let mut st = lock_state();
    let tid = st.threads.len();
    st.threads.push(Run::Runnable);
    tid
}

/// Records the real handle of a spawned model thread so the controller
/// can join it after the execution.
pub(crate) fn store_handle(handle: std::thread::JoinHandle<()>) {
    lock_state().real_handles.push(handle);
}

/// Parks the calling OS thread until its logical thread is scheduled.
/// Called once by each spawned thread before running user code.
pub(crate) fn wait_until_scheduled(me: usize) {
    let mut st = lock_state();
    loop {
        if st.abort.is_some() {
            drop(st);
            abort_unwind();
        }
        if st.cur == me && st.threads[me] == Run::Runnable {
            return;
        }
        st = match exec().cv.wait(st) {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
    }
}

fn abort_unwind() -> ! {
    std::panic::panic_any(ABORT_SENTINEL);
}

/// Picks the next thread to run (recording/replaying the decision) and
/// hands control to it. `st.cur` must be transferred while the state lock
/// is held.
fn schedule_next(st: &mut ExecState) {
    let alts: Vec<usize> = st
        .threads
        .iter()
        .enumerate()
        .filter(|(_, t)| **t == Run::Runnable)
        .map(|(i, _)| i)
        .collect();
    if alts.is_empty() {
        let blocked: Vec<String> = st
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t, Run::Finished))
            .map(|(i, t)| format!("thread {i}: {t:?}"))
            .collect();
        st.abort = Some(Abort::Deadlock(format!(
            "all unfinished threads are blocked ({})",
            blocked.join(", ")
        )));
        exec().cv.notify_all();
        return;
    }
    if st.pos >= st.max_choices {
        st.abort = Some(Abort::TooDeep(format!(
            "execution exceeded {} scheduling points — bound the model's retry loops",
            st.max_choices
        )));
        exec().cv.notify_all();
        return;
    }
    let index = if st.pos < st.schedule.len() {
        // Replay: the model must be deterministic for DFS to be sound.
        debug_assert_eq!(
            st.schedule[st.pos].alts, alts,
            "model is non-deterministic: runnable sets diverged on replay"
        );
        st.schedule[st.pos].index
    } else {
        st.schedule.push(Choice { index: 0, alts: alts.clone() });
        0
    };
    st.cur = st.schedule[st.pos].alts[index];
    st.pos += 1;
    exec().cv.notify_all();
}

/// A scheduling point: every modeled shared-memory operation calls this
/// *before* performing its effect.
pub(crate) fn yield_point() {
    let me = tid();
    let mut st = lock_state();
    if st.abort.is_some() {
        drop(st);
        abort_unwind();
    }
    debug_assert_eq!(st.cur, me, "only the scheduled thread may reach a yield point");
    schedule_next(&mut st);
    if st.abort.is_some() {
        // schedule_next itself raised the abort (deadlock / too deep);
        // don't perform the operation this yield point was guarding.
        drop(st);
        abort_unwind();
    }
    while st.cur != me || st.threads[me] != Run::Runnable {
        if st.abort.is_some() {
            drop(st);
            abort_unwind();
        }
        st = match exec().cv.wait(st) {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
    }
}

/// Allocates a fresh lock id for a `loom` mutex created during this run.
pub(crate) fn new_lock_id() -> usize {
    let mut st = lock_state();
    let id = st.next_lock_id;
    st.next_lock_id += 1;
    st.locks.insert(id, None);
    id
}

/// Acquires the model lock `id`, blocking (in scheduler terms) while it is
/// held. The caller must already own a yield point for the acquire.
pub(crate) fn acquire_lock(id: usize) {
    let me = tid();
    let mut st = lock_state();
    loop {
        if st.abort.is_some() {
            drop(st);
            abort_unwind();
        }
        match st.locks.get(&id).copied().flatten() {
            None => {
                st.locks.insert(id, Some(me));
                return;
            }
            Some(holder) => {
                debug_assert_ne!(holder, me, "loom::sync::Mutex is not reentrant");
                st.threads[me] = Run::BlockedLock(id);
                schedule_next(&mut st);
                while !(st.cur == me && st.threads[me] == Run::Runnable) {
                    if st.abort.is_some() {
                        drop(st);
                        abort_unwind();
                    }
                    st = match exec().cv.wait(st) {
                        Ok(g) => g,
                        Err(p) => p.into_inner(),
                    };
                }
            }
        }
    }
}

/// Releases the model lock `id` and makes its waiters runnable. Not a
/// scheduling point: the next shared op of the releasing thread yields
/// first, so no interleaving is lost.
pub(crate) fn release_lock(id: usize) {
    let mut st = lock_state();
    st.locks.insert(id, None);
    for t in st.threads.iter_mut() {
        if *t == Run::BlockedLock(id) {
            *t = Run::Runnable;
        }
    }
    // No notify needed: woken threads only run once scheduled, and
    // scheduling happens at this thread's next yield point (or finish).
}

/// Marks the calling thread finished and schedules a successor. Joiners
/// become runnable.
pub(crate) fn finish_thread(panic_payload: Option<String>) {
    let me = tid();
    let mut st = lock_state();
    st.threads[me] = Run::Finished;
    for t in st.threads.iter_mut() {
        if *t == Run::BlockedJoin(me) {
            *t = Run::Runnable;
        }
    }
    if let Some(msg) = panic_payload {
        if st.abort.is_none() {
            st.abort = Some(Abort::Panic(msg));
        }
        exec().cv.notify_all();
        return;
    }
    if st.abort.is_some() || st.threads.iter().all(|t| *t == Run::Finished) {
        exec().cv.notify_all();
        return;
    }
    schedule_next(&mut st);
}

/// Blocks (in scheduler terms) until thread `target` finishes. The caller
/// must already own a yield point.
pub(crate) fn join_thread(target: usize) {
    let me = tid();
    let mut st = lock_state();
    if st.threads[target] == Run::Finished {
        return;
    }
    st.threads[me] = Run::BlockedJoin(target);
    schedule_next(&mut st);
    while !(st.cur == me && st.threads[me] == Run::Runnable) {
        if st.abort.is_some() {
            drop(st);
            abort_unwind();
        }
        st = match exec().cv.wait(st) {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
    }
}
