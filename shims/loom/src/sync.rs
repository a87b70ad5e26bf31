//! Model synchronization primitives: [`Mutex`] and the [`atomic`] types.
//!
//! Every operation on these types is a scheduling point (see the private
//! `sched` module), which is what lets the explorer enumerate
//! interleavings. Because the scheduler serializes model threads, the
//! actual storage can be plain `std` primitives; memory orderings are
//! accepted for API compatibility but the exploration is sequentially
//! consistent (it finds interleaving races, not weak-memory reorderings).

use crate::sched;

pub use std::sync::Arc;

/// A model mutex. Contention and the resulting blocking are visible to the
/// scheduler, so lock-based races and deadlocks are explored.
pub struct Mutex<T> {
    /// Scheduler-side identity; `None` until first used inside a model run
    /// (ids are per-execution, and the value is rebuilt each run anyway
    /// because models construct their state inside the closure).
    id: usize,
    inner: std::sync::Mutex<T>,
}

/// Guard for a [`Mutex`]; releases the model lock on drop.
pub struct MutexGuard<'a, T> {
    id: usize,
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Creates a model mutex. Must be called inside `loom::model`.
    pub fn new(value: T) -> Mutex<T> {
        Mutex { id: sched::new_lock_id(), inner: std::sync::Mutex::new(value) }
    }

    /// Acquires the lock; a scheduling point that blocks while another
    /// model thread holds it.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        sched::yield_point();
        sched::acquire_lock(self.id);
        // The scheduler already guarantees exclusivity; the std mutex only
        // stores the data. Poison can only arrive via an aborted run.
        let inner = match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        MutexGuard { id: self.id, inner: Some(inner) }
    }
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard accessed after drop")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard accessed after drop")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        drop(self.inner.take());
        sched::release_lock(self.id);
    }
}

/// Model atomics: each access is a scheduling point.
pub mod atomic {
    use crate::sched;
    pub use std::sync::atomic::Ordering;

    macro_rules! model_atomic {
        ($name:ident, $std:ty, $val:ty) => {
            /// A model atomic; every access is a scheduling point.
            #[derive(Debug, Default)]
            pub struct $name {
                cell: $std,
            }

            impl $name {
                /// Creates a model atomic. Usable inside `loom::model`.
                pub fn new(v: $val) -> Self {
                    Self { cell: <$std>::new(v) }
                }

                /// Atomic load (scheduling point).
                pub fn load(&self, _order: Ordering) -> $val {
                    sched::yield_point();
                    self.cell.load(Ordering::SeqCst)
                }

                /// Atomic store (scheduling point).
                pub fn store(&self, v: $val, _order: Ordering) {
                    sched::yield_point();
                    self.cell.store(v, Ordering::SeqCst)
                }

                /// Atomic fetch-add (one scheduling point: the read-modify-
                /// write is indivisible, as on hardware).
                pub fn fetch_add(&self, v: $val, _order: Ordering) -> $val {
                    sched::yield_point();
                    self.cell.fetch_add(v, Ordering::SeqCst)
                }
            }
        };
    }

    model_atomic!(AtomicU32, std::sync::atomic::AtomicU32, u32);
    model_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);
    model_atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);

    /// A model atomic boolean; every access is a scheduling point.
    #[derive(Debug, Default)]
    pub struct AtomicBool {
        cell: std::sync::atomic::AtomicBool,
    }

    impl AtomicBool {
        /// Creates a model atomic. Usable inside `loom::model`.
        pub fn new(v: bool) -> Self {
            Self { cell: std::sync::atomic::AtomicBool::new(v) }
        }

        /// Atomic load (scheduling point).
        pub fn load(&self, _order: Ordering) -> bool {
            sched::yield_point();
            self.cell.load(Ordering::SeqCst)
        }

        /// Atomic store (scheduling point).
        pub fn store(&self, v: bool, _order: Ordering) {
            sched::yield_point();
            self.cell.store(v, Ordering::SeqCst)
        }
    }
}
