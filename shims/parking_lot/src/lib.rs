#![forbid(unsafe_code)]

//! Offline shim for the [`parking_lot`](https://docs.rs/parking_lot)
//! lock API, backed by `std::sync`.
//!
//! The build container has no crates-io mirror, so the workspace vendors
//! the tiny subset of parking_lot it actually uses: `Mutex` and `RwLock`
//! whose lock methods return guards directly (no `LockResult`). Poisoning
//! is ignored, which matches parking_lot semantics: a panic while holding
//! the lock does not poison it for subsequent users.
//!
//! Lock discipline is checked statically: cqa-lint's `no-wait-under-guard`
//! rejects any lock acquisition, blocking call or fault point under a
//! held guard (see `docs/ANALYSIS.md`).

use std::sync;

/// A mutual-exclusion lock whose `lock` never fails.
#[derive(Debug)]
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

/// Guard for [`Mutex`]; unlocks on drop.
#[derive(Debug)]
pub struct MutexGuard<'a, T: ?Sized> {
    inner: sync::MutexGuard<'a, T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex.
    pub fn new(value: T) -> Self {
        Mutex { inner: sync::Mutex::new(value) }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let inner = match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        MutexGuard { inner }
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A reader–writer lock whose lock methods never fail.
#[derive(Debug)]
pub struct RwLock<T: ?Sized> {
    inner: sync::RwLock<T>,
}

/// Shared-read guard for [`RwLock`]; unlocks on drop.
#[derive(Debug)]
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: sync::RwLockReadGuard<'a, T>,
}

/// Exclusive-write guard for [`RwLock`]; unlocks on drop.
#[derive(Debug)]
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: sync::RwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    /// Creates a new reader–writer lock.
    pub fn new(value: T) -> Self {
        RwLock { inner: sync::RwLock::new(value) }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires a shared read lock.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let inner = match self.inner.read() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        RwLockReadGuard { inner }
    }

    /// Acquires an exclusive write lock.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let inner = match self.inner.write() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        RwLockWriteGuard { inner }
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_locks_and_unlocks() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        // A let-bound guard holds the lock until it is dropped.
        let mut g = m.lock();
        *g *= 3;
        drop(g);
        assert_eq!(*m.lock(), 6);
    }

    #[test]
    fn rwlock_read_write() {
        let mut l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        {
            // Shared readers coexist.
            let (a, b) = (l.read(), l.read());
            assert_eq!((a.len(), b.len()), (3, 3));
        }
        l.get_mut().clear();
        assert!(l.read().is_empty());
    }

    #[test]
    fn panic_does_not_poison() {
        let m = std::sync::Arc::new(Mutex::new(0));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        assert_eq!(*m.lock(), 0); // parking_lot semantics: still usable
    }
}
