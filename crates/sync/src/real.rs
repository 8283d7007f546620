//! The production backend: thin wrappers over `std::sync` with a
//! poison-free API (like `parking_lot`'s), plus `std` re-exports for
//! atomics and threads.
//!
//! Poison-freedom is a deliberate policy, not a shortcut: a panic while
//! holding one of these locks is already a bug the panic itself reports,
//! and every protected structure in this workspace is either rebuilt
//! from scratch on retry or torn down with the panicking request — so
//! propagating `PoisonError` to every caller adds `expect` boilerplate
//! without adding safety.  Recovery is `PoisonError::into_inner`, exactly
//! as the `parking_lot` shim does.

use std::sync::{
    Condvar as StdCondvar, Mutex as StdMutex, OnceLock, PoisonError, RwLock as StdRwLock,
};

/// A mutual-exclusion lock with a poison-free API.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: StdMutex<T>,
}

/// An RAII guard for [`Mutex`]; releases the lock on drop.
#[derive(Debug)]
pub struct MutexGuard<'a, T: ?Sized> {
    inner: std::sync::MutexGuard<'a, T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex protecting `value`.
    pub fn new(value: T) -> Self {
        Mutex {
            inner: StdMutex::new(value),
        }
    }

    /// Consumes the mutex and returns the protected value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until it is available.  Never observes
    /// poisoning.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: self.inner.lock().unwrap_or_else(PoisonError::into_inner),
        }
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

/// A condition variable paired with [`Mutex`].
#[derive(Debug, Default)]
pub struct Condvar {
    inner: StdCondvar,
}

impl Condvar {
    /// Creates a new condition variable.
    pub fn new() -> Self {
        Condvar {
            inner: StdCondvar::new(),
        }
    }

    /// Atomically releases `guard`'s mutex and waits for a notification,
    /// then re-acquires the mutex.  Spurious wakeups are permitted, as
    /// with `std`: re-check the condition in a loop or use
    /// [`Condvar::wait_while`].
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        MutexGuard {
            inner: self
                .inner
                .wait(guard.inner)
                .unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Waits until `condition` returns `false` (i.e. waits *while* it
    /// holds), re-checking on every wakeup.
    pub fn wait_while<'a, T, F>(
        &self,
        mut guard: MutexGuard<'a, T>,
        mut condition: F,
    ) -> MutexGuard<'a, T>
    where
        F: FnMut(&mut T) -> bool,
    {
        while condition(&mut guard) {
            guard = self.wait(guard);
        }
        guard
    }

    /// Wakes one waiter, if any.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

/// A reader–writer lock with a poison-free API.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized> {
    inner: StdRwLock<T>,
}

/// Shared-access RAII guard for [`RwLock`].
#[derive(Debug)]
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockReadGuard<'a, T>,
}

/// Exclusive-access RAII guard for [`RwLock`].
#[derive(Debug)]
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    /// Creates a new reader–writer lock protecting `value`.
    pub fn new(value: T) -> Self {
        RwLock {
            inner: StdRwLock::new(value),
        }
    }

    /// Consumes the lock and returns the protected value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard {
            inner: self.inner.read().unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Acquires exclusive write access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard {
            inner: self.inner.write().unwrap_or_else(PoisonError::into_inner),
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

/// A write-once cell with single-flight initialisation (`get_or_init`
/// runs its closure at most once even when raced).
#[derive(Debug)]
pub struct OnceSlot<T> {
    inner: OnceLock<T>,
}

impl<T> Default for OnceSlot<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> OnceSlot<T> {
    /// Creates an empty slot.
    pub fn new() -> Self {
        OnceSlot {
            inner: OnceLock::new(),
        }
    }

    /// The value, if initialisation has completed.
    pub fn get(&self) -> Option<&T> {
        self.inner.get()
    }

    /// Returns the value, initialising it with `init` if the slot is
    /// empty; at most one caller ever runs `init`.
    pub fn get_or_init(&self, init: impl FnOnce() -> T) -> &T {
        self.inner.get_or_init(init)
    }

    /// Sets the value if the slot is empty; returns `Err(value)` if it
    /// was already set.
    pub fn set(&self, value: T) -> Result<(), T> {
        self.inner.set(value)
    }

    /// Consumes the slot and returns the value, if any.
    pub fn into_inner(self) -> Option<T> {
        self.inner.into_inner()
    }
}

impl<T: Clone> Clone for OnceSlot<T> {
    fn clone(&self) -> Self {
        OnceSlot {
            inner: self.inner.clone(),
        }
    }
}

/// Atomic types: plain `std::sync::atomic` re-exports.
pub mod atomic {
    pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
}

/// Thread spawning: plain `std::thread` re-exports.
pub mod thread {
    pub use std::thread::{scope, spawn, yield_now, JoinHandle, Scope, ScopedJoinHandle};
}
