//! Instrumented synchronisation primitives: the model-backed twins of
//! [`ajd-sync`](https://example.invalid/ajd)'s facade types.
//!
//! Each primitive has two modes, decided per call by whether the calling
//! OS thread is a virtual thread of an active model run:
//!
//! * **modelled** — every acquire/wait/notify/load is a scheduling point
//!   routed through the crate's scheduler, so the explorer can interleave
//!   threads around it; blocking is virtual (the runtime parks the thread
//!   and the controller explores who runs next);
//! * **fallback** — outside a model run the primitive behaves exactly like
//!   its `std::sync` counterpart (the `std` object it wraps does the
//!   work).  This keeps a `--cfg ajd_model` build fully functional for
//!   ordinary tests: only code *inside* `Model::check` bodies is explored.
//!
//! Mutual exclusion is always enforced by the wrapped `std` object in both
//! modes, so the data access itself is sound either way; what the modelled
//! mode adds is *virtual* blocking and exhaustive interleaving of it.
//!
//! All lock APIs are **poison-free by construction**: a panicking holder
//! aborts the model run (modelled mode) or propagates the panic without
//! poisoning the lock for later holders (fallback mode, like
//! `parking_lot`).  This is what lets the ported call sites drop their
//! `expect("poisoned")` boilerplate.

// ajd: allow-file(raw-sync-primitive, "these are the instrumented primitives themselves: each wraps a std::sync object for the data path and adds virtual scheduling on top, so this file is the one place raw primitives are constructed by design")

use crate::runtime::{self, Block, Handle};
use std::sync::atomic::{AtomicBool as StdAtomicBool, AtomicU8};
use std::sync::{
    Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard, OnceLock, PoisonError,
    RwLock as StdRwLock, RwLockReadGuard as StdRwLockReadGuard,
    RwLockWriteGuard as StdRwLockWriteGuard,
};

/// Lazily assigns this primitive its per-run object id.
fn object_id(slot: &OnceLock<usize>, handle: &Handle) -> usize {
    *slot.get_or_init(|| handle.rt.new_object_id())
}

// ---------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------

/// A mutual-exclusion lock with a poison-free API; modelled under an
/// active run, `std`-backed otherwise.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    id: OnceLock<usize>,
    /// Model-level ownership flag (only meaningful in modelled mode,
    /// where at most one virtual thread runs at a time).
    held: StdAtomicBool,
    inner: StdMutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex protecting `value`.
    pub fn new(value: T) -> Self {
        Mutex {
            id: OnceLock::new(),
            held: StdAtomicBool::new(false),
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
    /// Acquires the lock, blocking (virtually, under a model run) until
    /// it is available.  Never observes poisoning.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        use std::sync::atomic::Ordering::Relaxed;
        if let Some(h) = runtime::current() {
            let id = object_id(&self.id, &h);
            // Choice point before the acquire attempt: lets the explorer
            // interleave a competitor here.
            h.rt.yield_runnable(h.me);
            while self.held.load(Relaxed) {
                h.rt.yield_as(h.me, Block::Lock(id));
            }
            self.held.store(true, Relaxed);
        }
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        MutexGuard {
            lock: self,
            inner: Some(inner),
        }
    }

    /// Model-level release: clears the ownership flag and wakes waiters.
    /// No-op outside a model run (dropping the `std` guard suffices).
    fn release(&self) {
        use std::sync::atomic::Ordering::Relaxed;
        if let Some(h) = runtime::current() {
            let id = object_id(&self.id, &h);
            self.held.store(false, Relaxed);
            h.rt.wake(Block::Lock(id));
        }
    }
}

/// An RAII guard for [`Mutex`]; releases the lock on drop.
#[derive(Debug)]
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
    inner: Option<StdMutexGuard<'a, T>>,
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard accessed after release")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard accessed after release")
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the data lock first, then the model-level ownership, so
        // a woken competitor can immediately take the std lock.
        self.inner.take();
        self.lock.release();
    }
}

// ---------------------------------------------------------------------
// Condvar
// ---------------------------------------------------------------------

/// A condition variable paired with [`Mutex`]; wait/notify are scheduling
/// points under a model run, and `notify_one` with several waiters is a
/// *decision* the explorer enumerates (real condvars promise no order).
#[derive(Debug, Default)]
pub struct Condvar {
    id: OnceLock<usize>,
    inner: StdCondvar,
}

impl Condvar {
    /// Creates a new condition variable.
    pub fn new() -> Self {
        Condvar {
            id: OnceLock::new(),
            inner: StdCondvar::new(),
        }
    }

    /// Atomically releases `guard`'s mutex and waits for a notification,
    /// then re-acquires the mutex.  Like `std`, spurious wakeups are
    /// permitted (the model's deadlock probe exploits exactly that
    /// license), so callers must re-check their condition in a loop — or
    /// use [`Condvar::wait_while`].
    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        if let Some(h) = runtime::current() {
            let cv = object_id(&self.id, &h);
            let lock = guard.lock;
            // Dropping the guard releases the mutex and wakes lock
            // waiters; no scheduling point runs between that and the
            // registration as a condvar waiter below, so a notify cannot
            // slip into the gap (release-and-sleep is atomic, as std
            // guarantees).
            drop(guard);
            h.rt.condvar_wait(h.me, cv);
            return lock.lock();
        }
        // Fallback: genuine std wait on the inner condvar/mutex pair.
        let lock = guard.lock;
        let std_guard = guard.inner.take().expect("guard accessed after release");
        drop(guard); // model release is a no-op outside a run
        let std_guard = self
            .inner
            .wait(std_guard)
            .unwrap_or_else(PoisonError::into_inner);
        MutexGuard {
            lock,
            inner: Some(std_guard),
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

    /// Wakes one waiter, if any.  With several waiters the model explores
    /// every possible recipient.
    pub fn notify_one(&self) {
        if let Some(h) = runtime::current() {
            let cv = object_id(&self.id, &h);
            h.rt.notify_one(cv);
            return;
        }
        self.inner.notify_one();
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        if let Some(h) = runtime::current() {
            let cv = object_id(&self.id, &h);
            h.rt.notify_all(cv);
            return;
        }
        self.inner.notify_all();
    }
}

// ---------------------------------------------------------------------
// RwLock
// ---------------------------------------------------------------------

/// A reader–writer lock with a poison-free API; modelled under an active
/// run, `std`-backed otherwise.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized> {
    id: OnceLock<usize>,
    /// Model-level reader count (modelled mode only).
    readers: std::sync::atomic::AtomicUsize,
    /// Model-level writer flag (modelled mode only).
    writer: StdAtomicBool,
    inner: StdRwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates a new reader–writer lock protecting `value`.
    pub fn new(value: T) -> Self {
        RwLock {
            id: OnceLock::new(),
            readers: std::sync::atomic::AtomicUsize::new(0),
            writer: StdAtomicBool::new(false),
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
        use std::sync::atomic::Ordering::Relaxed;
        if let Some(h) = runtime::current() {
            let id = object_id(&self.id, &h);
            h.rt.yield_runnable(h.me);
            while self.writer.load(Relaxed) {
                h.rt.yield_as(h.me, Block::RwRead(id));
            }
            self.readers.fetch_add(1, Relaxed);
        }
        let inner = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        RwLockReadGuard {
            lock: self,
            inner: Some(inner),
        }
    }

    /// Acquires exclusive write access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        use std::sync::atomic::Ordering::Relaxed;
        if let Some(h) = runtime::current() {
            let id = object_id(&self.id, &h);
            h.rt.yield_runnable(h.me);
            while self.writer.load(Relaxed) || self.readers.load(Relaxed) > 0 {
                h.rt.yield_as(h.me, Block::RwWrite(id));
            }
            self.writer.store(true, Relaxed);
        }
        let inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        RwLockWriteGuard {
            lock: self,
            inner: Some(inner),
        }
    }

    fn release_read(&self) {
        use std::sync::atomic::Ordering::Relaxed;
        if let Some(h) = runtime::current() {
            let id = object_id(&self.id, &h);
            if self.readers.fetch_sub(1, Relaxed) == 1 {
                h.rt.wake(Block::RwWrite(id));
            }
        }
    }

    fn release_write(&self) {
        use std::sync::atomic::Ordering::Relaxed;
        if let Some(h) = runtime::current() {
            let id = object_id(&self.id, &h);
            self.writer.store(false, Relaxed);
            h.rt.wake(Block::RwRead(id));
            h.rt.wake(Block::RwWrite(id));
        }
    }
}

/// Shared-access RAII guard for [`RwLock`].
#[derive(Debug)]
pub struct RwLockReadGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
    inner: Option<StdRwLockReadGuard<'a, T>>,
}

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard accessed after release")
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        self.inner.take();
        self.lock.release_read();
    }
}

/// Exclusive-access RAII guard for [`RwLock`].
#[derive(Debug)]
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
    inner: Option<StdRwLockWriteGuard<'a, T>>,
}

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard accessed after release")
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard accessed after release")
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        self.inner.take();
        self.lock.release_write();
    }
}

// ---------------------------------------------------------------------
// OnceSlot
// ---------------------------------------------------------------------

/// Once-slot states for the modelled single-flight protocol.
const ONCE_EMPTY: u8 = 0;
const ONCE_RUNNING: u8 = 1;
const ONCE_FULL: u8 = 2;

/// A write-once cell with single-flight initialisation — the primitive
/// under the workspace's memoization slots.
///
/// `get_or_init` guarantees the initialiser runs **at most once** even
/// when raced: one caller (the leader) computes, every other caller
/// blocks on the slot until the value lands.  Under a model run the
/// leader election and the blocking are scheduling points, so the
/// explorer exercises every race on the slot; a double-compute can then
/// only arise from a caller *bypassing* the slot, which is exactly the
/// bug class the single-flight model tests pin.
#[derive(Debug)]
pub struct OnceSlot<T> {
    id: OnceLock<usize>,
    /// Modelled-mode state machine (empty → running → full).
    state: AtomicU8,
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
            id: OnceLock::new(),
            state: AtomicU8::new(ONCE_EMPTY),
            inner: OnceLock::new(),
        }
    }

    /// The value, if initialisation has completed.
    pub fn get(&self) -> Option<&T> {
        if let Some(h) = runtime::current() {
            // Reading the slot is a scheduling point: racers may complete
            // (or not yet have started) the initialisation here.
            h.rt.yield_runnable(h.me);
        }
        self.inner.get()
    }

    /// Returns the value, initialising it with `init` if the slot is
    /// empty; at most one caller ever runs `init`.
    pub fn get_or_init(&self, init: impl FnOnce() -> T) -> &T {
        use std::sync::atomic::Ordering::Relaxed;
        let Some(h) = runtime::current() else {
            return self.inner.get_or_init(init);
        };
        let id = object_id(&self.id, &h);
        h.rt.yield_runnable(h.me);
        loop {
            if let Some(v) = self.inner.get() {
                return v;
            }
            match self
                .state
                .compare_exchange(ONCE_EMPTY, ONCE_RUNNING, Relaxed, Relaxed)
            {
                Ok(_) => {
                    // Leader: compute (the closure may itself hit
                    // scheduling points), publish, wake the followers.
                    let value = init();
                    let _ = self.inner.set(value);
                    self.state.store(ONCE_FULL, Relaxed);
                    h.rt.wake(Block::Once(id));
                    return self.inner.get().expect("slot just filled by leader");
                }
                Err(_) => {
                    // Follower: virtually block until the leader lands.
                    h.rt.yield_as(h.me, Block::Once(id));
                }
            }
        }
    }

    /// Sets the value if the slot is empty; returns `Err(value)` if it
    /// was already set (or a leader is mid-initialisation).
    pub fn set(&self, value: T) -> Result<(), T> {
        use std::sync::atomic::Ordering::Relaxed;
        if let Some(h) = runtime::current() {
            let id = object_id(&self.id, &h);
            h.rt.yield_runnable(h.me);
            if self
                .state
                .compare_exchange(ONCE_EMPTY, ONCE_RUNNING, Relaxed, Relaxed)
                .is_err()
            {
                return Err(value);
            }
            // The inner cell may already hold a value written through the
            // fallback path (e.g. by a real worker thread outside the
            // model); honour it.
            let outcome = self.inner.set(value);
            self.state.store(ONCE_FULL, Relaxed);
            h.rt.wake(Block::Once(id));
            return outcome;
        }
        self.inner.set(value)
    }

    /// Consumes the slot and returns the value, if any.
    pub fn into_inner(self) -> Option<T> {
        self.inner.into_inner()
    }
}

impl<T: Clone> Clone for OnceSlot<T> {
    /// Clones the slot's *value* into a fresh slot with its own model
    /// identity (a clone mid-initialisation observes an empty slot).
    fn clone(&self) -> Self {
        use std::sync::atomic::Ordering::Relaxed;
        let slot = OnceSlot::new();
        if let Some(v) = self.inner.get() {
            let _ = slot.inner.set(v.clone());
            slot.state.store(ONCE_FULL, Relaxed);
        }
        slot
    }
}

// ---------------------------------------------------------------------
// Atomics
// ---------------------------------------------------------------------

pub use std::sync::atomic::Ordering;

/// Declares a modelled atomic wrapper: every access is a scheduling point
/// under a run, and the real operation is delegated to the `std` atomic
/// (runs are serialized, so sequential consistency is automatic — the
/// `Ordering` argument is accepted for API compatibility but exploration
/// is always SC).
macro_rules! modelled_atomic {
    ($(#[$doc:meta])* $name:ident, $std:ty, $prim:ty) => {
        $(#[$doc])*
        #[derive(Debug, Default)]
        pub struct $name {
            inner: $std,
        }

        impl $name {
            /// Creates a new atomic with the given initial value.
            pub const fn new(value: $prim) -> Self {
                Self { inner: <$std>::new(value) }
            }

            fn touch(&self) {
                if let Some(h) = runtime::current() {
                    h.rt.yield_runnable(h.me);
                }
            }

            /// Loads the value (a scheduling point under a model run).
            pub fn load(&self, order: Ordering) -> $prim {
                self.touch();
                self.inner.load(order)
            }

            /// Stores `value` (a scheduling point under a model run).
            pub fn store(&self, value: $prim, order: Ordering) {
                self.touch();
                self.inner.store(value, order);
            }

            /// Swaps in `value`, returning the previous value.
            pub fn swap(&self, value: $prim, order: Ordering) -> $prim {
                self.touch();
                self.inner.swap(value, order)
            }

            /// Consumes the atomic and returns the value.
            pub fn into_inner(self) -> $prim {
                self.inner.into_inner()
            }
        }

        impl From<$prim> for $name {
            fn from(value: $prim) -> Self {
                Self::new(value)
            }
        }
    };
}

modelled_atomic!(
    /// Modelled `AtomicBool`: accesses are scheduling points under a run.
    AtomicBool,
    std::sync::atomic::AtomicBool,
    bool
);
modelled_atomic!(
    /// Modelled `AtomicUsize`: accesses are scheduling points under a run.
    AtomicUsize,
    std::sync::atomic::AtomicUsize,
    usize
);
modelled_atomic!(
    /// Modelled `AtomicU64`: accesses are scheduling points under a run.
    AtomicU64,
    std::sync::atomic::AtomicU64,
    u64
);

macro_rules! modelled_fetch_ops {
    ($name:ident, $prim:ty) => {
        impl $name {
            /// Adds to the value, returning the previous value.
            pub fn fetch_add(&self, value: $prim, order: Ordering) -> $prim {
                self.touch();
                self.inner.fetch_add(value, order)
            }

            /// Subtracts from the value, returning the previous value.
            pub fn fetch_sub(&self, value: $prim, order: Ordering) -> $prim {
                self.touch();
                self.inner.fetch_sub(value, order)
            }

            /// Compare-and-exchange; see `std::sync::atomic`.
            pub fn compare_exchange(
                &self,
                current: $prim,
                new: $prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$prim, $prim> {
                self.touch();
                self.inner.compare_exchange(current, new, success, failure)
            }
        }
    };
}

modelled_fetch_ops!(AtomicUsize, usize);
modelled_fetch_ops!(AtomicU64, u64);
