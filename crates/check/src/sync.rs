//! Dual-mode synchronization primitives.
//!
//! These types mirror the API surface the runtime actually uses — the
//! parking_lot-style `Mutex`/`Condvar`, the handful of std atomics,
//! `std::thread::{scope, spawn, sleep}` and `Instant::now` — and behave
//! in one of two ways:
//!
//! * **Outside an exploration** (no scheduler bound to the thread) they
//!   are thin wrappers over `std`, so code built with `--cfg check`
//!   still runs normally in ordinary tests.
//! * **Inside an exploration** every operation is a yield point of the
//!   virtual scheduler: the data still lives behind real std
//!   primitives (no `unsafe` anywhere), but blocking, wakeups, and
//!   time are purely logical and decided by the schedule explorer.
//!
//! [`RaceCell`] is the instrumentation point for happens-before race
//! detection: wrap shared state in it inside a scenario and every
//! access is checked against the vector clocks.

use crate::sched;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::Ordering;
use std::time::Duration;

fn is_acquire(o: Ordering) -> bool {
    matches!(o, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

fn is_release(o: Ordering) -> bool {
    matches!(o, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

fn addr_of<T>(t: &T) -> usize {
    t as *const T as *const () as usize
}

// ---------------------------------------------------------------------------
// Mutex / Condvar (parking_lot-shaped)
// ---------------------------------------------------------------------------

/// Mutual exclusion with parking_lot's `lock() -> guard` signature.
/// Under an exploration the blocking is virtual; the inner std mutex
/// only ever sees uncontended accesses (the baton serializes them).
#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

/// Guard for [`Mutex`]. Holds the std guard in an `Option` so
/// [`Condvar::wait_for`] can temporarily take it.
pub struct MutexGuard<'a, T> {
    lock: &'a Mutex<T>,
    inner: Option<std::sync::MutexGuard<'a, T>>,
    ctx: Option<sched::Ctx>,
}

impl<T> Mutex<T> {
    /// Create a mutex (const, usable in statics).
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    fn real_lock(&self) -> std::sync::MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquire. Inside an exploration this is a yield point and may
    /// logically block; self-deadlock is a finding, not a hang.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let ctx = sched::current();
        if let Some(c) = &ctx {
            c.sched.mutex_lock(c.tid, addr_of(self));
        }
        MutexGuard {
            lock: self,
            inner: Some(self.real_lock()),
            ctx,
        }
    }

    /// Consume the mutex, returning its value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }

    /// Direct access through exclusive borrow (no locking needed).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present outside wait")
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present outside wait")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the real lock before the logical release hands the
        // baton to a contender.
        self.inner = None;
        if let Some(c) = &self.ctx {
            c.sched.mutex_unlock(c.tid, addr_of(self.lock));
        }
    }
}

/// Condition variable taking `&mut MutexGuard` (parking_lot style).
#[derive(Debug, Default)]
pub struct Condvar(std::sync::Condvar);

/// Result of a timed wait (parking_lot's `WaitTimeoutResult`).
#[derive(Debug, Clone, Copy)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// True iff the timeout elapsed before a notification arrived.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

impl Condvar {
    /// Create a condvar (const, usable in statics).
    pub const fn new() -> Self {
        Condvar(std::sync::Condvar::new())
    }

    fn virtual_wait<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        c: &sched::Ctx,
        timeout: Option<Duration>,
    ) -> bool {
        // Drop the real guard before logically blocking: the next
        // logical lock holder must be able to take the real mutex.
        guard.inner = None;
        let timed_out = c
            .sched
            .condvar_wait(c.tid, addr_of(self), addr_of(guard.lock), timeout);
        guard.inner = Some(guard.lock.real_lock());
        timed_out
    }

    /// Block until notified, releasing the guard's lock while parked.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        match guard.ctx.clone() {
            Some(c) => {
                self.virtual_wait(guard, &c, None);
            }
            None => {
                let inner = guard.inner.take().expect("guard present outside wait");
                let inner = self.0.wait(inner).unwrap_or_else(|e| e.into_inner());
                guard.inner = Some(inner);
            }
        }
    }

    /// Block until notified or `timeout` elapses. Under an exploration
    /// the timeout is a virtual timer: it fires once nothing else can
    /// run and it is the earliest one pending.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        match guard.ctx.clone() {
            Some(c) => WaitTimeoutResult(self.virtual_wait(guard, &c, Some(timeout))),
            None => {
                let inner = guard.inner.take().expect("guard present outside wait");
                let (inner, result) = self
                    .0
                    .wait_timeout(inner, timeout)
                    .unwrap_or_else(|e| e.into_inner());
                guard.inner = Some(inner);
                WaitTimeoutResult(result.timed_out())
            }
        }
    }

    /// Wake one waiter (decider-chosen under an exploration).
    pub fn notify_one(&self) {
        if let Some(c) = sched::current() {
            c.sched.condvar_notify(c.tid, addr_of(self), false);
        } else {
            self.0.notify_one();
        }
    }

    /// Wake every waiter.
    pub fn notify_all(&self) {
        if let Some(c) = sched::current() {
            c.sched.condvar_notify(c.tid, addr_of(self), true);
        } else {
            self.0.notify_all();
        }
    }
}

// ---------------------------------------------------------------------------
// Atomics
// ---------------------------------------------------------------------------

/// Instrumented atomics. The real operation always runs on an inner
/// std atomic (so values are exact); under an exploration each access
/// is additionally a yield point with acquire/release vector-clock
/// edges matching the requested ordering.
pub mod atomic {
    pub use std::sync::atomic::Ordering;

    use super::{addr_of, is_acquire, is_release};
    use crate::sched;

    fn hook(addr: usize, acquire: bool, release: bool) {
        if let Some(c) = sched::current() {
            c.sched.atomic_access(c.tid, addr, acquire, release);
        }
    }

    macro_rules! instrumented_atomic {
        ($name:ident, $std:ty, $value:ty) => {
            /// Instrumented drop-in for the std atomic of the same name.
            #[derive(Debug, Default)]
            pub struct $name($std);

            impl $name {
                /// Create (const, usable in statics).
                pub const fn new(v: $value) -> Self {
                    Self(<$std>::new(v))
                }

                /// Atomic load.
                pub fn load(&self, order: Ordering) -> $value {
                    hook(addr_of(self), is_acquire(order), false);
                    self.0.load(order)
                }

                /// Atomic store.
                pub fn store(&self, v: $value, order: Ordering) {
                    hook(addr_of(self), false, is_release(order));
                    self.0.store(v, order)
                }

                /// Atomic swap (read-modify-write: acquire + release).
                pub fn swap(&self, v: $value, order: Ordering) -> $value {
                    hook(
                        addr_of(self),
                        is_acquire(order) || is_release(order),
                        is_acquire(order) || is_release(order),
                    );
                    self.0.swap(v, order)
                }
            }
        };
    }

    instrumented_atomic!(AtomicBool, std::sync::atomic::AtomicBool, bool);
    instrumented_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);
    instrumented_atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);

    macro_rules! instrumented_fetch {
        ($name:ident, $value:ty) => {
            impl $name {
                /// Atomic fetch-add (read-modify-write).
                pub fn fetch_add(&self, v: $value, order: Ordering) -> $value {
                    hook(
                        addr_of(self),
                        is_acquire(order) || is_release(order),
                        is_acquire(order) || is_release(order),
                    );
                    self.0.fetch_add(v, order)
                }

                /// Atomic fetch-sub (read-modify-write).
                pub fn fetch_sub(&self, v: $value, order: Ordering) -> $value {
                    hook(
                        addr_of(self),
                        is_acquire(order) || is_release(order),
                        is_acquire(order) || is_release(order),
                    );
                    self.0.fetch_sub(v, order)
                }
            }
        };
    }

    instrumented_fetch!(AtomicU64, u64);
    instrumented_fetch!(AtomicUsize, usize);
}

// ---------------------------------------------------------------------------
// RaceCell
// ---------------------------------------------------------------------------

/// Shared state instrumented for happens-before race detection.
///
/// The value sits behind a std mutex, so reading and writing is always
/// memory-safe; what the checker flags is *logical* lack of ordering:
/// two accesses from different vthreads whose vector clocks are
/// concurrent. Outside an exploration it is just a named mutex cell.
#[derive(Debug)]
pub struct RaceCell<T> {
    name: &'static str,
    data: std::sync::Mutex<T>,
}

impl<T> RaceCell<T> {
    /// Create a cell; `name` labels race findings.
    pub const fn new(name: &'static str, value: T) -> Self {
        Self {
            name,
            data: std::sync::Mutex::new(value),
        }
    }

    fn hook(&self, write: bool) {
        if let Some(c) = sched::current() {
            c.sched
                .cell_access(c.tid, addr_of(&self.data), self.name, write);
        }
    }

    /// Read access (checked against concurrent writes).
    pub fn get(&self) -> T
    where
        T: Copy,
    {
        self.hook(false);
        *self.data.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Write access (checked against concurrent reads and writes).
    pub fn set(&self, value: T) {
        self.hook(true);
        *self.data.lock().unwrap_or_else(|e| e.into_inner()) = value;
    }

    /// In-place write access (checked as a write).
    pub fn update<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        self.hook(true);
        f(&mut self.data.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

// ---------------------------------------------------------------------------
// Time and threads
// ---------------------------------------------------------------------------

/// The clock, scheduler-aware.
pub mod time {
    /// The current instant: the execution's epoch plus its virtual time
    /// inside an exploration, `Instant::now()` outside one.
    pub fn now() -> std::time::Instant {
        crate::sched::current().map_or_else(std::time::Instant::now, |c| c.sched.now())
    }
}

/// Scoped and detached threads and sleeping, scheduler-aware.
pub mod thread {
    use crate::sched::{self, CheckAbort};
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::time::Duration;

    /// Under an exploration a sleep blocks on a virtual timer: it ends
    /// once `dur` of virtual time has passed, which happens only while
    /// nothing else can run.
    pub fn sleep(dur: Duration) {
        if let Some(c) = sched::current() {
            c.sched.sleep(c.tid, dur);
        } else {
            std::thread::sleep(dur);
        }
    }

    /// Runs `f` as a vthread on a fresh OS thread: the baton protocol
    /// around a child's body, shared by scoped and detached spawns.
    fn vthread_body(sched: sched::Sched, tid: usize, f: impl FnOnce()) {
        sched::set(Some(sched::Ctx {
            sched: sched.clone(),
            tid,
        }));
        let result = catch_unwind(AssertUnwindSafe(|| {
            sched.thread_started(tid);
            f()
        }));
        if let Err(payload) = result {
            if payload.downcast_ref::<CheckAbort>().is_none() {
                sched.record_panic(tid, super::payload_message(&*payload));
            }
        }
        sched.finish_thread(tid);
        sched::set(None);
    }

    /// Scheduler-aware mirror of [`std::thread::JoinHandle`], for the
    /// detached threads the fleet spawns: they all return `()`.
    pub struct JoinHandle<T>(Handle, std::marker::PhantomData<T>);

    enum Handle {
        Os(std::thread::JoinHandle<()>),
        Virtual { ctx: sched::Ctx, tid: usize },
    }

    impl JoinHandle<()> {
        /// Waits for the thread (logically, under an exploration). A
        /// vthread's panic is already a finding, so its join is `Ok`.
        pub fn join(self) -> std::thread::Result<()> {
            match self.0 {
                Handle::Os(h) => h.join(),
                Handle::Virtual { ctx, tid } => {
                    let me = sched::current().map_or(ctx.tid, |c| c.tid);
                    ctx.sched.join_children(me, &[tid]);
                    Ok(())
                }
            }
        }
    }

    /// Spawns a detached thread. Under an exploration it is a vthread
    /// like a scoped child, and the explorer joins it when the body
    /// ends: a detached thread still parked then is a finding.
    pub fn spawn(f: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
        let handle = match sched::current() {
            None => Handle::Os(std::thread::spawn(f)),
            Some(c) => {
                let tid = c.sched.register_child(c.tid);
                let sched = c.sched.clone();
                let os = std::thread::spawn(move || vthread_body(sched, tid, f));
                c.sched.add_detached(tid, os);
                c.sched.yield_now(c.tid);
                Handle::Virtual { ctx: c, tid }
            }
        };
        JoinHandle(handle, std::marker::PhantomData)
    }

    /// Scheduler-aware mirror of [`std::thread::Scope`].
    pub struct Scope<'scope, 'env> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
        ctx: Option<sched::Ctx>,
        children: std::sync::Mutex<Vec<usize>>,
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawn a scoped thread. Under an exploration the child is
        /// registered as a vthread and runs only when the scheduler
        /// hands it the baton; panics inside it become findings.
        pub fn spawn<F>(&self, f: F)
        where
            F: FnOnce() + Send + 'scope,
        {
            match &self.ctx {
                None => {
                    self.inner.spawn(f);
                }
                Some(c) => {
                    let tid = c.sched.register_child(c.tid);
                    self.children
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push(tid);
                    let sched = c.sched.clone();
                    self.inner.spawn(move || vthread_body(sched, tid, f));
                    // Give the scheduler a chance to run the child
                    // before the parent proceeds.
                    c.sched.yield_now(c.tid);
                }
            }
        }
    }

    /// Scheduler-aware mirror of [`std::thread::scope`]: children spawned
    /// through the [`Scope`] are joined (logically, then really) before
    /// this returns.
    pub fn scope<'env, F, T>(f: F) -> T
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> T,
    {
        let ctx = sched::current();
        std::thread::scope(|inner| {
            let wrapper = Scope {
                inner,
                ctx: ctx.clone(),
                children: std::sync::Mutex::new(Vec::new()),
            };
            let result = catch_unwind(AssertUnwindSafe(|| f(&wrapper)));
            if let Some(c) = &ctx {
                let children = wrapper
                    .children
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .clone();
                match &result {
                    Ok(_) => c.sched.join_children(c.tid, &children),
                    // The scope body is unwinding: tear the execution
                    // down so the children die instead of blocking the
                    // real join below forever.
                    Err(_) => c.sched.abort(),
                }
            }
            match result {
                Ok(v) => v,
                Err(payload) => resume_unwind(payload),
            }
        })
    }
}

fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}
