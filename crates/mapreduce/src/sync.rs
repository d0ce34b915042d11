//! The runtime's synchronization facade.
//!
//! Every Mutex/Condvar/atomic/thread primitive and clock read the
//! engine's concurrency core uses comes from here, and every blocking
//! wait is one call to [`wait_until`]. In a normal build the re-exports
//! *are* `parking_lot` / `std` — zero overhead. In a checker build
//! (`RUSTFLAGS='--cfg check'`) they are the [`sidr_check::sync`]
//! virtual primitives and clock, so the production code runs
//! unmodified under deterministic schedule exploration. This file is
//! the one place in the engine that knows which build it is in.
//!
//! `check` is a rustc `--cfg`, not a cargo feature, deliberately:
//! feature unification could silently turn the checker on for every
//! dependent of this crate, whereas a RUSTFLAGS cfg rebuilds the whole
//! graph explicitly and can never leak into normal builds.
//!
//! [`chaos`] holds seeded mutation hooks that let the checker's
//! mutation tests re-introduce classic concurrency bugs and prove the
//! checker catches each one; in normal builds every hook is a `const
//! false` the optimizer deletes.

use std::time::Instant;

#[cfg(not(check))]
pub use parking_lot::{Condvar, Mutex, MutexGuard};
#[cfg(check)]
pub use sidr_check::sync::{Condvar, Mutex, MutexGuard};

/// The clock: the explorer's virtual one under `--cfg check`.
pub mod time {
    #[cfg(check)]
    pub use sidr_check::sync::time::now;
    #[cfg(not(check))]
    pub fn now() -> std::time::Instant {
        std::time::Instant::now()
    }
}

/// How often an untimed wait re-checks in case a notification was
/// missed. Checker builds have no tick: there a missed notification is
/// a hang, which the explorer reports.
#[cfg(not(check))]
const WAIT_TICK: std::time::Duration = std::time::Duration::from_millis(25);

/// Parks on `cv`, re-evaluating `ready` under the lock on every wakeup:
/// `Some(Some(r))` returns `Some(r)`; `Some(None)` gives up (a failed or
/// cancelled job) and returns `None`, as does `until` passing. A result
/// — not a give-up — reached right after a safety tick rather than a
/// notification counts in `sidr_mr_tick_wakeups_total`.
pub fn wait_until<T, R>(
    cv: &Condvar,
    guard: &mut MutexGuard<'_, T>,
    until: Option<Instant>,
    mut ready: impl FnMut(&mut T) -> Option<Option<R>>,
) -> Option<R> {
    let mut ticked = false;
    loop {
        if let Some(r) = ready(guard) {
            if ticked && r.is_some() {
                crate::metrics::runtime().tick_wakeups.inc();
            }
            return r;
        }
        ticked = match until {
            Some(t) => {
                let now = time::now();
                if now >= t {
                    return None;
                }
                cv.wait_for(guard, t - now);
                false
            }
            None => wait_tick(cv, guard),
        };
    }
}

/// One untimed wait; true if the tick ended it.
#[cfg(not(check))]
fn wait_tick<T>(cv: &Condvar, guard: &mut MutexGuard<'_, T>) -> bool {
    cv.wait_for(guard, WAIT_TICK).timed_out()
}

#[cfg(check)]
fn wait_tick<T>(cv: &Condvar, guard: &mut MutexGuard<'_, T>) -> bool {
    cv.wait(guard);
    false
}

/// Atomic types used by the concurrency core. Under `--cfg check`
/// these are virtual: every access is a scheduler yield point and
/// acquire/release orderings induce happens-before edges.
pub mod atomic {
    #[cfg(check)]
    pub use sidr_check::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    #[cfg(not(check))]
    pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
}

/// Threads and sleeps. Under `--cfg check`, scoped and detached spawns
/// create cooperatively scheduled vthreads (a detached one is joined
/// when the explored body ends) and a sleep waits on virtual time.
pub mod thread {
    #[cfg(check)]
    pub use sidr_check::sync::thread::{scope, sleep, spawn, JoinHandle};
    #[cfg(not(check))]
    pub use std::thread::{scope, sleep, spawn, JoinHandle};
}

/// Seeded concurrency-bug injection for checker mutation tests.
///
/// Each [`Mutation`](chaos::Mutation) re-introduces one classic bug at a named hook in
/// the runtime. The hooks compile to `false` in normal builds; under
/// `--cfg check` the mutation tests arm one at a time and assert the
/// explorer reports the matching finding (lost wakeup, deadlock,
/// protocol violation). The armed flag is process-global state of the
/// *checker*, not of the model: it is a plain std atomic on purpose,
/// so arming it neither yields nor creates happens-before edges.
pub mod chaos {
    /// A deliberately injected concurrency bug.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum Mutation {
        /// `Semaphore::release` forgets its `notify_one`: slot waiters
        /// make progress only via the safety tick.
        DropSemReleaseNotify,
        /// A finished map commits `Done` without `notify_all`: reducers
        /// blocked on the barrier are never woken.
        DropMapDoneNotify,
        /// The map worker holds the state lock across the slot
        /// acquire, whose abort callback also locks state.
        HoldStateAcrossAcquire,
        /// Volatile recovery skips re-enqueueing the consumed map
        /// outputs, so a recovering reducer waits for a recommit
        /// nobody will produce.
        SkipRecoveryRewait,
        /// The spill mover installs the on-disk tier without
        /// `notify_all`: fetchers blocked on a `Moving` partition are
        /// never woken and progress only via the safety tick.
        DropTierMoveNotify,
        /// The fleet's `finish` skips workers marked dead, so a worker
        /// that only missed heartbeats keeps the job's executor and
        /// partitions.
        FinishSkipsDeadWorkers,
        /// Recovery keeps the dead generation's running count: its
        /// straggler still out counts as a racer of the new generation,
        /// so a failed attempt of the new one is never retried.
        RecoveryInheritsRacers,
        /// A keyblock committed after its client hung up fails the
        /// commit, and so the job.
        HangUpFailsCommit,
        /// A reduce whose source fails its CRC releases the sound
        /// ones with it: the retry finds them gone, and maps outside
        /// the fault's reach re-execute.
        ReleaseOnLostSources,
    }

    /// Whether `m` is armed. Always `false` outside checker builds.
    #[cfg(not(check))]
    #[inline(always)]
    pub fn on(_m: Mutation) -> bool {
        false
    }

    /// The armed mutation's discriminant + 1; 0 = none.
    #[cfg(check)]
    static ARMED: std::sync::atomic::AtomicU8 = std::sync::atomic::AtomicU8::new(0);

    /// Whether `m` is armed.
    #[cfg(check)]
    #[inline]
    pub fn on(m: Mutation) -> bool {
        ARMED.load(std::sync::atomic::Ordering::Relaxed) == m as u8 + 1
    }

    /// Arms `m` for the lifetime of the returned guard. The flag is
    /// process-global: tests that arm mutations must serialize.
    #[cfg(check)]
    pub fn arm(m: Mutation) -> Armed {
        ARMED.store(m as u8 + 1, std::sync::atomic::Ordering::SeqCst);
        Armed
    }

    /// RAII guard disarming the active mutation on drop.
    #[cfg(check)]
    pub struct Armed;

    #[cfg(check)]
    impl Drop for Armed {
        fn drop(&mut self) {
            ARMED.store(0, std::sync::atomic::Ordering::SeqCst);
        }
    }
}
