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

/// Parks on `cv`, re-evaluating `ready` under the lock on every wakeup:
/// `Some(Some(r))` returns `Some(r)`; `Some(None)` gives up (a failed or
/// cancelled job) and returns `None`, as does `until` passing. An
/// untimed wait ends only on a notification — the same wait the
/// checker explores, where a missed one is a `LostWakeup` finding.
pub fn wait_until<T, R>(
    cv: &Condvar,
    guard: &mut MutexGuard<'_, T>,
    until: Option<Instant>,
    mut ready: impl FnMut(&mut T) -> Option<Option<R>>,
) -> Option<R> {
    loop {
        if let Some(r) = ready(guard) {
            return r;
        }
        match until {
            Some(t) => {
                let now = time::now();
                if now >= t {
                    return None;
                }
                cv.wait_for(guard, t - now);
            }
            None => cv.wait(guard),
        }
    }
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
    pub use sidr_check::sync::thread::{scope, sleep, spawn, JoinHandle, Scope};
    #[cfg(not(check))]
    pub use std::thread::{scope, sleep, spawn, JoinHandle, Scope};
}

/// Seeded bug injection for checker mutation tests.
///
/// Each [`Mutation`](chaos::Mutation) re-introduces one classic bug at a named hook in
/// the runtime, or one planner fault the plan's own proof must catch
/// at build. The hooks compile to `false` in normal builds; under
/// `--cfg check` the mutation tests arm one at a time and assert the
/// explorer reports the matching finding (lost wakeup, deadlock,
/// protocol violation), or the build the matching diagnostic code. The armed flag is process-global state of the
/// *checker*, not of the model: it is a plain std atomic on purpose,
/// so arming it neither yields nor creates happens-before edges.
pub mod chaos {
    /// A deliberately injected concurrency bug or planner fault.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum Mutation {
        /// `Inbox::post` queues an attempt's result without waking the
        /// loop: a loop waiting with no timer never sees it.
        DropPostWake,
        /// `Semaphore::release` frees the slot but rings none of the
        /// jobs that found the pool full: they wait for a release that
        /// has already happened.
        ReleaseWakesNoJob,
        /// Volatile recovery skips re-enqueueing the consumed map
        /// outputs, so a recovering reducer waits for a recommit
        /// nobody will produce.
        SkipRecoveryRewait,
        /// A worker applies the coordinator's roster only on `Prepare`,
        /// not on `Ping`, so a worker that no later job joins keeps an
        /// ended job's executor and partitions.
        RosterOnlyOnPrepare,
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
        /// `deps::derive` drops the last edge it derives, the last
        /// feeding map's, from `reduce_deps`: that keyblock's barrier
        /// releases without the map's data.
        DeriveDropsEdge,
        /// `PartitionPlus::keyblock_cover` leaves the last keyblock's
        /// last dealing unit, the one clipped at the space's edge, out
        /// of its cover.
        ShortLastCover,
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
