//! The runtime's synchronization facade.
//!
//! Every Mutex/Condvar/atomic/thread primitive the engine's concurrency
//! core uses ([`runtime`](crate::runtime), [`executor`](crate::executor),
//! [`tier`](crate::tier)) is imported from here instead of `parking_lot` / `std` directly. In
//! a normal build the re-exports *are* those types — zero overhead. In
//! a checker build (`RUSTFLAGS='--cfg check'`) they are the
//! [`sidr_check::sync`] virtual primitives, so the production code runs
//! unmodified under deterministic schedule exploration with
//! happens-before tracking.
//!
//! `check` is a rustc `--cfg`, not a cargo feature, deliberately:
//! feature unification could silently turn the checker on for every
//! dependent of this crate, whereas a RUSTFLAGS cfg rebuilds the whole
//! graph explicitly and can never leak into normal builds.
//!
//! [`chaos`] is the third face of the facade: seeded mutation hooks
//! that let the checker's mutation tests re-introduce classic
//! concurrency bugs (a dropped notify, a widened critical section, a
//! skipped recovery re-wait) and prove the checker catches each one.
//! In normal builds every hook is a `const false` the optimizer
//! deletes.

#[cfg(not(check))]
pub use parking_lot::{Condvar, Mutex, MutexGuard, WaitTimeoutResult};
#[cfg(check)]
pub use sidr_check::sync::{Condvar, Mutex, MutexGuard, WaitTimeoutResult};

/// Atomic types used by the concurrency core. Under `--cfg check`
/// these are virtual: every access is a scheduler yield point and
/// acquire/release orderings induce happens-before edges.
pub mod atomic {
    #[cfg(check)]
    pub use sidr_check::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    #[cfg(not(check))]
    pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
}

/// Scoped threads and sleeps. Under `--cfg check`, `scope`/`spawn`
/// create cooperatively scheduled vthreads and `sleep` is just a yield
/// point (virtual time, no wall-clock delay).
pub mod thread {
    #[cfg(check)]
    pub use sidr_check::sync::thread::{scope, sleep};
    #[cfg(not(check))]
    pub use std::thread::{scope, sleep};
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
        /// make progress only via the timed-wait safety net.
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
        /// never woken and progress only via the timed-wait safety
        /// net.
        DropTierMoveNotify,
    }

    /// Whether `m` is armed. Always `false` outside checker builds.
    #[cfg(not(check))]
    #[inline(always)]
    pub fn on(_m: Mutation) -> bool {
        false
    }

    #[cfg(check)]
    static ARMED: std::sync::atomic::AtomicU8 = std::sync::atomic::AtomicU8::new(0);

    #[cfg(check)]
    fn code(m: Mutation) -> u8 {
        match m {
            Mutation::DropSemReleaseNotify => 1,
            Mutation::DropMapDoneNotify => 2,
            Mutation::HoldStateAcrossAcquire => 3,
            Mutation::SkipRecoveryRewait => 4,
            Mutation::DropTierMoveNotify => 6,
        }
    }

    /// Whether `m` is armed.
    #[cfg(check)]
    #[inline]
    pub fn on(m: Mutation) -> bool {
        ARMED.load(std::sync::atomic::Ordering::Relaxed) == code(m)
    }

    /// Arms `m` for the lifetime of the returned guard. The flag is
    /// process-global: tests that arm mutations must serialize.
    #[cfg(check)]
    pub fn arm(m: Mutation) -> Armed {
        ARMED.store(code(m), std::sync::atomic::Ordering::SeqCst);
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
