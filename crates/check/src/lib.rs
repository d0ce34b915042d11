//! # sidr-check — deterministic concurrency checking for the SIDR runtime
//!
//! A loom-style checker that works in this offline workspace. It has
//! three layers:
//!
//! 1. **[`sync`]** — drop-in Mutex/Condvar/atomic/thread/clock
//!    primitives. Outside an exploration they behave exactly like the
//!    std-backed parking_lot shim; inside one, every operation is a
//!    yield point of a cooperative virtual scheduler, and time is
//!    virtual: it advances only when nothing can run. `sidr-mapreduce::sync`
//!    re-exports these under `--cfg check`, so the *production* runtime
//!    code runs unmodified under the checker.
//! 2. **[`Explorer`]** — drives a scenario body through many schedules:
//!    bounded-exhaustive DFS for small scenarios, seeded-random
//!    otherwise. Every failure prints a [`ScheduleRef`] (seed or
//!    decision trace) that replays the exact interleaving and times.
//! 3. **Findings** — what the scheduler detects along the way:
//!    * [`Finding::Deadlock`]: every vthread blocked on a mutex or a
//!      join, no timer pending.
//!    * [`Finding::LostWakeup`]: nothing can run, no timer is pending,
//!      and a vthread is parked on a condvar. The runtime's waits have
//!      no safety tick in any build, so a missed notification is a
//!      hang here, as in production — a finding, not a pass.
//!    * [`Finding::Race`]: two [`sync::RaceCell`] accesses with no
//!      happens-before edge (vector clocks over lock/unlock,
//!      notify/wait, acquire/release atomics, spawn/join).
//!    * [`Finding::SelfDeadlock`], [`Finding::Panic`],
//!      [`Finding::StepLimit`].
//!
//! ## Quickstart
//!
//! ```
//! use sidr_check::{Explorer, Strategy};
//! use sidr_check::sync::{Mutex, RaceCell};
//! use sidr_check::sync::thread;
//! use std::sync::Arc;
//!
//! let report = Explorer::new("counter").run(
//!     Strategy::Exhaustive { max_schedules: 1_000 },
//!     || {
//!         let n = Arc::new(Mutex::new(0u32));
//!         thread::scope(|s| {
//!             for _ in 0..2 {
//!                 let n = Arc::clone(&n);
//!                 s.spawn(move || *n.lock() += 1);
//!             }
//!         });
//!         assert_eq!(*n.lock(), 2);
//!     },
//! );
//! report.assert_clean();
//! assert!(report.complete);
//! ```
//!
//! The runtime scenarios live in this crate's `tests/` directory and
//! are gated on `--cfg check`:
//!
//! ```text
//! RUSTFLAGS='--cfg check' cargo test -p sidr-check --release
//! ```

pub mod clock;
mod explore;
mod report;
mod sched;
pub mod sync;

pub use explore::{check, Explorer, Strategy};
pub use report::{BlockInfo, FailedSchedule, Finding, FindingKind, Report, ScheduleRef};

/// A draw among `options` alternatives (`0..options`) by the explored
/// code itself — a scenario's seeded fault plan, say. It comes from the
/// same decider as the schedule and is recorded with it, so a printed
/// [`ScheduleRef`] replays the draws along with the interleaving and
/// its virtual timestamps. Outside an exploration it is always 0.
pub fn choose(options: usize) -> usize {
    sched::current().map_or(0, |c| c.sched.draw(options))
}
