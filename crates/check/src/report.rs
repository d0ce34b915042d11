//! Findings and exploration reports.

use std::collections::BTreeMap;
use std::fmt;

/// What a virtual thread was blocked on when an execution got stuck.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BlockInfo {
    /// Waiting to acquire the mutex at this object id.
    Mutex(usize),
    /// Waiting on the condvar at `cv`, will re-acquire `lock`.
    Condvar { cv: usize, lock: usize },
    /// Waiting for scoped children to finish.
    Join,
}

impl fmt::Display for BlockInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockInfo::Mutex(m) => write!(f, "mutex #{m:x}"),
            BlockInfo::Condvar { cv, lock } => write!(f, "condvar #{cv:x} (lock #{lock:x})"),
            BlockInfo::Join => write!(f, "join"),
        }
    }
}

fn write_blocked(f: &mut fmt::Formatter<'_>, threads: &BTreeMap<usize, BlockInfo>) -> fmt::Result {
    for (i, (tid, info)) in threads.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(f, "{sep}t{tid} blocked on {info}")?;
    }
    Ok(())
}

/// A defect observed in one explored schedule.
#[derive(Clone, Debug)]
pub enum Finding {
    /// Every virtual thread is blocked on a mutex or a join, and no
    /// timer is pending. `threads` maps virtual-thread id to what it is
    /// blocked on.
    Deadlock { threads: BTreeMap<usize, BlockInfo> },
    /// A thread tried to re-acquire a mutex it already holds.
    SelfDeadlock { thread: usize, mutex: usize },
    /// Nothing can run, no timer is pending, and some thread is parked
    /// on a condvar: the notification it needed never came. Under the
    /// real clock this is the 25 ms safety tick pumping a stalled job.
    LostWakeup { threads: BTreeMap<usize, BlockInfo> },
    /// Two accesses to the same `RaceCell` without a happens-before
    /// edge between them.
    Race {
        cell: &'static str,
        first_thread: usize,
        second_thread: usize,
        second_is_write: bool,
    },
    /// A virtual thread panicked (assertion/oracle failure inside the
    /// scenario body counts as this).
    Panic { thread: usize, message: String },
    /// The execution exceeded the per-schedule step budget (livelock or
    /// an unbounded spin under the virtual scheduler).
    StepLimit { steps: u64 },
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Finding::Deadlock { threads } => {
                write!(f, "deadlock: ")?;
                write_blocked(f, threads)
            }
            Finding::SelfDeadlock { thread, mutex } => {
                write!(f, "self-deadlock: t{thread} re-locks mutex #{mutex:x} it already holds")
            }
            Finding::LostWakeup { threads } => {
                write!(f, "lost wakeup, nothing can run and no timer is pending: ")?;
                write_blocked(f, threads)
            }
            Finding::Race {
                cell,
                first_thread,
                second_thread,
                second_is_write,
            } => write!(
                f,
                "data race on `{cell}`: t{first_thread} vs t{second_thread} ({}) with no happens-before edge",
                if *second_is_write { "write" } else { "read" }
            ),
            Finding::Panic { thread, message } => {
                write!(f, "panic on t{thread}: {message}")
            }
            Finding::StepLimit { steps } => {
                write!(f, "step limit exceeded after {steps} steps (livelock?)")
            }
        }
    }
}

impl Finding {
    /// Coarse classification used by assertions in tests.
    pub fn kind(&self) -> FindingKind {
        match self {
            Finding::Deadlock { .. } | Finding::SelfDeadlock { .. } => FindingKind::Deadlock,
            Finding::LostWakeup { .. } => FindingKind::LostWakeup,
            Finding::Race { .. } => FindingKind::Race,
            Finding::Panic { .. } => FindingKind::Panic,
            Finding::StepLimit { .. } => FindingKind::StepLimit,
        }
    }
}

/// Coarse finding class, for `Report::has`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FindingKind {
    /// Deadlock or self-deadlock.
    Deadlock,
    /// A condvar waiter nobody will notify.
    LostWakeup,
    /// Happens-before race.
    Race,
    /// Panic inside the scenario.
    Panic,
    /// Step budget exhausted.
    StepLimit,
}

/// How to reproduce a failing schedule.
#[derive(Clone, Debug)]
pub enum ScheduleRef {
    /// Replay with `Strategy::ReplaySeed(seed)` — the per-execution seed
    /// derived from the base seed, printed on failure.
    Seed(u64),
    /// Replay with `Strategy::ReplayTrace(trace)` — hex-encoded decision
    /// trace from an exhaustive (DFS) exploration.
    Trace(String),
}

impl fmt::Display for ScheduleRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleRef::Seed(s) => write!(f, "seed {s:#018x}"),
            ScheduleRef::Trace(t) => write!(f, "trace {t}"),
        }
    }
}

/// One failing schedule and everything observed in it.
#[derive(Clone, Debug)]
pub struct FailedSchedule {
    /// How to replay this exact schedule.
    pub schedule: ScheduleRef,
    /// Findings observed during it.
    pub findings: Vec<Finding>,
}

/// Summary of one exploration run.
#[derive(Debug, Default)]
pub struct Report {
    /// Scenario name (for messages).
    pub name: String,
    /// Executions performed.
    pub schedules: usize,
    /// Distinct decision traces among them.
    pub distinct: usize,
    /// True when a bounded-exhaustive exploration covered the whole
    /// schedule space within its budget.
    pub complete: bool,
    /// Failing schedules (capped; exploration stops once enough failures
    /// are in hand).
    pub failures: Vec<FailedSchedule>,
    /// Total yield-point steps across all executions.
    pub total_steps: u64,
}

impl Report {
    /// True if any failing schedule contains a finding of `kind`.
    pub fn has(&self, kind: FindingKind) -> bool {
        self.failures
            .iter()
            .any(|f| f.findings.iter().any(|x| x.kind() == kind))
    }

    /// Panic with a replayable description unless the exploration was
    /// clean.
    pub fn assert_clean(&self) {
        if self.failures.is_empty() {
            return;
        }
        let mut msg = format!(
            "sidr-check: scenario `{}` failed in {}/{} schedules ({} distinct explored):\n",
            self.name,
            self.failures.len(),
            self.schedules,
            self.distinct
        );
        for fail in &self.failures {
            msg.push_str(&format!("  [{}]\n", fail.schedule));
            for finding in &fail.findings {
                msg.push_str(&format!("    - {finding}\n"));
            }
        }
        panic!("{msg}");
    }

    /// Panic unless a finding of `kind` was observed (used by the seeded
    /// mutation tests to prove the checker has teeth).
    pub fn assert_finds(&self, kind: FindingKind) {
        assert!(
            self.has(kind),
            "sidr-check: scenario `{}` explored {} schedules ({} distinct) without hitting an expected {:?} finding",
            self.name,
            self.schedules,
            self.distinct,
            kind
        );
    }
}
