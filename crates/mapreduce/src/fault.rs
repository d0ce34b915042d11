//! Deterministic fault injection and retry policy.
//!
//! The paper leaves fault tolerance as motivated future work: SIDR's
//! dependency sets `I_ℓ` bound the blast radius of a failure, because
//! a lost map output only matters to the keyblocks whose `I_ℓ`
//! contains that split (§3.2/§3.4, §6). Exercising that claim needs
//! failures on demand, so the runtime takes a [`FaultPlan`]: a seeded,
//! fully deterministic script of which task *attempts* misbehave and
//! how. Replaying a plan replays the exact same failure sequence,
//! which is what lets the recovery tests assert byte-identical output
//! against a fault-free run.
//!
//! The two injected failure axes follow the related work: per-task
//! stragglers / heterogeneous inputs ("Assignment Problems of
//! Different-Sized Inputs in MapReduce") and corrupted or truncated
//! intermediate files caught by checksum validation ("Only Aggressive
//! Elephants are Fast Elephants").

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Which task an injected fault targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultTarget {
    /// A Map task, by map task id.
    Map(usize),
    /// A Reduce task, by reducer id.
    Reduce(usize),
}

/// What goes wrong when a fault fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The attempt fails outright before doing any work.
    Fail,
    /// The task's [`RecordSource`](crate::task::RecordSource) returns
    /// a transient I/O error after yielding this many records
    /// (map tasks only; on a reduce target this acts like [`Fail`]).
    ///
    /// [`Fail`]: FaultKind::Fail
    SourceError { after_records: u64 },
    /// The map's committed output files are bit-flipped after commit,
    /// so the corruption is only discovered when a reduce fetches and
    /// the CRC check fails (map targets only).
    CorruptOutput,
    /// The map's committed output files are truncated mid-payload
    /// (map targets only). Detected exactly like [`CorruptOutput`]:
    /// the CRC covers the full payload.
    ///
    /// [`CorruptOutput`]: FaultKind::CorruptOutput
    TruncateOutput,
    /// The attempt is slowed by this long — a straggler. The attempt
    /// still succeeds.
    Straggle { delay_ms: u64 },
    /// The spill tier's write for this map's partitions fails as if
    /// the disk were full (ENOSPC). The partition stays resident —
    /// the store degrades to over-budget operation with a pressure
    /// advisory rather than losing data (map targets only).
    SpillWriteFail,
    /// The on-disk spill copy of this map's partitions is bit-flipped
    /// after the spill write commits, so the damage is only discovered
    /// when a fetch reads it back and the CRC check fails; recovery
    /// then routes through the `I_ℓ`-scoped re-execution path exactly
    /// like [`CorruptOutput`] (map targets only).
    ///
    /// [`CorruptOutput`]: FaultKind::CorruptOutput
    SpillReadCorrupt,
    /// Like [`SpillReadCorrupt`] but the spill file is truncated
    /// mid-payload instead of bit-flipped (map targets only).
    ///
    /// [`SpillReadCorrupt`]: FaultKind::SpillReadCorrupt
    SpillReadTruncate,
}

/// One scripted fault: fires when `target` runs its `attempt`-th
/// execution (attempt ids start at 0 and count every launch of the
/// task, including recovery re-executions).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fault {
    pub target: FaultTarget,
    pub attempt: u32,
    pub kind: FaultKind,
}

/// A deterministic script of injected faults for one job.
///
/// The plan is plain data (and serializable), so it can ride a
/// serving-layer submission for chaos testing. An empty plan injects
/// nothing and is the default.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed the plan was generated from (0 for hand-written plans);
    /// carried along so a failing run can be reproduced from its
    /// config alone.
    pub seed: u64,
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Adds one fault (builder-style).
    pub fn with(mut self, target: FaultTarget, attempt: u32, kind: FaultKind) -> Self {
        self.faults.push(Fault {
            target,
            attempt,
            kind,
        });
        self
    }

    /// The classic recovery-experiment hook: each listed reducer's
    /// first attempt fails after its barrier. Subsumes the old
    /// `fail_reducers` job-config field.
    pub fn fail_reducers_first_attempt(reducers: impl IntoIterator<Item = usize>) -> Self {
        let mut plan = FaultPlan::default();
        for r in reducers {
            plan.faults.push(Fault {
                target: FaultTarget::Reduce(r),
                attempt: 0,
                kind: FaultKind::Fail,
            });
        }
        plan
    }

    /// Each listed map's first attempt straggles by `delay_ms` — the
    /// one way to slow a task, e.g. to keep a job in flight
    /// (`sidr-submit --straggle`).
    pub fn straggle_maps(maps: impl IntoIterator<Item = usize>, delay_ms: u64) -> Self {
        maps.into_iter().fold(FaultPlan::default(), |plan, m| {
            plan.with(FaultTarget::Map(m), 0, FaultKind::Straggle { delay_ms })
        })
    }

    /// The fault scripted for map `task`'s `attempt`, if any.
    pub fn map_fault(&self, task: usize, attempt: u32) -> Option<FaultKind> {
        self.faults
            .iter()
            .find(|f| f.target == FaultTarget::Map(task) && f.attempt == attempt)
            .map(|f| f.kind)
    }

    /// The fault scripted for reducer `r`'s `attempt`, if any.
    pub fn reduce_fault(&self, r: usize, attempt: u32) -> Option<FaultKind> {
        self.faults
            .iter()
            .find(|f| f.target == FaultTarget::Reduce(r) && f.attempt == attempt)
            .map(|f| f.kind)
    }

    /// Generates a random recoverable plan: up to `max_faults` faults,
    /// at most one per task, all on attempt 0, drawn from the full
    /// fault matrix (map fail / transient source error / corrupt or
    /// truncated output / straggler; reduce fail / straggler). Every
    /// generated fault is recoverable within a retry budget of ≥ 2
    /// attempts, which is what the recovery property test relies on.
    pub fn random(seed: u64, num_maps: usize, num_reducers: usize, max_faults: usize) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut plan = FaultPlan {
            seed,
            faults: Vec::new(),
        };
        if num_maps == 0 || num_reducers == 0 {
            return plan;
        }
        let n = 1 + (rng.next() as usize) % max_faults.max(1);
        for _ in 0..n {
            let target = if rng.next().is_multiple_of(3) {
                FaultTarget::Reduce((rng.next() as usize) % num_reducers)
            } else {
                FaultTarget::Map((rng.next() as usize) % num_maps)
            };
            if plan.faults.iter().any(|f| f.target == target) {
                continue; // one fault per task keeps the plan recoverable
            }
            let kind = match target {
                FaultTarget::Map(_) => match rng.next() % 5 {
                    0 => FaultKind::Fail,
                    1 => FaultKind::SourceError {
                        after_records: rng.next() % 4,
                    },
                    2 => FaultKind::CorruptOutput,
                    3 => FaultKind::TruncateOutput,
                    _ => FaultKind::Straggle {
                        delay_ms: 1 + rng.next() % 20,
                    },
                },
                FaultTarget::Reduce(_) => match rng.next() % 2 {
                    0 => FaultKind::Fail,
                    _ => FaultKind::Straggle {
                        delay_ms: 1 + rng.next() % 20,
                    },
                },
            };
            plan.faults.push(Fault {
                target,
                attempt: 0,
                kind,
            });
        }
        plan
    }
}

/// Bounded-retry policy with deterministic exponential backoff.
///
/// `max_task_attempts` counts every execution of a task, so 3 means
/// one launch plus at most two retries; the job fails with
/// [`MrError::TaskFailed`](crate::error::MrError::TaskFailed) only
/// when a task exhausts its budget. Backoff before the k-th retry is
/// `backoff_ms × 2^(k−1)`, capped at 10 s — deterministic, so a
/// replayed fault plan replays the same schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    pub max_task_attempts: u32,
    pub backoff_ms: u64,
}

fn default_attempts() -> u32 {
    3
}

fn default_backoff_ms() -> u64 {
    10
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_task_attempts: default_attempts(),
            backoff_ms: default_backoff_ms(),
        }
    }
}

impl RetryPolicy {
    /// Backoff to sleep before retrying after `failures` failed
    /// attempts (≥ 1).
    pub fn backoff(&self, failures: u32) -> Duration {
        let exp = failures.saturating_sub(1).min(20);
        let ms = self.backoff_ms.saturating_mul(1u64 << exp).min(10_000);
        Duration::from_millis(ms)
    }
}

/// The splitmix64 generator: tiny, seedable, good enough to scatter
/// faults over a task grid.
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64(seed.wrapping_add(0x9E37_79B9_7F4A_7C15))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_matches_target_and_attempt() {
        let plan = FaultPlan::none()
            .with(FaultTarget::Map(3), 0, FaultKind::Fail)
            .with(
                FaultTarget::Reduce(1),
                1,
                FaultKind::Straggle { delay_ms: 5 },
            );
        assert_eq!(plan.map_fault(3, 0), Some(FaultKind::Fail));
        assert_eq!(plan.map_fault(3, 1), None);
        assert_eq!(plan.map_fault(2, 0), None);
        assert_eq!(
            plan.reduce_fault(1, 1),
            Some(FaultKind::Straggle { delay_ms: 5 })
        );
        assert_eq!(plan.reduce_fault(1, 0), None);
    }

    #[test]
    fn fail_reducers_compat_hook() {
        let plan = FaultPlan::fail_reducers_first_attempt([2, 5]);
        assert_eq!(plan.reduce_fault(2, 0), Some(FaultKind::Fail));
        assert_eq!(plan.reduce_fault(5, 0), Some(FaultKind::Fail));
        assert_eq!(plan.reduce_fault(2, 1), None);
        assert_eq!(plan.map_fault(2, 0), None);
    }

    #[test]
    fn random_plans_are_deterministic_and_bounded() {
        let a = FaultPlan::random(42, 10, 4, 3);
        let b = FaultPlan::random(42, 10, 4, 3);
        assert_eq!(a, b, "same seed, same plan");
        assert!(!a.is_empty() && a.faults.len() <= 3);
        // One fault per task, all on attempt 0 (recoverable in 2 tries).
        for (i, f) in a.faults.iter().enumerate() {
            assert_eq!(f.attempt, 0);
            assert!(a.faults[..i].iter().all(|g| g.target != f.target));
        }
        let c = FaultPlan::random(43, 10, 4, 3);
        assert_ne!(a, c, "different seeds diverge");
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_task_attempts: 5,
            backoff_ms: 10,
        };
        assert_eq!(p.backoff(1), Duration::from_millis(10));
        assert_eq!(p.backoff(2), Duration::from_millis(20));
        assert_eq!(p.backoff(3), Duration::from_millis(40));
        assert_eq!(p.backoff(60), Duration::from_millis(10_000), "capped");
    }

    #[test]
    fn spill_faults_ride_a_plan() {
        let plan = FaultPlan::none()
            .with(FaultTarget::Map(2), 0, FaultKind::SpillWriteFail)
            .with(FaultTarget::Map(4), 0, FaultKind::SpillReadCorrupt)
            .with(FaultTarget::Map(5), 0, FaultKind::SpillReadTruncate);
        assert_eq!(plan.map_fault(2, 0), Some(FaultKind::SpillWriteFail));
        assert_eq!(plan.map_fault(4, 0), Some(FaultKind::SpillReadCorrupt));
        assert_eq!(plan.map_fault(5, 0), Some(FaultKind::SpillReadTruncate));
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn plan_roundtrips_through_json() {
        let plan = FaultPlan::random(7, 8, 3, 4);
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
    }
}
