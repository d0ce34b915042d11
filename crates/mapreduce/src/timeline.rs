//! A job's record: its events, the raw material of the paper's
//! Figures 9–13 (task completion over time), attempt-stamped so
//! retries and recovery re-executions are distinguishable, and the
//! counters no event carries. The coordinator loop writes both and
//! returns them as one [`JobResult`].

use crate::counters::CountersSnapshot;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// What happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TaskKind {
    MapStart,
    MapEnd,
    /// A map attempt failed (source error or injected fault); the
    /// runtime will retry it unless the budget is exhausted.
    MapFailed,
    /// A failed map was handed back to the eligible set for its next
    /// attempt (the event's attempt id is the *new* attempt).
    MapRetry,
    /// Reduce task occupied a slot and began its copy phase.
    ReduceStart,
    /// All of the reduce task's fetch sources had completed and been
    /// fetched — its barrier (global or dependency-based) was met.
    ReduceBarrierMet,
    /// The streaming merge consumed its last key group.
    ReduceMergeDone,
    /// Reduce output committed (a correct partial result is now
    /// available, §3.4).
    ReduceEnd,
    /// Injected reduce failure (recovery experiments).
    ReduceFailed,
    /// A speculative twin was granted for a running map; the event's
    /// attempt id is the attempt the twin will run as. Speculation is
    /// not recovery: the granted `MapStart` must not be counted as a
    /// re-execution.
    MapSpeculated,
    /// A map attempt (either racer) lost the first-commit-wins race;
    /// its output is never bound to a reducer.
    MapSpeculationLost,
    /// Recovery re-opened a committed map whose output a reducer lost
    /// (a volatile reduce failure, or a lost-sources report): the
    /// event's attempt id is the lost generation. The map's next
    /// `MapStart` is its re-execution.
    MapLost,
}

/// One timeline event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskEvent {
    pub kind: TaskKind,
    /// Map task id or reducer id, per kind.
    pub task: usize,
    /// Which execution of the task this belongs to: 0 for the first
    /// attempt, counting up across retries and recovery
    /// re-executions.
    pub attempt: u32,
    /// Time since job start.
    pub at: Duration,
}

/// A completed job's record, as its coordinator loop returns it: what
/// the engine, the fleet, the simulator and every experiment read.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// What no event carries: record tallies, connections, skips.
    pub counters: CountersSnapshot,
    /// Every event, stamped on the cluster's clock and sorted by time;
    /// it passed the plan's protocol oracle.
    pub events: Vec<TaskEvent>,
    /// The last committed reduce output: total query time.
    pub elapsed: Duration,
}

impl JobResult {
    /// Time of the first committed reduce output.
    pub fn first_result(&self) -> Option<Duration> {
        self.times(TaskKind::ReduceEnd).min()
    }

    /// Sorted times of one event kind.
    pub fn completions(&self, kind: TaskKind) -> Vec<Duration> {
        self.times(kind).collect()
    }

    /// How many events of one kind the job recorded: `MapFailed`
    /// counts failed map attempts, `MapLost` recovery's re-executions.
    pub fn count(&self, kind: TaskKind) -> u64 {
        self.times(kind).count() as u64
    }

    /// Fraction of the job's maps complete when the first result
    /// committed — the paper's "initial results with only 6 % of the
    /// query completed" (§4.1): the distinct maps committed by then,
    /// over the job's maps (every committed one, plus the skipped).
    pub fn maps_done_at_first_result(&self) -> Option<f64> {
        let first = self.first_result()?;
        let mut ends: Vec<(usize, Duration)> = (self.events.iter())
            .filter(|e| e.kind == TaskKind::MapEnd)
            .map(|e| (e.task, e.at))
            .collect();
        // Each map's earliest commit is its first after sorting.
        ends.sort_unstable();
        ends.dedup_by_key(|&mut (task, _)| task);
        let done = ends.iter().filter(|&&(_, at)| at <= first).count();
        let total = ends.len() + self.counters.maps_skipped as usize;
        (total > 0).then(|| done as f64 / total as f64)
    }

    fn times(&self, kind: TaskKind) -> impl Iterator<Item = Duration> + '_ {
        self.events
            .iter()
            .filter(move |e| e.kind == kind)
            .map(|e| e.at)
    }
}

/// The maps recovery re-opened — the tasks of the `MapLost` events,
/// sorted and deduplicated: the re-executed set a recovery experiment
/// asserts against `I_ℓ` (dependency-scoped recovery must re-run
/// exactly the lost sources, nothing more). A retry after a failed
/// attempt and a speculative twin are not re-executions.
pub fn reexecuted_maps(events: &[TaskEvent]) -> Vec<usize> {
    let mut maps: Vec<usize> = (events.iter())
        .filter(|e| e.kind == TaskKind::MapLost)
        .map(|e| e.task)
        .collect();
    maps.sort_unstable();
    maps.dedup();
    maps
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: TaskKind, task: usize, attempt: u32, ms: u64) -> TaskEvent {
        TaskEvent {
            kind,
            task,
            attempt,
            at: Duration::from_millis(ms),
        }
    }

    #[test]
    fn events_roundtrip_with_attempt_stamp() {
        let e = ev(TaskKind::MapRetry, 4, 2, 9);
        let json = serde_json::to_string(&e).unwrap();
        let back: TaskEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
    }

    /// Only `MapLost` marks a re-execution: map 1's retry after a
    /// failure and map 2's speculative twin do not count; map 3, lost
    /// twice, counts once.
    #[test]
    fn reexecuted_maps_are_the_lost_ones() {
        let events = vec![
            ev(TaskKind::MapStart, 1, 0, 0),
            ev(TaskKind::MapFailed, 1, 0, 1),
            ev(TaskKind::MapRetry, 1, 1, 2),
            ev(TaskKind::MapStart, 1, 1, 3),
            ev(TaskKind::MapEnd, 1, 1, 4),
            ev(TaskKind::MapStart, 2, 0, 0),
            ev(TaskKind::MapSpeculated, 2, 1, 5),
            ev(TaskKind::MapStart, 2, 1, 6),
            ev(TaskKind::MapEnd, 2, 1, 8),
            ev(TaskKind::MapSpeculationLost, 2, 0, 9),
            ev(TaskKind::MapStart, 3, 0, 0),
            ev(TaskKind::MapEnd, 3, 0, 1),
            ev(TaskKind::MapLost, 3, 0, 2),
            ev(TaskKind::MapStart, 3, 1, 3),
            ev(TaskKind::MapEnd, 3, 1, 4),
            ev(TaskKind::MapLost, 3, 1, 5),
            ev(TaskKind::MapStart, 3, 2, 6),
            ev(TaskKind::MapEnd, 3, 2, 7),
        ];
        assert_eq!(reexecuted_maps(&events), vec![3]);
    }

    fn result(events: Vec<TaskEvent>, maps_skipped: u64) -> JobResult {
        JobResult {
            counters: CountersSnapshot {
                maps_skipped,
                ..CountersSnapshot::default()
            },
            events,
            elapsed: Duration::ZERO,
        }
    }

    #[test]
    fn first_result_and_fraction() {
        let ms = Duration::from_millis;
        let r = result(
            vec![
                ev(TaskKind::MapEnd, 0, 0, 1),
                ev(TaskKind::ReduceEnd, 0, 0, 2),
                ev(TaskKind::MapEnd, 1, 0, 3),
            ],
            0,
        );
        assert_eq!(r.first_result(), Some(ms(2)));
        let frac = r.maps_done_at_first_result().unwrap();
        assert!((frac - 0.5).abs() < 1e-9, "frac {frac}");
        assert_eq!(r.completions(TaskKind::MapEnd), vec![ms(1), ms(3)]);
        assert_eq!(r.count(TaskKind::MapEnd), 2);
    }

    /// The §4.1 fraction is over the job's maps: map 0's re-execution
    /// is one map, not two commits, and the skipped map 3 is one of
    /// the four (counting `MapEnd`s would give 3 of 4).
    #[test]
    fn fraction_counts_each_map_once_and_the_skipped_too() {
        let r = result(
            vec![
                ev(TaskKind::MapEnd, 0, 0, 1),
                ev(TaskKind::MapEnd, 1, 0, 2),
                ev(TaskKind::MapLost, 0, 0, 2),
                ev(TaskKind::MapEnd, 0, 1, 3),
                ev(TaskKind::ReduceEnd, 0, 0, 4),
                ev(TaskKind::MapEnd, 2, 0, 6),
            ],
            1,
        );
        assert_eq!(r.maps_done_at_first_result(), Some(0.5));
        assert_eq!(r.count(TaskKind::MapLost), 1);
    }

    #[test]
    fn empty_job_has_no_result() {
        let r = result(Vec::new(), 0);
        assert_eq!(r.first_result(), None);
        assert_eq!(r.maps_done_at_first_result(), None);
    }
}
