//! Task timelines: the raw material of the paper's Figures 9–13
//! (task completion over time), attempt-stamped so retries and
//! recovery re-executions are distinguishable in the event stream.

use crate::counters::CountersSnapshot;
use crate::sync::time::now;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

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

/// Thread-safe event recorder.
pub struct Timeline {
    start: Instant,
    events: Mutex<Vec<TaskEvent>>,
}

impl Default for Timeline {
    fn default() -> Self {
        Self::new()
    }
}

impl Timeline {
    pub fn new() -> Self {
        Timeline {
            start: now(),
            events: Mutex::new(Vec::new()),
        }
    }

    /// Time since job start: the clock every event is stamped with.
    pub(crate) fn elapsed(&self) -> Duration {
        now() - self.start
    }

    /// The instant the job started: `elapsed` counts from here.
    pub(crate) fn origin(&self) -> Instant {
        self.start
    }

    /// Records an event now, stamped with the task attempt it belongs
    /// to.
    pub fn record_attempt(&self, kind: TaskKind, task: usize, attempt: u32) {
        self.record_at(kind, task, attempt, self.elapsed());
    }

    /// Records an event at `at` after job start on the caller's clock —
    /// the coordinator loop's, which is virtual in the simulator.
    pub fn record_at(&self, kind: TaskKind, task: usize, attempt: u32, at: Duration) {
        self.events.lock().push(TaskEvent {
            kind,
            task,
            attempt,
            at,
        });
    }

    /// All events, sorted by time.
    pub fn events(&self) -> Vec<TaskEvent> {
        let mut evs = self.events.lock().clone();
        evs.sort_by_key(|e| e.at);
        evs
    }

    /// Time of the last committed reduce output — total query time.
    pub fn job_end(&self) -> Option<Duration> {
        self.events
            .lock()
            .iter()
            .filter(|e| e.kind == TaskKind::ReduceEnd)
            .map(|e| e.at)
            .max()
    }
}

/// Outcome of a completed job.
#[derive(Clone, Debug)]
pub struct JobResult {
    pub counters: CountersSnapshot,
    pub events: Vec<TaskEvent>,
    pub elapsed: Duration,
}

impl JobResult {
    /// Time of the first committed reduce output. Scans for the
    /// minimum — no allocation, no sort (experiments call this in
    /// loops).
    pub fn first_result(&self) -> Option<Duration> {
        self.times(TaskKind::ReduceEnd).min()
    }

    /// Sorted completion times of one event kind.
    pub fn completions(&self, kind: TaskKind) -> Vec<Duration> {
        let mut t: Vec<Duration> = self.times(kind).collect();
        // `events` is time-sorted, so the filtered view almost always
        // already is too; sort only if recording raced out of order.
        if !t.is_sorted() {
            t.sort_unstable();
        }
        t
    }

    /// Fraction of Map tasks complete when the first result committed.
    pub fn maps_done_at_first_result(&self) -> Option<f64> {
        let first = self.first_result()?;
        let (done, total) = self
            .times(TaskKind::MapEnd)
            .fold((0usize, 0usize), |(done, total), t| {
                (done + usize::from(t <= first), total + 1)
            });
        if total == 0 {
            return None;
        }
        Some(done as f64 / total as f64)
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

/// Converts a job's event stream into named trace spans:
///
/// | span           | start            | end               |
/// |----------------|------------------|-------------------|
/// | `map`          | `MapStart`       | `MapEnd`          |
/// | `map.failed`   | `MapStart`       | `MapFailed`       |
/// | `reduce`       | `ReduceStart`    | `ReduceEnd`       |
/// | `reduce.copy`  | `ReduceStart`    | `ReduceBarrierMet`|
/// | `reduce.merge` | `ReduceBarrierMet`| `ReduceMergeDone`|
///
/// Every span is stamped with the attempt id of the execution it
/// belongs to, so a retried map shows as a `map.failed` span
/// (attempt 0) followed by a `map` span (attempt 1). A retried reduce
/// emits one `reduce.copy` / `reduce.merge` span per attempt, all
/// sharing the task's single `ReduceStart`. Unfinished tasks (failed
/// or cancelled jobs) emit no span; a speculation-race loser emits a
/// `map.lost` span. Map spans are keyed by (task, attempt) so two
/// racing attempts of one task never collide. Feed the result to
/// [`sidr_obs::write_spans_jsonl`].
pub fn spans(events: &[TaskEvent]) -> Vec<sidr_obs::Span> {
    use std::collections::HashMap;
    let us = |d: Duration| d.as_micros() as u64;
    let mut map_start: HashMap<(usize, u32), u64> = HashMap::new();
    let mut reduce_start: HashMap<usize, u64> = HashMap::new();
    let mut barrier: HashMap<usize, (u64, u32)> = HashMap::new();
    let mut out = Vec::new();
    for e in events {
        let t = e.task as u64;
        match e.kind {
            TaskKind::MapStart => {
                map_start.insert((e.task, e.attempt), us(e.at));
            }
            TaskKind::MapEnd => {
                if let Some(s) = map_start.remove(&(e.task, e.attempt)) {
                    out.push(sidr_obs::Span::new("map", t, s, us(e.at)).with_attempt(e.attempt));
                }
            }
            TaskKind::MapFailed => {
                if let Some(s) = map_start.remove(&(e.task, e.attempt)) {
                    out.push(
                        sidr_obs::Span::new("map.failed", t, s, us(e.at)).with_attempt(e.attempt),
                    );
                }
            }
            TaskKind::MapSpeculationLost => {
                if let Some(s) = map_start.remove(&(e.task, e.attempt)) {
                    out.push(
                        sidr_obs::Span::new("map.lost", t, s, us(e.at)).with_attempt(e.attempt),
                    );
                }
            }
            TaskKind::ReduceStart => {
                reduce_start.insert(e.task, us(e.at));
            }
            TaskKind::ReduceBarrierMet => {
                if let Some(&s) = reduce_start.get(&e.task) {
                    out.push(
                        sidr_obs::Span::new("reduce.copy", t, s, us(e.at)).with_attempt(e.attempt),
                    );
                }
                barrier.insert(e.task, (us(e.at), e.attempt));
            }
            TaskKind::ReduceMergeDone => {
                if let Some((s, attempt)) = barrier.remove(&e.task) {
                    out.push(
                        sidr_obs::Span::new("reduce.merge", t, s, us(e.at)).with_attempt(attempt),
                    );
                }
            }
            TaskKind::ReduceEnd => {
                if let Some(s) = reduce_start.remove(&e.task) {
                    out.push(sidr_obs::Span::new("reduce", t, s, us(e.at)).with_attempt(e.attempt));
                }
            }
            TaskKind::MapRetry
            | TaskKind::ReduceFailed
            | TaskKind::MapSpeculated
            | TaskKind::MapLost => {}
        }
    }
    out
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
    fn records_and_sorts_events() {
        let tl = Timeline::new();
        tl.record_attempt(TaskKind::MapStart, 0, 0);
        tl.record_attempt(TaskKind::MapEnd, 0, 0);
        tl.record_attempt(TaskKind::ReduceEnd, 0, 0);
        let evs = tl.events();
        assert_eq!(evs.len(), 3);
        assert!(evs.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(evs.iter().all(|e| e.attempt == 0));
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

    #[test]
    fn racing_map_attempts_span_independently() {
        let events = vec![
            ev(TaskKind::MapStart, 0, 0, 0),
            ev(TaskKind::MapSpeculated, 0, 1, 2),
            ev(TaskKind::MapStart, 0, 1, 3),
            // The twin commits while the straggler is still running.
            ev(TaskKind::MapEnd, 0, 1, 5),
            ev(TaskKind::MapSpeculationLost, 0, 0, 7),
        ];
        let spans = spans(&events);
        assert_eq!(spans.len(), 2);
        let winner = spans.iter().find(|s| s.name == "map").unwrap();
        assert_eq!(winner.attempt, 1);
        assert_eq!((winner.start_us, winner.end_us), (3_000, 5_000));
        let loser = spans.iter().find(|s| s.name == "map.lost").unwrap();
        assert_eq!(loser.attempt, 0);
        assert_eq!((loser.start_us, loser.end_us), (0, 7_000));
    }

    #[test]
    fn spans_pair_starts_with_ends() {
        let events = vec![
            ev(TaskKind::MapStart, 0, 0, 0),
            ev(TaskKind::ReduceStart, 1, 0, 1),
            ev(TaskKind::MapEnd, 0, 0, 5),
            ev(TaskKind::ReduceBarrierMet, 1, 0, 6),
            ev(TaskKind::ReduceMergeDone, 1, 0, 8),
            ev(TaskKind::ReduceEnd, 1, 0, 9),
            // An unfinished map: no span.
            ev(TaskKind::MapStart, 2, 0, 4),
        ];
        let spans = spans(&events);
        let get = |name: &str| {
            spans
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("span {name} missing"))
        };
        assert_eq!(spans.len(), 4);
        assert_eq!((get("map").start_us, get("map").end_us), (0, 5_000));
        assert_eq!(get("map").task, 0);
        assert_eq!(
            (get("reduce.copy").start_us, get("reduce.copy").end_us),
            (1_000, 6_000)
        );
        assert_eq!(
            (get("reduce.merge").start_us, get("reduce.merge").end_us),
            (6_000, 8_000)
        );
        assert_eq!(
            (get("reduce").start_us, get("reduce").end_us),
            (1_000, 9_000)
        );
    }

    #[test]
    fn failed_attempts_emit_attempt_stamped_spans() {
        let events = vec![
            ev(TaskKind::MapStart, 0, 0, 0),
            ev(TaskKind::MapFailed, 0, 0, 2),
            ev(TaskKind::MapRetry, 0, 1, 3),
            ev(TaskKind::MapStart, 0, 1, 4),
            ev(TaskKind::MapEnd, 0, 1, 6),
        ];
        let spans = spans(&events);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "map.failed");
        assert_eq!(spans[0].attempt, 0);
        assert_eq!((spans[0].start_us, spans[0].end_us), (0, 2_000));
        assert_eq!(spans[1].name, "map");
        assert_eq!(spans[1].attempt, 1);
        assert_eq!((spans[1].start_us, spans[1].end_us), (4_000, 6_000));
    }

    fn result(events: &[(TaskKind, u64)]) -> JobResult {
        let at = Duration::from_millis;
        JobResult {
            counters: CountersSnapshot::default(),
            events: (events.iter())
                .map(|&(kind, ms)| TaskEvent {
                    kind,
                    task: 0,
                    attempt: 0,
                    at: at(ms),
                })
                .collect(),
            elapsed: Duration::ZERO,
        }
    }

    #[test]
    fn first_result_and_fraction() {
        let ms = Duration::from_millis;
        let r = result(&[
            (TaskKind::MapEnd, 1),
            (TaskKind::ReduceEnd, 2),
            (TaskKind::MapEnd, 3),
        ]);
        assert_eq!(r.first_result(), Some(ms(2)));
        let frac = r.maps_done_at_first_result().unwrap();
        assert!((frac - 0.5).abs() < 1e-9, "frac {frac}");
        assert_eq!(r.completions(TaskKind::MapEnd), vec![ms(1), ms(3)]);
    }

    #[test]
    fn empty_job_has_no_result() {
        let r = result(&[]);
        assert_eq!(r.first_result(), None);
        assert_eq!(r.maps_done_at_first_result(), None);
    }
}
