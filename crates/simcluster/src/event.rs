//! The discrete-event core: a time-ordered event queue.
//!
//! Simulated time is `u64` microseconds — integral so that event
//! ordering is exact and runs are bit-reproducible across platforms.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulated time in microseconds.
pub type SimTime = u64;

/// Converts seconds to [`SimTime`].
pub fn secs(s: f64) -> SimTime {
    (s * 1e6).round() as SimTime
}

/// Converts [`SimTime`] to seconds.
pub fn to_secs(t: SimTime) -> f64 {
    t as f64 / 1e6
}

/// What can happen in the cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// A map task finishes on a node.
    MapEnd { map: usize, node: usize },
    /// A reduce task finishes.
    ReduceEnd { reduce: usize },
}

/// Deterministic time-ordered queue; ties break by insertion sequence
/// so identical inputs replay identically.
#[derive(Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<(SimTime, u64, EventEntry)>>,
    seq: u64,
}

/// Wrapper granting `Ord` to events via their field tuple.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct EventEntry(u8, usize, usize);

impl EventQueue {
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at absolute time `at`.
    pub fn push(&mut self, at: SimTime, event: Event) {
        let entry = match event {
            Event::MapEnd { map, node } => EventEntry(0, map, node),
            Event::ReduceEnd { reduce } => EventEntry(1, reduce, 0),
        };
        self.heap.push(Reverse((at, self.seq, entry)));
        self.seq += 1;
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.heap.pop().map(|Reverse((at, _, entry))| {
            let event = match entry {
                EventEntry(0, map, node) => Event::MapEnd { map, node },
                EventEntry(_, reduce, _) => Event::ReduceEnd { reduce },
            };
            (at, event)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(secs(3.0), Event::MapEnd { map: 3, node: 0 });
        q.push(secs(1.0), Event::MapEnd { map: 1, node: 0 });
        q.push(secs(2.0), Event::ReduceEnd { reduce: 2 });
        let order: Vec<SimTime> = std::iter::from_fn(|| q.pop().map(|(t, _)| t)).collect();
        assert_eq!(order, vec![secs(1.0), secs(2.0), secs(3.0)]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.push(5, Event::MapEnd { map: 10, node: 0 });
        q.push(5, Event::MapEnd { map: 20, node: 0 });
        let (_, first) = q.pop().unwrap();
        assert_eq!(first, Event::MapEnd { map: 10, node: 0 });
    }

    #[test]
    fn seconds_roundtrip() {
        assert_eq!(to_secs(secs(12.5)), 12.5);
    }
}
