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

/// What can happen in the cluster. Its `Ord` only lets the heap hold
/// it: the unique insertion sequence decides every tie first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Event {
    /// A map attempt finishes on a node.
    MapEnd {
        map: usize,
        attempt: u32,
        node: usize,
    },
    /// A reduce task finishes.
    ReduceEnd { reduce: usize },
}

/// Deterministic time-ordered queue; ties break by insertion sequence
/// so identical inputs replay identically.
#[derive(Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<(SimTime, u64, Event)>>,
    seq: u64,
}

impl EventQueue {
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at absolute time `at`.
    pub fn push(&mut self, at: SimTime, event: Event) {
        self.heap.push(Reverse((at, self.seq, event)));
        self.seq += 1;
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.heap.pop().map(|Reverse((at, _, event))| (at, event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map_end(map: usize) -> Event {
        Event::MapEnd {
            map,
            attempt: 0,
            node: 0,
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(secs(3.0), map_end(3));
        q.push(secs(1.0), map_end(1));
        q.push(secs(2.0), Event::ReduceEnd { reduce: 2 });
        let order: Vec<SimTime> = std::iter::from_fn(|| q.pop().map(|(t, _)| t)).collect();
        assert_eq!(order, vec![secs(1.0), secs(2.0), secs(3.0)]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.push(5, map_end(10));
        q.push(5, map_end(20));
        let (_, first) = q.pop().unwrap();
        assert_eq!(first, map_end(10));
    }

    #[test]
    fn seconds_roundtrip() {
        assert_eq!(to_secs(secs(12.5)), 12.5);
    }
}
