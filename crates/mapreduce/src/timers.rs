//! Cancellable timers: the coordinator loop's, and the simulator's
//! attempt ends on its virtual clock. A heap orders them by
//! instant, then by arming order — the tie-break of `desque`'s event
//! queue, so timers due at one instant fire in the order they were
//! armed. Cancelling is `dslab`'s `canceled_events`: the id goes into a
//! set beside the heap, and the timer is dropped when it surfaces.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::time::Duration;

pub struct Timers<T> {
    heap: BinaryHeap<Reverse<(Duration, u64, T)>>,
    cancelled: HashSet<u64>,
    seq: u64,
}

impl<T> Default for Timers<T> {
    fn default() -> Self {
        Timers {
            heap: BinaryHeap::new(),
            cancelled: HashSet::new(),
            seq: 0,
        }
    }
}

impl<T: Ord + Copy> Timers<T> {
    /// Arms `timer` to fire at `at`; returns its id.
    pub fn arm(&mut self, at: Duration, timer: T) -> u64 {
        self.seq += 1;
        self.heap.push(Reverse((at, self.seq, timer)));
        self.seq
    }

    pub fn cancel(&mut self, id: u64) {
        self.cancelled.insert(id);
    }

    /// The instant of the earliest live timer.
    pub fn next_at(&mut self) -> Option<Duration> {
        loop {
            let Reverse((at, id, _)) = *self.heap.peek()?;
            if !self.cancelled.remove(&id) {
                return Some(at);
            }
            self.heap.pop();
        }
    }

    /// Pops the earliest live timer if it is due by `now`.
    pub fn pop_due(&mut self, now: Duration) -> Option<T> {
        if self.next_at()? > now {
            return None;
        }
        self.heap.pop().map(|Reverse((_, _, timer))| timer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ties fire in arming order; a cancelled timer neither fires nor
    /// bounds the wait.
    #[test]
    fn timers_fire_by_instant_then_arming_order() {
        let ms = Duration::from_millis;
        let mut t = Timers::default();
        t.arm(ms(5), 'c');
        let cancelled = t.arm(ms(1), 'x');
        t.arm(ms(2), 'z');
        t.arm(ms(5), 'a');
        t.cancel(cancelled);
        assert_eq!(t.next_at(), Some(ms(2)));
        assert_eq!(t.pop_due(ms(1)), None, "nothing due yet");
        let fired: Vec<char> = std::iter::from_fn(|| t.pop_due(ms(9))).collect();
        assert_eq!(fired, vec!['z', 'c', 'a']);
        assert_eq!(t.next_at(), None);
    }
}
