//! Output collection: where committed Reduce output goes.

use parking_lot::Mutex;
use std::time::{Duration, Instant};

use crate::keyblock::Keyblock;
use crate::task::{MrKey, MrValue};
use crate::Result;

/// Receives the atomically committed output of Reduce tasks (§2.3:
/// "atomic committal of task output"). Implementations decide the
/// format — in-memory (tests), dense SciNC slabs (SIDR, §4.4),
/// sentinel or coordinate/value files (stock Hadoop, §4.4).
pub trait OutputCollector<K, V>: Send + Sync {
    /// Commits the complete output of one reducer.
    fn commit(&self, reducer: usize, records: Vec<(K, V)>) -> Result<()>;

    /// Commits the complete output of one reducer, as the reduce wrote
    /// it: what the engine calls. By default its rows are decoded, each
    /// once, and handed to [`commit`](Self::commit); a collector that
    /// sends bytes takes the rows as they are.
    fn commit_keyblock(&self, reducer: usize, keyblock: Keyblock<K, V>) -> Result<()> {
        self.commit(reducer, keyblock.into_records())
    }
}

/// Collects output in memory, stamping each commit with its time —
/// enough to reconstruct "fraction of total output available" curves.
pub struct InMemoryOutput<K, V> {
    start: Instant,
    commits: Mutex<Vec<Commit<K, V>>>,
}

/// One committed reducer output.
#[derive(Clone, Debug)]
pub struct Commit<K, V> {
    pub reducer: usize,
    pub at: Duration,
    pub records: Vec<(K, V)>,
}

impl<K: MrKey, V: MrValue> Default for InMemoryOutput<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: MrKey, V: MrValue> InMemoryOutput<K, V> {
    pub fn new() -> Self {
        InMemoryOutput {
            start: Instant::now(),
            commits: Mutex::new(Vec::new()),
        }
    }

    /// All commits in commit order.
    pub fn commits(&self) -> Vec<Commit<K, V>> {
        let mut c = self.commits.lock().clone();
        c.sort_by_key(|c| c.at);
        c
    }

    /// Every output record, sorted by key (for comparisons across
    /// framework modes, which commit in different orders).
    pub fn sorted_records(&self) -> Vec<(K, V)> {
        let mut all: Vec<(K, V)> = self
            .commits
            .lock()
            .iter()
            .flat_map(|c| c.records.iter().cloned())
            .collect();
        all.sort_by(|a, b| a.0.cmp(&b.0));
        all
    }

    /// Total records committed.
    pub fn len(&self) -> usize {
        self.commits.lock().iter().map(|c| c.records.len()).sum()
    }

    /// True when nothing was committed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K: MrKey, V: MrValue> OutputCollector<K, V> for InMemoryOutput<K, V> {
    fn commit(&self, reducer: usize, records: Vec<(K, V)>) -> Result<()> {
        self.commits.lock().push(Commit {
            reducer,
            at: self.start.elapsed(),
            records,
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commits_are_recorded_with_order() {
        let out = InMemoryOutput::<u64, u64>::new();
        out.commit(1, vec![(5, 50)]).unwrap();
        out.commit(0, vec![(1, 10), (2, 20)]).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out.sorted_records(), vec![(1, 10), (2, 20), (5, 50)]);
        let commits = out.commits();
        assert_eq!(commits[0].reducer, 1);
    }
}
