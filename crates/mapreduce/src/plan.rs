//! Routing plans: the policy surface that separates stock Hadoop,
//! SciHadoop and SIDR.
//!
//! A [`RoutingPlan`] bundles every decision the paper varies:
//!
//! | decision            | Hadoop / SciHadoop        | SIDR                     |
//! |---------------------|---------------------------|--------------------------|
//! | partition function  | hash-modulo (§3.1)        | `partition+`             |
//! | reduce barrier      | all Map tasks (global)    | actual deps `I_ℓ` (§3.2) |
//! | fetch sources       | every Map task (§4.6)     | only `I_ℓ`               |
//! | scheduling          | maps first, reduces by id | reduces first, maps on   |
//! |                     |                           | demand (§3.3)            |
//! | reduce order        | monotone ids              | prioritized keyblocks    |
//! |                     |                           | (§3.4)                   |

use crate::partitioner::Partitioner;
use crate::split::MapTaskId;
use crate::task::MrKey;

/// The per-job routing/scheduling policy.
pub trait RoutingPlan<K: MrKey>: Send + Sync {
    /// Number of Reduce tasks (`r`).
    fn num_reducers(&self) -> usize;

    /// Assigns an intermediate key to a keyblock / reducer.
    fn partition(&self, key: &K) -> usize;

    /// The Map tasks reducer `r` depends on and fetches from (`I_ℓ`),
    /// or `None` for the global barrier: any Map task may feed any
    /// reducer (§2.3.1), so it contacts every one of them, which is
    /// what stock Hadoop does (§4.6, Table 3).
    fn reduce_deps(&self, reducer: usize) -> Option<Vec<MapTaskId>>;

    /// SIDR's inverted scheduling (§3.3): Map tasks become eligible
    /// only once a running Reduce task depends on them.
    fn invert_scheduling(&self) -> bool {
        false
    }

    /// Order in which Reduce tasks are launched. Stock Hadoop
    /// schedules "in monotonically increasing order of their IDs"
    /// (§3.3); SIDR may prioritize keyblocks (§3.4).
    fn reduce_order(&self) -> Vec<usize> {
        (0..self.num_reducers()).collect()
    }

    /// Expected raw-⟨k,v⟩ count for a reducer, when the plan promises
    /// one (SIDR does, from geometry). Every reduce checks it against
    /// the shuffle's count annotations before it starts (§3.2.1
    /// approach 2); `None` means there is nothing to check.
    fn expected_raw_count(&self, _reducer: usize) -> Option<u64> {
        None
    }
}

/// Stock Hadoop: hash partitioning, global barrier, fetch-everything,
/// maps eagerly schedulable, reduces in id order.
pub struct DefaultPlan<K, P> {
    partitioner: P,
    num_reducers: usize,
    _marker: std::marker::PhantomData<fn(K)>,
}

impl<K: MrKey, P: Partitioner<K>> DefaultPlan<K, P> {
    pub fn new(partitioner: P, num_reducers: usize) -> Self {
        assert!(num_reducers > 0, "need at least one reducer");
        DefaultPlan {
            partitioner,
            num_reducers,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<K: MrKey, P: Partitioner<K>> RoutingPlan<K> for DefaultPlan<K, P> {
    fn num_reducers(&self) -> usize {
        self.num_reducers
    }

    fn partition(&self, key: &K) -> usize {
        self.partitioner.partition(key, self.num_reducers)
    }

    fn reduce_deps(&self, _reducer: usize) -> Option<Vec<MapTaskId>> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioner::ModuloPartitioner;

    #[test]
    fn default_plan_is_global_barrier_everything() {
        let plan = DefaultPlan::<u64, _>::new(ModuloPartitioner, 4);
        assert_eq!(plan.num_reducers(), 4);
        assert_eq!(plan.partition(&9), 1);
        assert_eq!(plan.reduce_deps(0), None);
        assert!(!plan.invert_scheduling());
        assert_eq!(plan.reduce_order(), vec![0, 1, 2, 3]);
        assert_eq!(plan.expected_raw_count(0), None);
    }

    #[test]
    #[should_panic(expected = "at least one reducer")]
    fn zero_reducers_panics() {
        let _ = DefaultPlan::<u64, _>::new(ModuloPartitioner, 0);
    }
}
