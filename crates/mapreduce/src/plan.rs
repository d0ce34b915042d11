//! The job plan: the policy surface that separates stock Hadoop,
//! SciHadoop and SIDR, as one plain value.
//!
//! A [`JobPlan`] holds the decisions the scheduler varies; the
//! partition function is not among them, because only a map attempt
//! applies it — it lives in the job's attempt bodies:
//!
//! | field          | Hadoop / SciHadoop        | SIDR                     |
//! |----------------|---------------------------|--------------------------|
//! | `reduce_deps`  | `None`: all Map tasks     | actual deps `I_ℓ` (§3.2) |
//! |                | (global barrier), fetched | — the only maps each     |
//! |                | from every one (§4.6);    | reduce fetches from;     |
//! |                | maps first, reduces by id | reduces first, maps on   |
//! |                |                           | demand (§3.3)            |
//! | `reduce_order` | monotone ids              | prioritized keyblocks    |
//! |                |                           | (§3.4)                   |
//! | `expected_raw` | `None`                    | geometric raw count      |
//! |                |                           | (§3.2.1)                 |
//!
//! The partition function each attempt body applies is hash-modulo
//! under Hadoop and SciHadoop (§3.1) and `partition+` under SIDR.

use crate::split::MapTaskId;

/// One job's routing and scheduling policy. The scheduler
/// (`Schedule::new`) refuses a plan whose tables disagree in size.
/// Scheduling is inverted (§3.3) exactly when the plan has
/// dependency barriers: with `I_ℓ` known, a Map task becomes eligible
/// only once a running Reduce task depends on it; under the global
/// barrier every map is eligible from the start.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobPlan {
    /// The Map tasks each reducer depends on and fetches from (`I_ℓ`),
    /// or `None` for the global barrier: any Map task may feed any
    /// reducer (§2.3.1), so each contacts every one of them, which is
    /// what stock Hadoop does (§4.6, Table 3).
    pub reduce_deps: Option<Vec<Vec<MapTaskId>>>,
    /// Order in which Reduce tasks are launched: a permutation of the
    /// reducers, whose number it fixes. Stock Hadoop schedules "in
    /// monotonically increasing order of their IDs" (§3.3); SIDR may
    /// prioritize keyblocks (§3.4).
    pub reduce_order: Vec<usize>,
    /// Each reducer's expected raw-⟨k,v⟩ count, when the plan promises
    /// one (SIDR does, from geometry). Every reduce checks it against
    /// the shuffle's count annotations before it starts (§3.2.1
    /// approach 2); `None` means there is nothing to check.
    pub expected_raw: Option<Vec<u64>>,
}

impl JobPlan {
    /// Stock Hadoop: global barrier, fetch-everything, maps eagerly
    /// schedulable, reduces in id order.
    pub fn global(num_reducers: usize) -> Self {
        JobPlan {
            reduce_deps: None,
            reduce_order: (0..num_reducers).collect(),
            expected_raw: None,
        }
    }

    /// Dependency barriers `reduce_deps` under inverted scheduling,
    /// reduces in id order, no tally.
    pub fn with_deps(reduce_deps: Vec<Vec<MapTaskId>>) -> Self {
        JobPlan {
            reduce_order: (0..reduce_deps.len()).collect(),
            reduce_deps: Some(reduce_deps),
            expected_raw: None,
        }
    }

    /// Number of Reduce tasks (`r`).
    pub fn num_reducers(&self) -> usize {
        self.reduce_order.len()
    }

    /// Reducer `r`'s expected raw-pair tally, if the plan promises one.
    pub fn expected_raw(&self, reducer: usize) -> Option<u64> {
        Some(self.expected_raw.as_ref()?[reducer])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_plan_is_barrier_everything_in_id_order() {
        let plan = JobPlan::global(4);
        assert_eq!(plan.num_reducers(), 4);
        assert_eq!(plan.reduce_deps, None);
        assert_eq!(plan.reduce_order, vec![0, 1, 2, 3]);
        assert_eq!(plan.expected_raw(0), None);
    }

    #[test]
    fn dependency_plan_launches_in_id_order() {
        let plan = JobPlan::with_deps(vec![vec![0], vec![1, 2]]);
        assert_eq!(plan.num_reducers(), 2);
        assert_eq!(plan.reduce_order, vec![0, 1]);
    }
}
