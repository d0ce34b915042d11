//! Simulator invariants, property-tested over randomized jobs: policy
//! dominance (dependency barriers never finish later than the global
//! barrier, all else equal) and reproducibility. Every `simulate` call
//! also checks the engine's timeline protocol itself: its loop runs
//! the plan's oracle before it returns.

use proptest::prelude::*;

use sidr_mapreduce::JobPlan;
use sidr_simcluster::{
    first_result_s, makespan_s, simulate, CostModel, SimClusterConfig, SimJob, SimMapTask,
};

/// Random job: 4-60 maps, 1-12 reduces, contiguous dep slices.
fn jobs() -> impl Strategy<Value = SimJob> {
    (4usize..60, 1usize..12, 0u64..3).prop_map(|(n_maps, n_reduces, node_salt)| {
        let maps = (0..n_maps)
            .map(|i| SimMapTask {
                input_bytes: 1 << 20,
                preferred_nodes: vec![
                    (i + node_salt as usize) % 24,
                    (i * 7 + 3) % 24,
                    (i * 13 + 11) % 24,
                ],
                oblivious: false,
            })
            .collect();
        let per = n_maps / n_reduces;
        let end = |r: usize| {
            if r + 1 == n_reduces {
                n_maps
            } else {
                (r + 1) * per
            }
        };
        let deps = (0..n_reduces)
            .map(|r| (r * per..end(r)).collect())
            .collect();
        SimJob {
            maps,
            reduce_bytes: vec![1 << 19; n_reduces],
            plan: JobPlan::with_deps(deps),
        }
    })
}

fn model() -> CostModel {
    CostModel {
        jitter_frac: 0.03,
        hadoop_remote_penalty: 0.0,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dependency_barrier_never_slower_than_global(job in jobs()) {
        let dep_trace = simulate(&job, &SimClusterConfig::default(), &model());
        let mut global = job.clone();
        global.plan = JobPlan::global(job.plan.num_reducers());
        let global_trace = simulate(&global, &SimClusterConfig::default(), &model());
        // First results strictly ordered, makespan no worse (ties
        // allowed: the final reduce waits for the last map either way).
        prop_assert!(
            first_result_s(&dep_trace) <= first_result_s(&global_trace) + 1e-6,
            "deps {} vs global {}",
            first_result_s(&dep_trace),
            first_result_s(&global_trace)
        );
        let (dep_total, global_total) = (makespan_s(&dep_trace), makespan_s(&global_trace));
        prop_assert!(
            dep_total <= global_total * 1.05 + 1e-6,
            "deps {} vs global {}",
            dep_total,
            global_total
        );
    }

    /// The same job replays to the same record: every event, its
    /// order and its stamp, and the same counters.
    #[test]
    fn traces_are_reproducible(job in jobs()) {
        let a = simulate(&job, &SimClusterConfig::default(), &model());
        let b = simulate(&job, &SimClusterConfig::default(), &model());
        prop_assert_eq!(a.counters, b.counters);
        prop_assert_eq!(a.elapsed, b.elapsed);
        prop_assert_eq!(a.events, b.events);
    }
}
