//! Concurrency stress: many jobs in parallel, larger jobs with small
//! slot counts, and repeated runs shaking out ordering assumptions in
//! the runtime's locking.

mod support;

use sidr_mapreduce::{
    FaultKind, FaultPlan, FaultTarget, InMemoryOutput, JobConfig, JobPlan, TaskKind,
};
use support::{bodies, identity_source, number_splits, run, sum, SLOTS};

fn run_one(n: u64, splits: u64, reducers: usize, slots: (usize, usize)) -> u64 {
    let sum_by_mod101 = bodies(
        identity_source,
        |k, v, emit| emit(k % 101, v),
        move |k| (k % reducers as u64) as usize,
        sum,
    );
    let output = InMemoryOutput::new();
    run(
        &number_splits(n, splits),
        sum_by_mod101,
        &JobPlan::global(reducers),
        &output,
        &JobConfig::default(),
        slots,
    )
    .unwrap();
    output.sorted_records().iter().map(|(_, v)| v).sum()
}

#[test]
fn many_jobs_in_parallel_all_agree() {
    let expect: u64 = (0..4000u64).sum();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|i| scope.spawn(move || run_one(4000, 16 + i as u64, 7, (1 + i % 4, 1 + i % 3))))
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), expect);
        }
    });
}

#[test]
fn tiny_slots_large_job() {
    // 1 map slot, 1 reduce slot, 64 splits, 32 reducers: maximal
    // serialization, everything still completes and sums correctly.
    assert_eq!(run_one(10_000, 64, 32, (1, 1)), (0..10_000u64).sum());
}

#[test]
fn repeated_runs_with_failures_are_stable() {
    for round in 0..10u64 {
        let n_red = 8usize;
        let splits = number_splits(4000, 32); // 125 keys per split
                                              // Keys are dealt in contiguous runs of 500.
        let contig = bodies(
            identity_source,
            |k, v, emit| emit(k, v),
            |k| (k as usize / 500).min(n_red - 1),
            sum,
        );
        // Keys are contiguous ranges; splits are contiguous too.
        let plan = JobPlan::with_deps((0..n_red).map(|r| (4 * r..4 * r + 4).collect()).collect());
        let output = InMemoryOutput::new();
        let result = run(
            &splits,
            contig,
            &plan,
            &output,
            &JobConfig {
                // Every map straggles a little, so reduces start
                // while maps are still running.
                fault_plan: FaultPlan::straggle_maps(0..splits.len(), 1).with(
                    FaultTarget::Reduce((round % n_red as u64) as usize),
                    0,
                    FaultKind::Fail,
                ),
                volatile_intermediate: true,
                ..Default::default()
            },
            SLOTS,
        )
        .unwrap();
        assert_eq!(result.count(TaskKind::ReduceFailed), 1, "round {round}");
        assert_eq!(output.len(), 4000, "round {round}");
        let total: u64 = output.sorted_records().iter().map(|(_, v)| v).sum();
        assert_eq!(total, (0..4000u64).sum(), "round {round}");
    }
}
