//! Concurrency stress: many jobs in parallel, larger jobs with small
//! slot counts, and repeated runs shaking out ordering assumptions in
//! the runtime's locking.

use sidr_coords::{Shape, Slab};
use sidr_mapreduce::{
    run_job, DefaultPlan, FaultKind, FaultPlan, FaultTarget, FnMapper, FnReducer, InMemoryOutput,
    InputSplit, JobConfig, MapTaskId, ModuloPartitioner, RoutingPlan, SliceRecordSource,
};

fn number_splits(n: u64, pieces: u64) -> Vec<InputSplit> {
    let space = Shape::new(vec![n]).unwrap();
    Slab::whole(&space)
        .split_along_longest(pieces)
        .into_iter()
        .map(|slab| InputSplit {
            byte_range: (
                slab.corner()[0] * 8,
                (slab.corner()[0] + slab.shape()[0]) * 8,
            ),
            slab,
            preferred_nodes: vec![],
        })
        .collect()
}

fn identity_source(
    _id: MapTaskId,
    split: &InputSplit,
) -> sidr_mapreduce::Result<SliceRecordSource<u64, u64>> {
    Ok(SliceRecordSource::new(
        split.slab.iter_coords().map(|c| (c[0], c[0])).collect(),
    ))
}

fn run_one(n: u64, splits: u64, reducers: usize, config: &JobConfig) -> u64 {
    let mapper =
        FnMapper::new(|k: &u64, v: &u64, emit: &mut dyn FnMut(u64, u64)| emit(k % 101, *v));
    let reducer =
        FnReducer::new(|_k: &u64, vs: &[u64], emit: &mut dyn FnMut(u64)| emit(vs.iter().sum()));
    let plan = DefaultPlan::<u64, _>::new(ModuloPartitioner, reducers);
    let output = InMemoryOutput::new();
    run_job(
        &splits_of(n, splits),
        &identity_source,
        &mapper,
        None,
        &reducer,
        &plan,
        &output,
        config,
    )
    .unwrap();
    output.sorted_records().iter().map(|(_, v)| v).sum()
}

fn splits_of(n: u64, pieces: u64) -> Vec<InputSplit> {
    number_splits(n, pieces)
}

#[test]
fn many_jobs_in_parallel_all_agree() {
    let expect: u64 = (0..4000u64).sum();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                scope.spawn(move || {
                    let config = JobConfig {
                        map_slots: 1 + i % 4,
                        reduce_slots: 1 + i % 3,
                        ..Default::default()
                    };
                    run_one(4000, 16 + i as u64, 7, &config)
                })
            })
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
    let config = JobConfig {
        map_slots: 1,
        reduce_slots: 1,
        ..Default::default()
    };
    assert_eq!(run_one(10_000, 64, 32, &config), (0..10_000u64).sum());
}

#[test]
fn repeated_runs_with_failures_are_stable() {
    struct ContigPlan {
        n: usize,
        maps_per: usize,
    }
    impl RoutingPlan<u64> for ContigPlan {
        fn num_reducers(&self) -> usize {
            self.n
        }
        fn partition(&self, key: &u64) -> usize {
            ((*key as usize) / 500).min(self.n - 1)
        }
        fn reduce_deps(&self, reducer: usize) -> Option<Vec<MapTaskId>> {
            // Keys are contiguous ranges; splits are contiguous too.
            let start = reducer * self.maps_per;
            Some((start..start + self.maps_per).collect())
        }
        fn invert_scheduling(&self) -> bool {
            true
        }
    }

    for round in 0..10u64 {
        let n_red = 8usize;
        let splits = number_splits(4000, 32); // 125 keys per split
        let mapper = FnMapper::new(|k: &u64, v: &u64, emit: &mut dyn FnMut(u64, u64)| emit(*k, *v));
        let reducer =
            FnReducer::new(|_k: &u64, vs: &[u64], emit: &mut dyn FnMut(u64)| emit(vs.iter().sum()));
        let plan = ContigPlan {
            n: n_red,
            maps_per: 4,
        };
        let output = InMemoryOutput::new();
        let result = run_job(
            &splits,
            &identity_source,
            &mapper,
            None,
            &reducer,
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
        )
        .unwrap();
        assert_eq!(result.counters.reduce_failures, 1, "round {round}");
        assert_eq!(output.len(), 4000, "round {round}");
        let total: u64 = output.sorted_records().iter().map(|(_, v)| v).sum();
        assert_eq!(total, (0..4000u64).sum(), "round {round}");
    }
}
