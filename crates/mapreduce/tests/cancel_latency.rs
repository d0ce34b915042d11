//! Cancellation latency: cancelling a job whose workers are blocked
//! (here: parked on the shared pool's slot semaphores behind another
//! job, or sleeping out a straggle or a backoff) must unwind by condvar
//! notification — microseconds — not by the 25 ms `WAIT_TICK` safety
//! tick that `sync::wait_until` keeps on untimed waits, nor by waiting
//! out the sleep. The sleeps have no tick at all: a cancel reaches them
//! only by notification. Under `--cfg check` the same paths are
//! explored on virtual time (`sidr-check`'s `deadline` scenario).

use std::time::{Duration, Instant};

use sidr_coords::{Coord, Shape, Slab};
use sidr_mapreduce::{
    run_job_shared, CancelToken, DefaultPlan, FaultKind, FaultPlan, FaultTarget, FnMapper,
    FnReducer, InMemoryOutput, InputSplit, JobConfig, MapTaskId, ModuloPartitioner, MrError,
    RetryPolicy, SliceRecordSource, SlotPool,
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
    let records: Vec<(u64, u64)> = split
        .slab
        .iter_coords()
        .map(|c: Coord| (c[0], c[0]))
        .collect();
    Ok(SliceRecordSource::new(records))
}

#[allow(clippy::type_complexity)] // the FnMapper/FnReducer generics spell out the closure shapes
fn sum_by_mod10() -> (
    FnMapper<u64, u64, u64, u64, impl Fn(&u64, &u64, &mut dyn FnMut(u64, u64)) + Send + Sync>,
    FnReducer<u64, u64, u64, impl Fn(&u64, &[u64], &mut dyn FnMut(u64)) + Send + Sync>,
) {
    (
        FnMapper::new(|k: &u64, v: &u64, emit: &mut dyn FnMut(u64, u64)| emit(k % 10, *v)),
        FnReducer::new(|_k: &u64, vs: &[u64], emit: &mut dyn FnMut(u64)| emit(vs.iter().sum())),
    )
}

/// Job A holds both slots of a (1 map, 1 reduce) pool; job B's
/// workers all park on the semaphores. Cancelling B must return
/// `Cancelled` in far less than one `WAIT_TICK` (25 ms).
#[test]
fn blocked_job_cancels_with_sub_tick_latency() {
    let pool = SlotPool::new(1, 1).unwrap();
    let (mapper, reducer) = sum_by_mod10();
    let plan = DefaultPlan::<u64, _>::new(ModuloPartitioner, 2);

    // Job A: one long (straggling) map so both the map slot and — via
    // its reduce's copy phase — the reduce slot stay occupied.
    let splits_a = number_splits(50, 1);
    let config_a = JobConfig {
        fault_plan: FaultPlan::straggle_maps([0], 400),
        ..Default::default()
    };
    let output_a = InMemoryOutput::new();

    // Job B: shaped like A, but it will never get a slot.
    let splits_b = number_splits(50, 1);
    let config_b = JobConfig::default();
    let output_b = InMemoryOutput::new();
    let cancel_b = CancelToken::new();

    std::thread::scope(|scope| {
        let a = scope.spawn(|| {
            run_job_shared(
                &splits_a,
                &identity_source,
                &mapper,
                None,
                &reducer,
                &plan,
                &output_a,
                &config_a,
                &pool,
                None,
            )
        });
        // Let A occupy the pool.
        std::thread::sleep(Duration::from_millis(80));
        let b = scope.spawn(|| {
            run_job_shared(
                &splits_b,
                &identity_source,
                &mapper,
                None,
                &reducer,
                &plan,
                &output_b,
                &config_b,
                &pool,
                Some(&cancel_b),
            )
        });
        // Let B's workers park on the slot semaphores.
        std::thread::sleep(Duration::from_millis(80));

        let cancelled_at = Instant::now();
        cancel_b.cancel();
        let result_b = b.join().unwrap();
        let latency = cancelled_at.elapsed();

        assert!(
            matches!(result_b, Err(MrError::Cancelled)),
            "expected Cancelled, got {result_b:?}"
        );
        assert!(
            latency < Duration::from_millis(10),
            "cancel→return took {latency:?}; blocked workers must be \
             condvar-woken, not discovered by the 25 ms poll tick"
        );

        // Job A is untouched by B's cancellation.
        assert!(a.join().unwrap().is_ok());
    });
    let occ = pool.occupancy();
    assert_eq!((occ.map_busy, occ.reduce_busy), (0, 0), "slots leaked");
}

/// Runs the sum workload on a private pool with `config` and a cancel
/// token, cancels after `settle`, and returns (cancel→return latency,
/// result).
fn cancel_after(
    config: &JobConfig,
    settle: Duration,
) -> (Duration, sidr_mapreduce::Result<sidr_mapreduce::JobResult>) {
    let pool = SlotPool::new(2, 2).unwrap();
    let (mapper, reducer) = sum_by_mod10();
    let plan = DefaultPlan::<u64, _>::new(ModuloPartitioner, 2);
    let splits = number_splits(50, 2);
    let output = InMemoryOutput::new();
    let cancel = CancelToken::new();
    std::thread::scope(|scope| {
        let job = scope.spawn(|| {
            run_job_shared(
                &splits,
                &identity_source,
                &mapper,
                None,
                &reducer,
                &plan,
                &output,
                config,
                &pool,
                Some(&cancel),
            )
        });
        std::thread::sleep(settle);
        let cancelled_at = Instant::now();
        cancel.cancel();
        let result = job.join().unwrap();
        (cancelled_at.elapsed(), result)
    })
}

/// Regression: the straggle injection used to be a plain
/// `thread::sleep`, so cancelling a job with a 3 s straggler blocked
/// the join for the full delay. The sleep is now a cancellation-aware
/// timed wait on the job condvar: cancel→return must land in well
/// under one `WAIT_TICK` (25 ms), not after seconds.
#[test]
fn straggling_map_cancels_with_sub_tick_latency() {
    let config = JobConfig {
        fault_plan: FaultPlan::none().with(
            FaultTarget::Map(0),
            0,
            FaultKind::Straggle { delay_ms: 3_000 },
        ),
        ..Default::default()
    };
    // 100 ms settle puts the straggler well inside its 3 s sleep.
    let (latency, result) = cancel_after(&config, Duration::from_millis(100));
    assert!(
        matches!(result, Err(MrError::Cancelled)),
        "expected Cancelled, got {result:?}"
    );
    assert!(
        latency < Duration::from_millis(10),
        "cancel→return took {latency:?}; the 3 s straggle sleep must be \
         interrupted by cancellation, not slept to completion"
    );
}

/// Same property for the retry-backoff sleep: a failed map waiting out
/// a 3 s backoff before its retry must abandon the wait the moment the
/// job is cancelled.
#[test]
fn retry_backoff_cancels_with_sub_tick_latency() {
    let config = JobConfig {
        retry: RetryPolicy {
            max_task_attempts: 3,
            backoff_ms: 3_000,
        },
        fault_plan: FaultPlan::none().with(FaultTarget::Map(0), 0, FaultKind::Fail),
        ..Default::default()
    };
    // 100 ms settle puts the failed map inside its 3 s backoff wait.
    let (latency, result) = cancel_after(&config, Duration::from_millis(100));
    assert!(
        matches!(result, Err(MrError::Cancelled)),
        "expected Cancelled, got {result:?}"
    );
    assert!(
        latency < Duration::from_millis(10),
        "cancel→return took {latency:?}; the retry backoff must be \
         interrupted by cancellation, not slept to completion"
    );
}
