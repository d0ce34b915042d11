//! Cancellation latency: cancelling a job that is blocked (here: its
//! loop waiting for slots another job holds, an attempt pausing out a
//! straggle, or a map waiting out its retry backoff) must unwind by
//! notification — microseconds — not by a poll, nor by waiting out
//! the delay. `sync::wait_until` has no poll: an untimed wait ends only
//! on a notification. The cancel rings the loop's inbox, and the loop
//! stops each running attempt's pause. Under `--cfg check` the same paths are
//! explored on virtual time (`sidr-check`'s `deadline` scenario).

mod support;

use std::time::{Duration, Instant};

use sidr_mapreduce::{
    CancelToken, FaultKind, FaultPlan, FaultTarget, InMemoryOutput, JobConfig, JobPlan, MrError,
    RetryPolicy, SlotPool,
};
use support::{number_splits, run_shared, sum_by_mod10};

/// Job A holds both slots of a (1 map, 1 reduce) pool; job B's loop
/// waits for a release to ring it. Cancelling B must return
/// `Cancelled` in far less than a 25 ms poll period would allow.
#[test]
fn blocked_job_cancels_with_sub_tick_latency() {
    let pool = SlotPool::new(1, 1).unwrap();
    let plan = JobPlan::global(2);

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
            run_shared(
                &splits_a,
                sum_by_mod10(2),
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
            run_shared(
                &splits_b,
                sum_by_mod10(2),
                &plan,
                &output_b,
                &config_b,
                &pool,
                Some(&cancel_b),
            )
        });
        // Let B's loop find the pool full and wait for a ring.
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
            "cancel→return took {latency:?}; a blocked job must be \
             woken by the cancel's ring, not discovered by a poll"
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
    let plan = JobPlan::global(2);
    let splits = number_splits(50, 2);
    let output = InMemoryOutput::new();
    let cancel = CancelToken::new();
    std::thread::scope(|scope| {
        let job = scope.spawn(|| {
            run_shared(
                &splits,
                sum_by_mod10(2),
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
/// the join for the full delay. The pause is now a timed wait on the
/// attempt's stop signal, which the loop raises on cancel:
/// cancel→return must land in well under 25 ms, not after seconds.
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
