//! The `TaskExecutor` seam, driven directly: the in-process executor
//! keeps committed map output as SMOF bytes in its partition store,
//! through commit → fetch → release, a lost source, post-commit
//! corruption, volatile consume-then-recover and a lost speculative
//! twin — and a finished job holds only what no reduce consumed.

mod support;

use std::time::Duration;

use sidr_mapreduce::{
    run_job_with_executor, AttemptBodies, CancelToken, FaultKind, FaultPlan, FaultTarget,
    InMemoryOutput, InProcessExecutor, InputSplit, JobConfig, JobPlan, Keyblock, MapTally,
    MapTaskId, MrError, ReduceSource, RemoteReduceError, RetryPolicy, SlotPool, TaskExecutor,
};
use support::{bodies, identity_source, number_splits, run, run_shared, sum, SLOTS};

const MAPS: u64 = 4;
const REDUCERS: usize = 3;

fn base_config() -> JobConfig {
    JobConfig {
        retry: RetryPolicy {
            backoff_ms: 1,
            ..RetryPolicy::default()
        },
        ..Default::default()
    }
}

/// `MAPS` splits of ten consecutive integers each.
fn splits() -> Vec<InputSplit> {
    number_splits(MAPS * 10, MAPS)
}

/// Sums values by `key % 6` over a `% REDUCERS` partition: reducer
/// `r` owns keys `r` and `r + 3`, and every map feeds every reducer.
fn sum_by_mod6() -> impl AttemptBodies<Key = u64, Value = u64, Out = u64> {
    bodies(
        identity_source,
        |k, v, emit| emit(k % 6, v),
        |k| (k % REDUCERS as u64) as usize,
        sum,
    )
}

/// An in-process executor of [`sum_by_mod6`] under `config`.
fn executor(
    config: &JobConfig,
) -> InProcessExecutor<'_, impl AttemptBodies<Key = u64, Value = u64, Out = u64>> {
    InProcessExecutor::with_bodies(sum_by_mod6(), config)
}

fn run_map(exec: &dyn TaskExecutor<u64, u64>, task: MapTaskId, attempt: u32) -> MapTally {
    exec.execute_map(task, attempt, false, &splits()[task], &|_| true)
        .unwrap()
}

fn sources(epochs: &[u32]) -> Vec<ReduceSource> {
    epochs
        .iter()
        .enumerate()
        .map(|(map, &epoch)| ReduceSource { map, epoch })
        .collect()
}

/// One reduce attempt's keyblock. Every map feeds every reducer, so
/// every bound source is a fed one.
fn run_reduce(
    exec: &dyn TaskExecutor<u64, u64>,
    reducer: usize,
    sources: &[ReduceSource],
) -> Result<Vec<(u64, u64)>, RemoteReduceError> {
    (exec.execute_reduce(reducer, 0, sources, None)).map(Keyblock::into_records)
}

fn lost(result: Result<Vec<(u64, u64)>, RemoteReduceError>) -> Vec<MapTaskId> {
    match result {
        Err(RemoteReduceError::SourcesLost(maps)) => maps,
        other => panic!("expected SourcesLost, got {other:?}"),
    }
}

/// What reducer `r` must emit: the sums of `0..MAPS*10` by `% 6`, for
/// its two keys.
fn expected(r: u64) -> Vec<(u64, u64)> {
    [r, r + 3]
        .into_iter()
        .map(|k| (k, (0..MAPS * 10).filter(|i| i % 6 == k).sum()))
        .collect()
}

#[test]
fn commit_then_fetch_delivers_every_partition() {
    let config = base_config();
    let exec = executor(&config);
    let tallies: Vec<MapTally> = (0..MAPS as usize).map(|m| run_map(&exec, m, 0)).collect();
    assert_eq!(
        exec.pressure().resident_partitions,
        MAPS as usize * REDUCERS
    );
    for r in 0..REDUCERS {
        let records = run_reduce(&exec, r, &sources(&[0; 4])).unwrap();
        assert_eq!(records, expected(r as u64), "reducer {r}");
        // The tallies name each partition's rows, read from its
        // SMOF header.
        let rows: u64 = (tallies.iter().flat_map(|t| &t.partitions))
            .filter(|&&(reducer, _)| reducer == r)
            .map(|&(_, rows)| rows)
            .sum();
        let mine = (0..MAPS * 10).filter(|k| k % 3 == r as u64).count();
        assert_eq!(rows, mine as u64);
    }
    // A second fetch reports every source lost: the first reduce
    // released them.
    assert_eq!(lost(run_reduce(&exec, 1, &sources(&[0; 4]))), [0, 1, 2, 3]);
    assert_eq!(exec.pressure().resident_partitions, 0);
}

#[test]
fn uncommitted_generation_is_a_lost_source_and_nothing_is_consumed() {
    let config = JobConfig {
        volatile_intermediate: true,
        ..base_config()
    };
    let exec = executor(&config);
    for m in [0, 1, 3] {
        run_map(&exec, m, 0);
    }
    // Map 2 never committed; map 3 only at attempt 0, not 1.
    assert_eq!(lost(run_reduce(&exec, 0, &sources(&[0, 0, 0, 1]))), [2, 3]);
    // The failed bind consumed nothing, even under volatile
    // data: once the sources exist the same reduce succeeds.
    run_map(&exec, 2, 0);
    run_map(&exec, 3, 1);
    assert_eq!(
        run_reduce(&exec, 0, &sources(&[0, 0, 0, 1])).unwrap(),
        expected(0)
    );
}

#[test]
fn post_commit_corruption_surfaces_as_a_lost_source() {
    for kind in [FaultKind::CorruptOutput, FaultKind::TruncateOutput] {
        let config = JobConfig {
            fault_plan: FaultPlan::none().with(FaultTarget::Map(1), 0, kind),
            ..base_config()
        };
        let exec = executor(&config);
        for m in 0..MAPS as usize {
            run_map(&exec, m, 0); // map 1 "succeeds" too
        }
        // Every reducer finds the damage on its own partition.
        for r in 0..REDUCERS {
            assert_eq!(
                lost(run_reduce(&exec, r, &sources(&[0; 4]))),
                [1],
                "{kind:?} reducer {r}"
            );
        }
        // The re-executed attempt is clean and is what gets bound.
        run_map(&exec, 1, 1);
        for r in 0..REDUCERS {
            assert_eq!(
                run_reduce(&exec, r, &sources(&[0, 1, 0, 0])).unwrap(),
                expected(r as u64),
                "{kind:?} reducer {r}"
            );
        }
    }
}

#[test]
fn volatile_fetch_consumes_exactly_the_bound_generation() {
    let config = JobConfig {
        volatile_intermediate: true,
        ..base_config()
    };
    let exec = executor(&config);
    for m in 0..MAPS as usize {
        run_map(&exec, m, 0);
    }
    // A speculative twin of map 2 committed as well: its
    // generation sits beside attempt 0's, unbound.
    run_map(&exec, 2, 1);
    assert_eq!(
        exec.pressure().resident_partitions,
        (MAPS as usize + 1) * REDUCERS
    );

    assert_eq!(
        run_reduce(&exec, 0, &sources(&[0; 4])).unwrap(),
        expected(0)
    );
    // Consumed on fetch: gone, not empty — a re-bind of the
    // same generations must report them lost, never reduce
    // over nothing.
    assert_eq!(lost(run_reduce(&exec, 0, &sources(&[0; 4]))), [0, 1, 2, 3]);
    // Other reducers' partitions of those generations are
    // untouched, and so is the twin's generation.
    assert_eq!(
        run_reduce(&exec, 1, &sources(&[0; 4])).unwrap(),
        expected(1)
    );
    assert_eq!(
        lost(run_reduce(&exec, 0, &sources(&[0, 0, 1, 0]))),
        [0, 1, 3]
    );
    // Recovery: exactly the consumed maps re-execute; the
    // retry binds the fresh epochs.
    for m in [0, 1, 3] {
        run_map(&exec, m, 1);
    }
    assert_eq!(
        run_reduce(&exec, 0, &sources(&[1; 4])).unwrap(),
        expected(0)
    );
}

/// Job-level: a job with a speculative race reports one connection per
/// bound (map, reducer) pair, and a finished job — completed, failed or
/// cancelled — holds only partitions no reduce consumed.
#[test]
fn jobs_count_connections_and_leave_nothing_behind() {
    // Completed, with a forced speculative twin of map 1 racing a
    // straggling primary.
    let config = JobConfig {
        fault_plan: FaultPlan::none().with(
            FaultTarget::Map(1),
            0,
            FaultKind::Straggle { delay_ms: 300 },
        ),
        speculation: sidr_mapreduce::SpeculationPolicy::force([1]),
        ..base_config()
    };
    let exec = executor(&config);
    let plan = JobPlan::global(REDUCERS);
    let pool = SlotPool::new(4, 3).unwrap();
    let output = InMemoryOutput::new();
    let result =
        run_job_with_executor(&splits(), &plan, &output, &config, &pool, None, &exec).unwrap();
    let mut want: Vec<(u64, u64)> = (0..REDUCERS as u64).flat_map(expected).collect();
    want.sort_unstable();
    assert_eq!(output.sorted_records(), want);
    assert_eq!(
        result.counters.shuffle_connections,
        MAPS * REDUCERS as u64,
        "one connection per (map, reducer)"
    );
    // Every bound partition was released by its reduce: what is
    // left is at most the speculative loser's generation.
    assert!(exec.pressure().resident_partitions <= REDUCERS);

    // Failed: reducer 2 exhausts its budget after every map
    // committed.
    let config = JobConfig {
        fault_plan: FaultPlan::none()
            .with(FaultTarget::Reduce(2), 0, FaultKind::Fail)
            .with(FaultTarget::Reduce(2), 1, FaultKind::Fail),
        retry: RetryPolicy {
            max_task_attempts: 2,
            backoff_ms: 1,
        },
        ..base_config()
    };
    let exec = executor(&config);
    let plan = JobPlan::global(REDUCERS);
    let pool = SlotPool::new(4, 3).unwrap();
    let output = InMemoryOutput::new();
    let err =
        run_job_with_executor(&splits(), &plan, &output, &config, &pool, None, &exec).unwrap_err();
    assert!(matches!(err, MrError::TaskFailed { .. }), "{err:?}");
    // At most what the unfinished reducers were bound to.
    let unfinished = REDUCERS - output.commits().len();
    assert!(unfinished >= 1);
    assert!(exec.pressure().resident_partitions <= MAPS as usize * unfinished);

    // Cancelled mid-job, through the entry point that owns its
    // executor: maps have committed, every reduce is straggling.
    let straggle = FaultKind::Straggle { delay_ms: 30_000 };
    let config = JobConfig {
        fault_plan: (0..REDUCERS).fold(FaultPlan::none(), |plan, r| {
            plan.with(FaultTarget::Reduce(r), 0, straggle)
        }),
        ..base_config()
    };
    let plan = JobPlan::global(REDUCERS);
    let pool = SlotPool::new(4, 3).unwrap();
    let cancel = CancelToken::new();
    let output = InMemoryOutput::new();
    let result = std::thread::scope(|s| {
        let job = s.spawn(|| {
            run_shared(
                &splits(),
                sum_by_mod6(),
                &plan,
                &output,
                &config,
                &pool,
                Some(&cancel),
            )
        });
        std::thread::sleep(Duration::from_millis(150));
        cancel.cancel();
        job.join().unwrap()
    });
    assert!(matches!(result, Err(MrError::Cancelled)), "{result:?}");
}

/// Two keyblocks over disjoint halves of the input: reducer 0 reads
/// maps 0 and 1, reducer 1 maps 2 and 3.
fn halves() -> JobPlan {
    JobPlan::with_deps(vec![vec![0, 1], vec![2, 3]])
}

/// Release after reduce at job scale: with one reduce slot and
/// inverted scheduling, reducer 1's maps run only once reducer 0 has
/// reduced and released its `I_ℓ`, so the store never holds every
/// partition at once.
#[test]
fn disjoint_keyblocks_never_hold_every_partition() {
    let config = base_config();
    let executor = || {
        let halves = bodies(
            identity_source,
            |k, v, emit| emit(k, v),
            |k| usize::from(k >= MAPS * 5),
            sum,
        );
        InProcessExecutor::with_bodies(halves, &config)
    };

    // Every partition of the job, held at once.
    let all = executor();
    for m in 0..MAPS as usize {
        run_map(&all, m, 0);
    }
    let total = all.pressure().resident_bytes;

    let exec = executor();
    let pool = SlotPool::new(1, 1).unwrap();
    let output = InMemoryOutput::new();
    run_job_with_executor(&splits(), &halves(), &output, &config, &pool, None, &exec).unwrap();
    assert_eq!(
        output.sorted_records(),
        (0..MAPS * 10).map(|k| (k, k)).collect::<Vec<_>>()
    );
    let pressure = exec.pressure();
    assert_eq!(pressure.resident_partitions, 0, "every source released");
    assert!(
        pressure.peak_resident_bytes < total,
        "peak {} of {total} bytes",
        pressure.peak_resident_bytes
    );
}

/// A map that produces nothing for some reducer still costs that
/// reducer a connection (§4.6: every Reduce task contacts every
/// completed Map task).
#[test]
fn empty_partitions_still_count_a_connection() {
    // Every key lands on reducer 0: reducers 1 and 2 fetch nothing
    // but empties.
    let to_zero = bodies(
        identity_source,
        |_k, v, emit| emit(0, v),
        |k| (k % REDUCERS as u64) as usize,
        sum,
    );
    let output = InMemoryOutput::new();
    let result = run(
        &splits(),
        to_zero,
        &JobPlan::global(REDUCERS),
        &output,
        &base_config(),
        SLOTS,
    )
    .unwrap();
    assert_eq!(
        output.sorted_records(),
        vec![(0, (0..MAPS * 10).sum::<u64>())]
    );
    assert_eq!(result.counters.shuffle_connections, MAPS * REDUCERS as u64);
    assert_eq!(result.counters.shuffled_records, MAPS * 10);
}
