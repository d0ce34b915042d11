//! Fault-tolerance acceptance tests: the full injected-fault matrix
//! (task failures, transient source errors, corrupt/truncated shuffle
//! files, stragglers) recovers within the retry budget with output
//! byte-identical to a fault-free run, recovery stays bounded by the
//! dependency set `I_ℓ`, and exhausted budgets fail the job with a
//! typed error instead of wrong answers.

mod support;

use std::time::{Duration, Instant};

use proptest::prelude::*;
use sidr_mapreduce::{
    reexecuted_maps, FaultKind, FaultPlan, FaultTarget, InMemoryOutput, InputSplit, JobConfig,
    JobPlan, MapTaskId, MrError, RetryPolicy, SpeculationPolicy, TaskKind,
};
use support::{bodies, identity_source, number_splits, run, sum, sum_by_mod10, SLOTS};

/// Ground truth for sum_by_mod10 over `0..n`.
fn digit_sums(n: u64) -> Vec<(u64, u64)> {
    (0..10u64)
        .map(|d| (d, (0..n).filter(|i| i % 10 == d).sum()))
        .collect()
}

/// Runs the sum_by_mod10 workload under `config` and returns its
/// sorted output plus the job result.
fn run_sums(
    n: u64,
    pieces: u64,
    reducers: usize,
    config: &JobConfig,
) -> (Vec<(u64, u64)>, sidr_mapreduce::JobResult) {
    try_run_sums(n, pieces, reducers, config).unwrap()
}

/// [`run_sums`] for a job that may fail.
fn try_run_sums(
    n: u64,
    pieces: u64,
    reducers: usize,
    config: &JobConfig,
) -> sidr_mapreduce::Result<(Vec<(u64, u64)>, sidr_mapreduce::JobResult)> {
    let splits = number_splits(n, pieces);
    let output = InMemoryOutput::new();
    let result = run(
        &splits,
        sum_by_mod10(reducers),
        &JobPlan::global(reducers),
        &output,
        config,
        SLOTS,
    )?;
    Ok((output.sorted_records(), result))
}

/// The full map-side fault matrix, one kind at a time: every kind
/// recovers within the default retry budget and the output matches the
/// fault-free ground truth exactly.
#[test]
fn map_fault_matrix_recovers_with_identical_output() {
    let expect = digit_sums(120);
    for kind in [
        FaultKind::Fail,
        FaultKind::SourceError { after_records: 3 },
        FaultKind::CorruptOutput,
        FaultKind::TruncateOutput,
        FaultKind::Straggle { delay_ms: 10 },
    ] {
        let config = JobConfig {
            fault_plan: FaultPlan::none().with(FaultTarget::Map(2), 0, kind),
            ..Default::default()
        };
        let (records, result) = run_sums(120, 6, 4, &config);
        assert_eq!(records, expect, "{kind:?}: output diverged");
        match kind {
            FaultKind::Fail | FaultKind::SourceError { .. } => {
                assert_eq!(result.count(TaskKind::MapFailed), 1, "{kind:?}");
                assert_eq!(result.count(TaskKind::MapRetry), 1, "{kind:?}");
                assert!(
                    result.events.iter().any(|e| e.kind == TaskKind::MapFailed),
                    "{kind:?}: no MapFailed event"
                );
                assert!(
                    result
                        .events
                        .iter()
                        .any(|e| e.kind == TaskKind::MapRetry && e.attempt == 1),
                    "{kind:?}: no attempt-1 MapRetry event"
                );
            }
            FaultKind::CorruptOutput | FaultKind::TruncateOutput => {
                assert!(
                    result.counters.lost_source_reports >= 1,
                    "{kind:?}: corruption never detected at fetch time"
                );
                assert_eq!(
                    reexecuted_maps(&result.events),
                    vec![2],
                    "{kind:?}: recovery not scoped to the damaged map"
                );
            }
            FaultKind::Straggle { .. } => {
                assert_eq!(result.count(TaskKind::MapFailed), 0, "{kind:?}");
            }
            // Spill-tier kinds need a budgeted PartitionStore to fire;
            // they are exercised in tests/spill.rs and the worker's
            // dist suite, not this in-memory matrix.
            FaultKind::SpillWriteFail
            | FaultKind::SpillReadCorrupt
            | FaultKind::SpillReadTruncate => unreachable!(),
        }
    }
}

/// A fault scripted for every attempt exhausts the budget and the job
/// fails with the typed `TaskFailed` error — never a wrong answer.
#[test]
fn exhausted_retry_budget_fails_job_with_typed_error() {
    let retry = RetryPolicy {
        max_task_attempts: 2,
        backoff_ms: 1,
    };
    let splits = number_splits(40, 4);
    let output = InMemoryOutput::new();
    let err = run(
        &splits,
        sum_by_mod10(2),
        &JobPlan::global(2),
        &output,
        &JobConfig {
            retry,
            fault_plan: FaultPlan::none()
                .with(FaultTarget::Map(0), 0, FaultKind::Fail)
                .with(FaultTarget::Map(0), 1, FaultKind::Fail),
            ..Default::default()
        },
        SLOTS,
    )
    .unwrap_err();
    match err {
        MrError::TaskFailed { task, .. } => assert!(task.contains("map 0"), "task = {task}"),
        other => panic!("expected TaskFailed, got {other:?}"),
    }
}

/// Reduce-side budget exhaustion is typed too.
#[test]
fn reduce_exhaustion_fails_job_with_typed_error() {
    let splits = number_splits(40, 4);
    let output = InMemoryOutput::new();
    let err = run(
        &splits,
        sum_by_mod10(2),
        &JobPlan::global(2),
        &output,
        &JobConfig {
            retry: RetryPolicy {
                max_task_attempts: 2,
                backoff_ms: 1,
            },
            fault_plan: FaultPlan::none()
                .with(FaultTarget::Reduce(1), 0, FaultKind::Fail)
                .with(FaultTarget::Reduce(1), 1, FaultKind::Fail),
            ..Default::default()
        },
        SLOTS,
    )
    .unwrap_err();
    match err {
        MrError::TaskFailed { task, .. } => assert!(task.contains("reduce 1"), "task = {task}"),
        other => panic!("expected TaskFailed, got {other:?}"),
    }
}

/// A 1:1 dependency plan (reducer i depends only on map i), as in the
/// engine tests — the smallest plan with non-trivial `I_ℓ`.
fn one_to_one(n: usize) -> JobPlan {
    JobPlan::with_deps((0..n).map(|r| vec![r]).collect())
}

fn diagonal_source(id: MapTaskId, _split: &InputSplit) -> Vec<(u64, u64)> {
    vec![(id as u64, 100 + id as u64)]
}

/// Dependency-scoped recovery: a reduce that fails after its barrier
/// under volatile intermediate data re-executes exactly the maps in
/// its `I_ℓ` — asserted from the attempt-stamped timeline, not just
/// the counter.
#[test]
fn failed_reduce_reexecutes_exactly_its_dependency_set() {
    let n = 5usize;
    let splits = number_splits(n as u64, n as u64);
    let diagonal = bodies(
        diagonal_source,
        |k, v, emit| emit(k, v),
        move |k| k as usize % n,
        sum,
    );
    let plan = one_to_one(n);
    let output = InMemoryOutput::new();
    let result = run(
        &splits,
        diagonal,
        &plan,
        &output,
        &JobConfig {
            fault_plan: FaultPlan::fail_reducers_first_attempt([3]),
            volatile_intermediate: true,
            ..Default::default()
        },
        SLOTS,
    )
    .unwrap();
    let i_ell = plan.reduce_deps.unwrap()[3].clone();
    assert_eq!(
        reexecuted_maps(&result.events),
        i_ell,
        "re-executed maps must equal the failed reduce's I_ℓ"
    );
    assert_eq!(result.count(TaskKind::MapLost), i_ell.len() as u64);
    // The failed attempt and the successful one are both attempt-
    // stamped on the timeline.
    assert!(result
        .events
        .iter()
        .any(|e| e.kind == TaskKind::ReduceFailed && e.task == 3 && e.attempt == 0));
    assert!(result
        .events
        .iter()
        .any(|e| e.kind == TaskKind::ReduceEnd && e.task == 3 && e.attempt == 1));
    let records = output.sorted_records();
    assert_eq!(records.len(), n);
    for (k, v) in records {
        assert_eq!(v, 100 + k);
    }
}

/// Speculative execution, deterministic direction: a forced twin
/// races a scripted 3-second straggler and wins. The job finishes far
/// inside the straggle delay (the loser's sleep is cancellation-aware),
/// output is byte-identical to the fault-free ground truth, exactly one
/// extra attempt was granted, and — because speculation is not
/// recovery — nothing is re-executed and nothing failed.
#[test]
fn speculative_twin_rescues_straggler_with_identical_output() {
    let config = JobConfig {
        fault_plan: FaultPlan::none().with(
            FaultTarget::Map(2),
            0,
            FaultKind::Straggle { delay_ms: 3_000 },
        ),
        speculation: SpeculationPolicy::force([2]),
        ..Default::default()
    };
    let started = Instant::now();
    let (records, result) = run_sums(120, 6, 4, &config);
    let elapsed = started.elapsed();
    assert_eq!(records, digit_sums(120), "speculative run diverged");
    assert!(
        elapsed < Duration::from_millis(2_000),
        "straggler not rescued: wall time {elapsed:?} vs 3 s straggle"
    );
    // Exactly one grant (at-most-one-extra-attempt), stamped with the
    // twin's attempt id.
    let grants: Vec<_> = result
        .events
        .iter()
        .filter(|e| e.kind == TaskKind::MapSpeculated)
        .collect();
    assert_eq!(grants.len(), 1, "expected exactly one speculative grant");
    assert_eq!((grants[0].task, grants[0].attempt), (2, 1));
    // The race has a winner (the twin commits) and a named loser.
    assert!(result
        .events
        .iter()
        .any(|e| e.kind == TaskKind::MapEnd && e.task == 2 && e.attempt == 1));
    assert!(result
        .events
        .iter()
        .any(|e| e.kind == TaskKind::MapSpeculationLost && e.task == 2 && e.attempt == 0));
    // Speculation is not recovery.
    assert!(reexecuted_maps(&result.events).is_empty());
    assert_eq!(result.count(TaskKind::MapFailed), 0);
    // Only the committed attempt's tally counts, whenever the loser
    // reports.
    assert_eq!(result.counters.map_records_in, 120);
}

/// Speculative execution, timing direction: no forcing — the
/// cohort-quantile trigger alone notices a 5-second straggler once
/// the cohort floor's fast commits exist, races it, and the twin's commit
/// releases the job well inside the scripted delay.
#[test]
fn quantile_trigger_speculates_straggler_without_forcing() {
    let config = JobConfig {
        fault_plan: FaultPlan::none().with(
            FaultTarget::Map(5),
            0,
            FaultKind::Straggle { delay_ms: 5_000 },
        ),
        speculation: SpeculationPolicy::on(),
        ..Default::default()
    };
    let started = Instant::now();
    let (records, result) = run_sums(120, 6, 4, &config);
    let elapsed = started.elapsed();
    assert_eq!(records, digit_sums(120), "quantile-triggered run diverged");
    assert!(
        elapsed < Duration::from_millis(2_500),
        "quantile trigger never fired: wall time {elapsed:?} vs 5 s straggle"
    );
    assert!(
        result
            .events
            .iter()
            .any(|e| e.kind == TaskKind::MapSpeculated && e.task == 5),
        "no speculative grant for the straggling map"
    );
    assert!(reexecuted_maps(&result.events).is_empty());
}

/// First commit wins from either side: when the *twin* is the slow
/// copy (primary straggles briefly, twin straggles for seconds), the
/// primary's commit stands and the twin is discarded as wasted work —
/// attempt-stamped on the timeline, never surfaced as a failure.
#[test]
fn primary_wins_race_and_slow_twin_is_discarded() {
    let config = JobConfig {
        fault_plan: FaultPlan::none()
            .with(
                FaultTarget::Map(2),
                0,
                FaultKind::Straggle { delay_ms: 200 },
            )
            .with(
                FaultTarget::Map(2),
                1,
                FaultKind::Straggle { delay_ms: 5_000 },
            ),
        speculation: SpeculationPolicy::force([2]),
        ..Default::default()
    };
    let started = Instant::now();
    let (records, result) = run_sums(120, 6, 4, &config);
    let elapsed = started.elapsed();
    assert_eq!(records, digit_sums(120), "primary-wins run diverged");
    assert!(
        elapsed < Duration::from_millis(2_500),
        "losing twin was not torn down promptly: wall time {elapsed:?}"
    );
    // The primary's commit stands.
    assert!(result
        .events
        .iter()
        .any(|e| e.kind == TaskKind::MapEnd && e.task == 2 && e.attempt == 0));
    // If the twin got off the ground before the primary committed, it
    // must be recorded as the loser; either way nothing failed and
    // nothing was re-executed.
    if result
        .events
        .iter()
        .any(|e| e.kind == TaskKind::MapSpeculated && e.task == 2)
    {
        assert!(result
            .events
            .iter()
            .any(|e| e.kind == TaskKind::MapSpeculationLost && e.task == 2 && e.attempt == 1));
    }
    assert!(reexecuted_maps(&result.events).is_empty());
    assert_eq!(result.count(TaskKind::MapFailed), 0);
    assert_eq!(result.counters.map_records_in, 120);
}

/// A racer that finishes its work after the other attempt committed,
/// while the job still runs, adds no tally: both attempts of map 2
/// meet inside their work, past any pause a lost race could cut
/// short, so both return one; map 5's 300 ms straggle keeps the job
/// running when the loser reports. Only the committed attempt's 20
/// records count.
#[test]
fn losing_racer_that_finishes_adds_no_tally() {
    let met = (std::sync::Mutex::new(0u32), std::sync::Condvar::new());
    let meeting_map_2 = bodies(
        |task, split: &InputSplit| {
            if task == 2 {
                let (arrived, cv) = &met;
                let mut n = arrived.lock().expect("no attempt panics holding it");
                *n += 1;
                cv.notify_all();
                let wait = Duration::from_secs(10);
                drop(cv.wait_timeout_while(n, wait, |n| *n < 2));
            }
            identity_source(task, split)
        },
        |k, v, emit| emit(k % 10, v),
        |k| (k % 4) as usize,
        sum,
    );
    let config = JobConfig {
        fault_plan: FaultPlan::straggle_maps([5], 300),
        speculation: SpeculationPolicy::force([2]),
        ..Default::default()
    };
    let output = InMemoryOutput::new();
    let splits = number_splits(120, 6);
    let result = run(
        &splits,
        meeting_map_2,
        &JobPlan::global(4),
        &output,
        &config,
        SLOTS,
    )
    .unwrap();
    assert_eq!(output.sorted_records(), digit_sums(120));
    let lost =
        (result.events.iter()).any(|e| e.kind == TaskKind::MapSpeculationLost && e.task == 2);
    assert!(lost, "map 2 ran no race");
    assert_eq!(result.counters.map_records_in, 120);
    assert_eq!(result.counters.map_records_out, 120);
}

/// The engine owns the deadline: a job still running when
/// `JobConfig::deadline` expires fails with the typed
/// `DeadlineExceeded` — within one wakeup of the deadline, not after
/// its 3 s straggler — and unwinds by notification: untimed waits
/// have no other way to end, so a lost wake-up hangs this test.
#[test]
fn deadline_abandons_straggling_job_by_notification() {
    let config = JobConfig {
        fault_plan: FaultPlan::straggle_maps([2], 3_000),
        deadline: Some(Duration::from_millis(50)),
        ..Default::default()
    };
    let started = Instant::now();
    let result = try_run_sums(120, 6, 4, &config);
    let elapsed = started.elapsed();
    assert!(
        matches!(result, Err(MrError::DeadlineExceeded { deadline_ms: 50 })),
        "expected DeadlineExceeded, got {result:?}"
    );
    assert!(
        elapsed < Duration::from_millis(150),
        "deadline enforced late: {elapsed:?} for a 50 ms deadline"
    );
}

/// Deadline pressure, boost alone: the trigger itself is unreachable
/// (`slowdown` 1e9), so the straggler is raced only because the coordinator loop
/// projected the job past its deadline and boosted the trigger. The
/// boost fires once, its twin wins, and the job makes its deadline
/// with output identical to a fault-free run.
#[test]
fn deadline_boost_alone_rescues_straggler() {
    let boosts = &sidr_mapreduce::metrics::runtime().deadline_boosts;
    let boosts_before = boosts.get();
    // Every other first attempt takes 20 ms, so the cohort projects a
    // nonzero remainder; map 5's first attempt takes 5 s.
    let config = JobConfig {
        fault_plan: FaultPlan::straggle_maps(0..5, 20).with(
            FaultTarget::Map(5),
            0,
            FaultKind::Straggle { delay_ms: 5_000 },
        ),
        speculation: SpeculationPolicy {
            slowdown: 1e9,
            ..SpeculationPolicy::on()
        },
        deadline: Some(Duration::from_secs(1)),
        ..Default::default()
    };
    let (records, result) = run_sums(120, 6, 4, &config);
    assert_eq!(records, digit_sums(120), "boosted run diverged");
    assert_eq!(boosts.get() - boosts_before, 1, "one boost per job");
    let grants: Vec<_> = (result.events.iter())
        .filter(|e| e.kind == TaskKind::MapSpeculated)
        .map(|e| (e.task, e.attempt))
        .collect();
    assert_eq!(
        grants,
        vec![(5, 1)],
        "the boost grants exactly the straggler's twin"
    );
    assert!(result
        .events
        .iter()
        .any(|e| e.kind == TaskKind::MapEnd && e.task == 5 && e.attempt == 1));
    assert!(reexecuted_maps(&result.events).is_empty());
}

proptest! {
    /// Property: ANY random fault plan within the retry budget — up to
    /// three faults drawn from the full matrix, at most one per task —
    /// yields output byte-identical to the fault-free ground truth;
    /// every run's event stream satisfies the timeline protocol, R4
    /// included, or the run would have failed.
    #[test]
    fn random_fault_plans_preserve_output(seed in 0u64..10_000) {
        let plan = FaultPlan::random(seed, 6, 4, 3);
        let config = JobConfig {
            fault_plan: plan,
            retry: RetryPolicy { max_task_attempts: 3, backoff_ms: 1 },
            ..Default::default()
        };
        let (records, result) = run_sums(120, 6, 4, &config);
        prop_assert_eq!(records, digit_sums(120));
        // The job checked its own timeline, R4 included, before it
        // returned. With persistent intermediate data only a lost
        // source re-opens a map, and each one does.
        prop_assert_eq!(
            result.counters.lost_source_reports > 0,
            !reexecuted_maps(&result.events).is_empty()
        );
    }
}
