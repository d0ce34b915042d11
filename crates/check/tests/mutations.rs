//! Seeded mutation tests: re-introduce one classic concurrency bug at
//! a time through `sidr_mapreduce::sync::chaos` and prove the explorer
//! catches each with the matching finding. A checker that never fires
//! on a known-bad runtime is worthless — these are its teeth. Two
//! planner faults ride the same hooks and must fail the plan's build.
//!
//! The engine's waits have no safety tick, in this build or any
//! other, so a dropped wake is a hang the explorer sees, not a delay.
//!
//! The chaos flag is process-global, so every test serializes on one
//! lock and arms exactly one mutation for its duration.
#![cfg(check)]

#[path = "../../mapreduce/tests/support/mod.rs"]
mod support;

use std::sync::Mutex as TestLock;

use sidr_check::{Explorer, FindingKind, Strategy};
use sidr_coords::Shape;
use sidr_core::diag::codes;
use sidr_core::framework::{generate_splits, run_query, FrameworkMode, RunOptions};
use sidr_core::{Operator, PartitionPlus, SidrPlanner, StructuralQuery};
use sidr_mapreduce::sync::chaos::{self, Mutation};
use sidr_mapreduce::sync::thread;
use sidr_mapreduce::{
    AttemptBodies, FaultPlan, InMemoryOutput, InputSplit, JobConfig, JobPlan, MapTaskId,
    RetryPolicy, SlotPool,
};
use sidr_scifile::gen::{DatasetSpec, ValueModel};
use sidr_scifile::ScincFile;
use support::{bodies, number_splits, run_shared, sum};

static CHAOS: TestLock<()> = TestLock::new(());

/// Source yielding one `(id, id)` record per split.
fn diagonal_source(id: MapTaskId, _split: &InputSplit) -> Vec<(u64, u64)> {
    vec![(id as u64, id as u64)]
}

/// Every record's `key + 1`, summed on one reducer.
fn sum_to_one_key() -> impl AttemptBodies<Key = u64, Value = u64, Out = u64> {
    bodies(diagonal_source, |k, _v, emit| emit(0, k + 1), |_| 0, sum)
}

/// One tiny single-reducer job on `pool`: 2 maps, global barrier.
fn run_tiny_job(pool: &SlotPool) {
    let splits = number_splits(2, 2);
    let output = InMemoryOutput::new();
    run_shared(
        &splits,
        sum_to_one_key(),
        &JobPlan::global(1),
        &output,
        &JobConfig::default(),
        pool,
        None,
    )
    .unwrap();
    assert_eq!(output.sorted_records(), vec![(0, 3)]);
}

/// Two tiny jobs on a one-slot pool, each asking for slots the other
/// holds.
fn two_jobs_on_one_slot() {
    let pool = SlotPool::new(1, 1).unwrap();
    thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| run_tiny_job(&pool));
        }
    });
}

/// A `release` that rings none of the jobs that found the pool full
/// leaves a job's loop waiting on its inbox for a slot that is already
/// free, with nothing left to ring it: a LostWakeup finding.
#[test]
fn release_that_wakes_no_job_is_caught_as_lost_wakeup() {
    let _serial = CHAOS.lock().unwrap();
    let _armed = chaos::arm(Mutation::ReleaseWakesNoJob);
    let report = Explorer::new("mutation:release-wakes-no-job").run(
        Strategy::Random {
            schedules: 400,
            seed: 0x0BAD_0001,
        },
        two_jobs_on_one_slot,
    );
    report.assert_finds(FindingKind::LostWakeup);
}

/// An attempt whose report is queued without waking the loop strands a
/// loop that was already waiting with no timer armed: a LostWakeup
/// finding.
#[test]
fn dropped_post_wake_is_caught_as_lost_wakeup() {
    let _serial = CHAOS.lock().unwrap();
    let _armed = chaos::arm(Mutation::DropPostWake);
    let report = Explorer::new("mutation:drop-post-wake").run(
        Strategy::Random {
            schedules: 400,
            seed: 0x0BAD_0002,
        },
        || {
            let pool = SlotPool::new(2, 1).unwrap();
            run_tiny_job(&pool);
        },
    );
    report.assert_finds(FindingKind::LostWakeup);
}

/// Overlapping dependency sets: r0 <- {m0, m1}, r1 <- {m1, m2}.
fn overlap_plan() -> JobPlan {
    JobPlan::with_deps(vec![vec![0, 1], vec![1, 2]])
}

/// Skipping the volatile-recovery re-enqueue leaves the retrying
/// reducer waiting for map outputs nobody will rebuild. Any finding
/// (LostWakeup, StepLimit, Deadlock or a failed-output panic) means
/// the checker caught it.
#[test]
fn skipped_recovery_rewait_is_caught() {
    let _serial = CHAOS.lock().unwrap();
    let _armed = chaos::arm(Mutation::SkipRecoveryRewait);
    let report = Explorer::new("mutation:skip-recovery-rewait")
        .step_limit(15_000)
        .max_failures(2)
        .run(
            Strategy::Random {
                schedules: 40,
                seed: 0x0BAD_0004,
            },
            || {
                let pool = SlotPool::new(2, 2).unwrap();
                let splits = number_splits(3, 3);
                let overlap = bodies(
                    diagonal_source,
                    |k, _v, emit| {
                        emit(k, 100 + k);
                        emit(k + 1, 200 + k);
                    },
                    |k| usize::from(k > 1),
                    sum,
                );
                let output = InMemoryOutput::new();
                let config = JobConfig {
                    fault_plan: FaultPlan::fail_reducers_first_attempt([0, 1]),
                    volatile_intermediate: true,
                    retry: RetryPolicy {
                        backoff_ms: 1,
                        ..RetryPolicy::default()
                    },
                    ..Default::default()
                };
                run_shared(
                    &splits,
                    overlap,
                    &overlap_plan(),
                    &output,
                    &config,
                    &pool,
                    None,
                )
                .unwrap();
                assert_eq!(
                    output.sorted_records(),
                    vec![(0, 100), (1, 301), (2, 303), (3, 202)]
                );
            },
        );
    assert!(
        !report.failures.is_empty(),
        "mutated recovery path explored {} schedules without a finding",
        report.schedules
    );
}

/// `{12,6,5}` read by 6 splits, `{2,2,1}` keys: `K′ᵀ` `{6,3,5}` dealt
/// to 4 keyblocks in `{1,1,3}` units, the last of each row clipped to
/// 2 keys at the space's edge. Its plan proves clean unmutated.
fn clipped_query_job() -> (ScincFile, StructuralQuery, RunOptions) {
    let space = Shape::new(vec![12, 6, 5]).unwrap();
    let path =
        std::env::temp_dir().join(format!("sidr-check-planner-{}.scinc", std::process::id()));
    let ds = DatasetSpec {
        variable: "t".into(),
        dim_names: vec!["d0".into(), "d1".into(), "d2".into()],
        space: space.clone(),
        model: ValueModel::LinearIndex,
        seed: 5,
    };
    let file = ds.generate::<f64>(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    let query = StructuralQuery::new(
        "t",
        space,
        Shape::new(vec![2, 2, 1]).unwrap(),
        Operator::Sum,
    )
    .unwrap();
    let opts = RunOptions {
        split_bytes: 2 * 6 * 5 * 8,
        ..RunOptions::new(FrameworkMode::Sidr, 4)
    };
    let pp = PartitionPlus::for_query(&query, 4).unwrap();
    let (start, end) = pp.partition().block_run(3);
    let unit = pp.partition().skew_shape().count();
    assert!(
        pp.keyblock_key_count(3).unwrap() < (end - start) * unit,
        "no clipped unit"
    );
    let splits = generate_splits(&file, &query, FrameworkMode::Sidr, opts.split_bytes).unwrap();
    assert_eq!(splits.len(), 6);
    SidrPlanner::new(&query, 4).build(&splits).unwrap();
    (file, query, opts)
}

/// Under `mutation`, `run_query` fails in the plan's build, before
/// any task runs, with the code admission gives.
fn build_fails_with(mutation: Mutation, code: &str) {
    let _serial = CHAOS.lock().unwrap();
    let (file, query, opts) = clipped_query_job();
    let _armed = chaos::arm(mutation);
    match run_query(&file, &query, &opts) {
        Ok(_) => panic!("{mutation:?}: the plan built and ran"),
        Err(e) => assert!(
            e.to_string().contains(code),
            "{mutation:?}, not {code}: {e}"
        ),
    }
}

/// A derivation that drops one dependency edge is `SIDR-E003`.
#[test]
fn dropped_derived_edge_fails_the_build_as_e003() {
    build_fails_with(Mutation::DeriveDropsEdge, codes::DEP_MISSING);
}

/// A last keyblock cover short of its clipped unit is `SIDR-E001`.
#[test]
fn short_last_cover_fails_the_build_as_e001() {
    build_fails_with(Mutation::ShortLastCover, codes::COVERAGE);
}
