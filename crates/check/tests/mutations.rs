//! Seeded mutation tests: re-introduce one classic concurrency bug at
//! a time through `sidr_mapreduce::sync::chaos` and prove the explorer
//! catches each with the matching finding. A checker that never fires
//! on a known-bad runtime is worthless — these are its teeth.
//!
//! The engine's waits have no safety tick under `--cfg check`, so a
//! dropped notification is a hang the explorer sees, not a delay.
//!
//! The chaos flag is process-global, so every test serializes on one
//! lock and arms exactly one mutation for its duration.
#![cfg(check)]

use std::sync::Mutex as TestLock;

use sidr_check::{Explorer, FindingKind, Strategy};
use sidr_coords::{Shape, Slab};
use sidr_mapreduce::sync::chaos::{self, Mutation};
use sidr_mapreduce::sync::thread;
use sidr_mapreduce::{
    run_job_shared, DefaultPlan, FaultPlan, FnMapper, FnReducer, InMemoryOutput, InputSplit,
    JobConfig, MapTaskId, ModuloPartitioner, RetryPolicy, RoutingPlan, SliceRecordSource, SlotPool,
};

static CHAOS: TestLock<()> = TestLock::new(());

fn unit_splits(n: u64) -> Vec<InputSplit> {
    let space = Shape::new(vec![n]).unwrap();
    Slab::whole(&space)
        .split_along_longest(n)
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

fn diagonal_source(
    id: MapTaskId,
    _split: &InputSplit,
) -> sidr_mapreduce::Result<SliceRecordSource<u64, u64>> {
    Ok(SliceRecordSource::new(vec![(id as u64, id as u64)]))
}

/// One tiny single-reducer job on `pool`: 2 maps, global barrier.
fn run_tiny_job(pool: &SlotPool) {
    let splits = unit_splits(2);
    let mapper = FnMapper::new(|k: &u64, _v: &u64, emit: &mut dyn FnMut(u64, u64)| emit(0, *k + 1));
    let reducer =
        FnReducer::new(|_k: &u64, vs: &[u64], emit: &mut dyn FnMut(u64)| emit(vs.iter().sum()));
    let plan = DefaultPlan::<u64, _>::new(ModuloPartitioner, 1);
    let output = InMemoryOutput::new();
    run_job_shared(
        &splits,
        &diagonal_source,
        &mapper,
        None,
        &reducer,
        &plan,
        &output,
        &JobConfig::default(),
        pool,
        None,
    )
    .unwrap();
    assert_eq!(output.sorted_records(), vec![(0, 3)]);
}

/// A `release` that forgets its `notify_one` leaves the blocked
/// acquirer with no wake source: it stays parked on the semaphore's
/// condvar with nothing left to run, which the scheduler reports as
/// LostWakeup.
#[test]
fn dropped_release_notify_is_caught_as_lost_wakeup() {
    let _serial = CHAOS.lock().unwrap();
    let _armed = chaos::arm(Mutation::DropSemReleaseNotify);
    let report = Explorer::new("mutation:drop-release-notify").run(
        Strategy::Random {
            schedules: 400,
            seed: 0x0BAD_0001,
        },
        || {
            let pool = SlotPool::new(1, 1).unwrap();
            thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        assert!(pool.map_sem().acquire(&|| false));
                        pool.map_sem().release();
                    });
                }
            });
            assert_eq!(pool.map_sem().in_use(), 0);
        },
    );
    report.assert_finds(FindingKind::LostWakeup);
}

/// A map commit that skips `notify_all` strands the reducer parked on
/// the barrier condvar: a LostWakeup finding.
#[test]
fn dropped_map_done_notify_is_caught_as_lost_wakeup() {
    let _serial = CHAOS.lock().unwrap();
    let _armed = chaos::arm(Mutation::DropMapDoneNotify);
    let report = Explorer::new("mutation:drop-map-done-notify").run(
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

/// Widening the state critical section across the slot acquire makes
/// the acquire's abort predicate re-lock a mutex its own thread holds
/// the moment the semaphore is contended — a self-deadlock finding.
/// Two jobs share a one-slot pool so the contended path is reachable.
#[test]
fn state_lock_held_across_acquire_is_caught_as_deadlock() {
    let _serial = CHAOS.lock().unwrap();
    let _armed = chaos::arm(Mutation::HoldStateAcrossAcquire);
    let report = Explorer::new("mutation:hold-state-across-acquire").run(
        Strategy::Random {
            schedules: 400,
            seed: 0x0BAD_0003,
        },
        || {
            let pool = SlotPool::new(1, 1).unwrap();
            thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| run_tiny_job(&pool));
                }
            });
        },
    );
    report.assert_finds(FindingKind::Deadlock);
}

/// Overlapping dependency sets: r0 <- {m0, m1}, r1 <- {m1, m2}.
struct OverlapPlan;

impl RoutingPlan<u64> for OverlapPlan {
    fn num_reducers(&self) -> usize {
        2
    }
    fn partition(&self, key: &u64) -> usize {
        usize::from(*key > 1)
    }
    fn reduce_deps(&self, reducer: usize) -> Option<Vec<MapTaskId>> {
        Some(if reducer == 0 { vec![0, 1] } else { vec![1, 2] })
    }
    fn invert_scheduling(&self) -> bool {
        true
    }
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
                let splits = unit_splits(3);
                let mapper = FnMapper::new(|k: &u64, _v: &u64, emit: &mut dyn FnMut(u64, u64)| {
                    emit(*k, 100 + *k);
                    emit(*k + 1, 200 + *k);
                });
                let reducer = FnReducer::new(|_k: &u64, vs: &[u64], emit: &mut dyn FnMut(u64)| {
                    emit(vs.iter().sum())
                });
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
                run_job_shared(
                    &splits,
                    &diagonal_source,
                    &mapper,
                    None,
                    &reducer,
                    &OverlapPlan,
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

/// A spill install that forgets to notify the `moved` condvar leaves
/// fetchers of the moving partition parked with no wake source, which
/// the scheduler reports as LostWakeup. This is the teeth behind the spill-tier
/// scenario's claim that waiting out `Moving` is properly notified.
#[test]
fn dropped_tier_move_notify_is_caught_as_lost_wakeup() {
    use sidr_mapreduce::tier::MemBackend;
    let _serial = CHAOS.lock().unwrap();
    let _armed = chaos::arm(Mutation::DropTierMoveNotify);
    let report = Explorer::new("mutation:drop-tier-move-notify").run(
        Strategy::Random {
            schedules: 400,
            seed: 0x0BAD_0006,
        },
        || {
            let backend = std::sync::Arc::new(MemBackend::new());
            let encode = |salt: u64| {
                let records: Vec<(sidr_coords::Coord, f64)> = (0..8)
                    .map(|i| (sidr_coords::Coord::from([salt, i]), i as f64))
                    .collect();
                std::sync::Arc::new(
                    sidr_mapreduce::shuffle_file::encode_map_output(
                        &sidr_mapreduce::MapOutputFile {
                            raw_count: records.len() as u64,
                            records,
                        },
                    )
                    .unwrap(),
                )
            };
            let a = encode(0);
            let b = encode(1);
            // Room for exactly one partition: inserting B forces the
            // already-admitted A through the `Moving` state, where the
            // fetcher must wait on the (mutated) notify.
            let store = sidr_mapreduce::PartitionStore::new(
                sidr_mapreduce::TierConfig {
                    budget_bytes: a.len() as u64,
                },
                std::sync::Arc::clone(&backend) as std::sync::Arc<dyn sidr_mapreduce::SpillBackend>,
            );
            store.prepare_job(9, FaultPlan::none(), &[1, 1]);
            let key_a = (9u64, 0usize, 0usize, 0u32);
            let key_b = (9u64, 1usize, 0usize, 0u32);
            thread::scope(|s| {
                s.spawn(|| {
                    store.insert(key_a, std::sync::Arc::clone(&a));
                    store.insert(key_b, std::sync::Arc::clone(&b));
                });
                s.spawn(|| {
                    if let Some(read) = store.get(&key_a).unwrap() {
                        assert_eq!(&*read, &*a);
                    }
                });
            });
        },
    );
    report.assert_finds(FindingKind::LostWakeup);
}
