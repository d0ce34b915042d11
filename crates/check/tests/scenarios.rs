//! The core concurrency scenarios from the runtime, explored
//! under the virtual scheduler. These compile only under
//! `RUSTFLAGS='--cfg check'`, where `sidr-mapreduce::sync` re-exports
//! the checker's primitives and clock, and the *production*
//! SlotPool/CancelToken/recovery/monitor code runs unmodified inside
//! each explored schedule — its waits with no safety tick, its sleeps
//! and deadlines on virtual time.
//!
//! Every scenario body is self-contained (fresh pool, fresh job) and
//! asserts its own postconditions, so a bad interleaving surfaces as a
//! replayable failing schedule — `assert_clean` prints the seed or
//! decision trace to re-run it.
#![cfg(check)]

use std::time::{Duration, Instant};

use sidr_check::{Explorer, Strategy};
use sidr_coords::{Shape, Slab};
use sidr_core::TimelineOracle;
use sidr_mapreduce::sync::atomic::{AtomicUsize, Ordering};
use sidr_mapreduce::sync::{thread, time};
use sidr_mapreduce::{
    run_job_shared, CancelToken, DefaultPlan, FaultKind, FaultPlan, FaultTarget, FnMapper,
    FnReducer, InMemoryOutput, InputSplit, JobConfig, MapTaskId, ModuloPartitioner, MrError,
    RetryPolicy, RoutingPlan, SliceRecordSource, SlotPool, SpeculationPolicy, TaskKind,
};

/// Splits `0..n` into `n` one-record splits.
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

/// Source yielding one `(id, id)` record per split.
fn diagonal_source(
    id: MapTaskId,
    _split: &InputSplit,
) -> sidr_mapreduce::Result<SliceRecordSource<u64, u64>> {
    Ok(SliceRecordSource::new(vec![(id as u64, id as u64)]))
}

// ---------------------------------------------------------------------------
// Scenario 1: concurrent acquire/release/wake_all on one SlotPool.
// ---------------------------------------------------------------------------

/// Three acquirers contend for two map slots while a fourth thread
/// fires `wake_all` (the job-failure/cancellation broadcast) at an
/// arbitrary point. The virtual `held` counter proves mutual exclusion
/// of the slot count itself; the final `in_use` check proves no
/// release is lost or doubled.
fn slot_pool_scenario() {
    let pool = SlotPool::new(2, 1).unwrap();
    let held = AtomicUsize::new(0);
    thread::scope(|s| {
        for _ in 0..3 {
            s.spawn(|| {
                if pool.map_sem().acquire(&|| false) {
                    let now = held.fetch_add(1, Ordering::SeqCst) + 1;
                    assert!(now <= 2, "{now} concurrent holders of 2 slots");
                    held.fetch_sub(1, Ordering::SeqCst);
                    pool.map_sem().release();
                }
            });
        }
        s.spawn(|| pool.map_sem().wake_all());
    });
    assert_eq!(pool.map_sem().in_use(), 0, "slots leaked");
}

#[test]
fn slot_pool_acquire_release_wake_all_is_clean() {
    let report = Explorer::new("slot-pool").run(
        Strategy::Exhaustive {
            max_schedules: 1_500,
        },
        slot_pool_scenario,
    );
    report.assert_clean();
    assert!(
        report.distinct >= 1_000,
        "only {} schedules",
        report.distinct
    );
}

// ---------------------------------------------------------------------------
// Scenario 2: cancellation racing a worker blocked on the last slot.
// ---------------------------------------------------------------------------

/// One thread holds the only map slot, a second blocks acquiring it
/// with a cancellation-abort predicate, a third cancels the token.
/// The registered semaphore waker must wake the blocked thread no
/// matter how the three interleave — a missed wake shows up as a
/// LostWakeup finding, a stuck one as Deadlock.
fn cancel_scenario() {
    let pool = SlotPool::new(1, 1).unwrap();
    let token = CancelToken::new();
    let reg = token.register(pool.map_sem().waker());
    thread::scope(|s| {
        s.spawn(|| {
            assert!(pool.map_sem().acquire(&|| false));
            pool.map_sem().release();
        });
        s.spawn(|| {
            if pool.map_sem().acquire(&|| token.is_cancelled()) {
                pool.map_sem().release();
            }
        });
        s.spawn(|| token.cancel());
    });
    assert_eq!(pool.map_sem().in_use(), 0, "slots leaked");
    drop(reg);
    assert_eq!(token.waker_count(), 0, "waker registration leaked");
}

#[test]
fn cancel_racing_blocked_worker_is_clean() {
    let report = Explorer::new("cancel-race").run(
        Strategy::Exhaustive {
            max_schedules: 1_500,
        },
        cancel_scenario,
    );
    report.assert_clean();
    assert!(
        report.distinct >= 1_000,
        "only {} schedules",
        report.distinct
    );
}

// ---------------------------------------------------------------------------
// Scenario 3: volatile recovery re-wait racing late map commits.
// ---------------------------------------------------------------------------

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

/// Both reducers fail their first attempt over volatile intermediate
/// data, so each must re-execute its (overlapping) dependency set and
/// re-wait its barrier while the other's recovery commits maps late.
/// Output equality proves no stale/consumed data was reduced; the
/// timeline oracle proves the per-attempt barrier protocol held in
/// the explored interleaving.
fn recovery_scenario() {
    let pool = SlotPool::new(2, 2).unwrap();
    let splits = unit_splits(3);
    let mapper = FnMapper::new(|k: &u64, _v: &u64, emit: &mut dyn FnMut(u64, u64)| {
        emit(*k, 100 + *k);
        emit(*k + 1, 200 + *k);
    });
    let reducer =
        FnReducer::new(|_k: &u64, vs: &[u64], emit: &mut dyn FnMut(u64)| emit(vs.iter().sum()));
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
    let result = run_job_shared(
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
    assert_eq!(result.counters.reduce_failures, 2);
    let oracle = TimelineOracle::new(3, 2)
        .volatile_intermediate(true)
        .with_deps(0, vec![0, 1])
        .with_deps(1, vec![1, 2]);
    if let Err(v) = oracle.check_complete(&result.events) {
        panic!("timeline protocol violation: {v}");
    }
}

#[test]
fn volatile_recovery_with_overlapping_deps_is_clean() {
    Explorer::new("recovery-rewait")
        .run(
            Strategy::Random {
                schedules: 250,
                seed: 0x51D2_0003,
            },
            recovery_scenario,
        )
        .assert_clean();
}

// ---------------------------------------------------------------------------
// Scenario 4: two jobs contending for the last slot of a shared pool.
// ---------------------------------------------------------------------------

/// The multi-tenant serving shape at its tightest: two concurrent jobs
/// multiplexed over a 1-map/1-reduce slot pool, so every task of one
/// job races every task of the other for the same semaphore.
fn last_slot_scenario() {
    let pool = SlotPool::new(1, 1).unwrap();
    thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                let splits = unit_splits(2);
                let mapper = FnMapper::new(|k: &u64, _v: &u64, emit: &mut dyn FnMut(u64, u64)| {
                    emit(0, *k + 1)
                });
                let reducer = FnReducer::new(|_k: &u64, vs: &[u64], emit: &mut dyn FnMut(u64)| {
                    emit(vs.iter().sum())
                });
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
                    &pool,
                    None,
                )
                .unwrap();
                assert_eq!(output.sorted_records(), vec![(0, 3)]);
            });
        }
    });
    assert_eq!(pool.map_sem().in_use(), 0, "map slots leaked");
    assert_eq!(pool.reduce_sem().in_use(), 0, "reduce slots leaked");
}

#[test]
fn two_jobs_contending_for_last_slot_is_clean() {
    Explorer::new("last-slot")
        .run(
            Strategy::Random {
                schedules: 250,
                seed: 0x51D2_0004,
            },
            last_slot_scenario,
        )
        .assert_clean();
}

// ---------------------------------------------------------------------------
// Scenario 5: speculative race — winner commit vs loser commit vs
// reducer bind, over volatile intermediate data.
// ---------------------------------------------------------------------------

/// 1:1 dependencies: reducer i <- map i, inverted scheduling.
struct PairPlan;

impl RoutingPlan<u64> for PairPlan {
    fn num_reducers(&self) -> usize {
        2
    }
    fn partition(&self, key: &u64) -> usize {
        (*key as usize) % 2
    }
    fn reduce_deps(&self, reducer: usize) -> Option<Vec<MapTaskId>> {
        Some(vec![reducer])
    }
    fn invert_scheduling(&self) -> bool {
        true
    }
}

/// Map 0 is force-speculated (no timing involved; scenario 8 drives the
/// timed trigger), so explored
/// schedules include the twin launching, either racer claiming the
/// commit first, the loser inserting its own generation into the
/// in-process executor's table before or after the winner's, and the
/// dependent reducer binding and consuming at every point in between
/// — over *volatile* intermediate data, where consuming anything but
/// the committed generation would strand the reducer. Output equality
/// proves the winner's data (and only it) was reduced; the oracle proves the
/// attempt-stamped protocol, including the at-most-one-extra-attempt
/// rule (R6), held on every schedule.
fn speculation_scenario() {
    let pool = SlotPool::new(2, 2).unwrap();
    let splits = unit_splits(2);
    let mapper = FnMapper::new(|k: &u64, _v: &u64, emit: &mut dyn FnMut(u64, u64)| {
        emit(*k, 100 + *k);
    });
    let reducer =
        FnReducer::new(|_k: &u64, vs: &[u64], emit: &mut dyn FnMut(u64)| emit(vs.iter().sum()));
    let output = InMemoryOutput::new();
    let config = JobConfig {
        speculation: SpeculationPolicy::force([0]),
        volatile_intermediate: true,
        ..Default::default()
    };
    let result = run_job_shared(
        &splits,
        &diagonal_source,
        &mapper,
        None,
        &reducer,
        &PairPlan,
        &output,
        &config,
        &pool,
        None,
    )
    .unwrap();
    assert_eq!(output.sorted_records(), vec![(0, 100), (1, 101)]);
    let oracle = TimelineOracle::new(2, 2)
        .volatile_intermediate(true)
        .with_deps(0, vec![0])
        .with_deps(1, vec![1]);
    if let Err(v) = oracle.check_complete(&result.events) {
        panic!("timeline protocol violation: {v}");
    }
}

#[test]
fn speculative_race_against_reducer_fetch_is_clean() {
    Explorer::new("speculation-race")
        .run(
            Strategy::Random {
                schedules: 250,
                seed: 0x51D2_0005,
            },
            speculation_scenario,
        )
        .assert_clean();
}

// ---------------------------------------------------------------------------
// Scenario 6: budgeted spill tier — a mover writing a partition out
// races fetches of it and a concurrent release of its neighbor.
// ---------------------------------------------------------------------------

/// One sorted, encoded map-output partition (the spill tier CRC-checks
/// read-backs, so the fixtures go through the real encoder).
fn encoded_partition(salt: u64) -> std::sync::Arc<Vec<u8>> {
    let records: Vec<(sidr_coords::Coord, f64)> = (0..8)
        .map(|i| (sidr_coords::Coord::from([salt, i]), (salt * 10 + i) as f64))
        .collect();
    let file = sidr_mapreduce::MapOutputFile {
        raw_count: records.len() as u64,
        records,
    };
    std::sync::Arc::new(sidr_mapreduce::shuffle_file::encode_map_output(&file).unwrap())
}

/// A budget that admits exactly one partition puts the `Moving`
/// window — fetchers waiting on the `moved` condvar while the mover
/// writes outside the lock — on the hot path: the second insert must
/// evict the first to make room. One thread inserts both partitions,
/// one fetches the first at an arbitrary point (before, during or
/// after its move), one releases the second mid-move. Whatever the
/// interleaving: a fetched partition is byte-identical, resident
/// bytes never exceed the budget, and the backend holds exactly one
/// file per surviving spilled partition (a release during the move
/// must not leak the mover's file as an orphan).
fn spill_tier_scenario() {
    use sidr_mapreduce::tier::MemBackend;
    let backend = std::sync::Arc::new(MemBackend::new());
    let a = encoded_partition(0);
    let b = encoded_partition(1);
    let budget = a.len() as u64;
    let store = sidr_mapreduce::PartitionStore::new(
        sidr_mapreduce::TierConfig {
            budget_bytes: budget,
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
            if let Some(bytes) = store.get(&key_a).unwrap() {
                assert_eq!(&*bytes, &*a, "fetch mid-spill must be byte-identical");
            }
        });
        s.spawn(|| store.release(9, 0, &[(1, 0)]));
    });
    // Partition A is never released: it must read back intact.
    let read = store
        .get(&key_a)
        .unwrap()
        .expect("unreleased partition survives the spill");
    assert_eq!(&*read, &*a);
    let p = store.pressure();
    assert!(
        p.peak_resident_bytes <= budget,
        "admission makes room first: the watermark is a hard bound"
    );
    assert_eq!(
        backend.names().len(),
        p.spilled_partitions,
        "one backend file per surviving spilled partition — no orphans"
    );
    store.remove_job(9);
    assert_eq!(store.partition_count(), 0);
    assert!(backend.names().is_empty(), "job sweep leaves no files");
}

#[test]
fn spill_vs_fetch_vs_release_is_clean() {
    Explorer::new("spill-tier")
        .run(
            Strategy::Random {
                schedules: 250,
                seed: 0x51D2_0006,
            },
            spill_tier_scenario,
        )
        .assert_clean();
}

// ---------------------------------------------------------------------------
// Scenario 7: the deadline on virtual time — the monitor fails a job
// whose straggler would outlive it.
// ---------------------------------------------------------------------------

fn ms(n: u64) -> Duration {
    Duration::from_millis(n)
}

/// Map 0's first attempt straggles 3 s of virtual time under a 50 ms
/// deadline. On every schedule the monitor must fail the job with
/// `DeadlineExceeded` exactly when the virtual clock reaches 50 ms, and
/// the workers — the straggler's sleep included — must unwind by
/// notification: no further virtual time passes and no slot leaks.
fn deadline_scenario() {
    let pool = SlotPool::new(2, 1).unwrap();
    let splits = unit_splits(3);
    let mapper =
        FnMapper::new(|k: &u64, _v: &u64, emit: &mut dyn FnMut(u64, u64)| emit(*k, 100 + *k));
    let reducer =
        FnReducer::new(|_k: &u64, vs: &[u64], emit: &mut dyn FnMut(u64)| emit(vs.iter().sum()));
    let output = InMemoryOutput::new();
    let config = JobConfig {
        fault_plan: FaultPlan::straggle_maps([0], 3_000),
        deadline: Some(ms(50)),
        ..Default::default()
    };
    let t0 = time::now();
    let result = run_job_shared(
        &splits,
        &diagonal_source,
        &mapper,
        None,
        &reducer,
        &DefaultPlan::<u64, _>::new(ModuloPartitioner, 1),
        &output,
        &config,
        &pool,
        None,
    );
    assert!(
        matches!(result, Err(MrError::DeadlineExceeded { deadline_ms: 50 })),
        "expected DeadlineExceeded, got {result:?}"
    );
    assert_eq!(
        time::now() - t0,
        ms(50),
        "deadline enforced off its instant"
    );
    assert_eq!(pool.map_sem().in_use(), 0, "map slots leaked");
    assert_eq!(pool.reduce_sem().in_use(), 0, "reduce slots leaked");
}

#[test]
fn deadline_fails_the_job_at_its_virtual_instant() {
    Explorer::new("deadline")
        .run(
            Strategy::Random {
                schedules: 250,
                seed: 0x51D2_0007,
            },
            deadline_scenario,
        )
        .assert_clean();
}

// ---------------------------------------------------------------------------
// Scenario 8: the speculation monitor's quantile trigger on virtual
// time.
// ---------------------------------------------------------------------------

/// Map 0's first attempt straggles 1 s, its three peers 10 ms each,
/// with the default cohort trigger (no forced maps): once three peers
/// have committed, the monitor sees map 0 past 2 × the cohort's 10 ms
/// quantile and grants it a twin, which commits and retires the
/// straggler. On every schedule the output is the fault-free one, the
/// job ends well before the straggler would have, and the timeline
/// passes the protocol oracle.
fn quantile_trigger_scenario() {
    let pool = SlotPool::new(2, 2).unwrap();
    let splits = unit_splits(4);
    let mapper =
        FnMapper::new(|k: &u64, _v: &u64, emit: &mut dyn FnMut(u64, u64)| emit(*k, 100 + *k));
    let reducer =
        FnReducer::new(|_k: &u64, vs: &[u64], emit: &mut dyn FnMut(u64)| emit(vs.iter().sum()));
    let output = InMemoryOutput::new();
    let config = JobConfig {
        fault_plan: FaultPlan::straggle_maps(1..4, 10).with(
            FaultTarget::Map(0),
            0,
            FaultKind::Straggle { delay_ms: 1_000 },
        ),
        speculation: SpeculationPolicy::on(),
        ..Default::default()
    };
    let t0 = time::now();
    let result = run_job_shared(
        &splits,
        &diagonal_source,
        &mapper,
        None,
        &reducer,
        &DefaultPlan::<u64, _>::new(ModuloPartitioner, 2),
        &output,
        &config,
        &pool,
        None,
    )
    .unwrap();
    let took = time::now() - t0;
    assert!(took < ms(1_000), "the straggler set the pace: {took:?}");
    assert_eq!(
        output.sorted_records(),
        vec![(0, 100), (1, 101), (2, 102), (3, 103)]
    );
    assert!(
        (result.events.iter()).any(|e| e.kind == TaskKind::MapSpeculated && e.task == 0),
        "the quantile trigger never raced map 0"
    );
    if let Err(v) = TimelineOracle::new(4, 2).check_complete(&result.events) {
        panic!("timeline protocol violation: {v}");
    }
}

#[test]
fn quantile_trigger_races_the_straggler_on_virtual_time() {
    Explorer::new("quantile-trigger")
        .run(
            Strategy::Random {
                schedules: 250,
                seed: 0x51D2_0008,
            },
            quantile_trigger_scenario,
        )
        .assert_clean();
}

// ---------------------------------------------------------------------------
// Coverage acceptance: >= 10,000 distinct schedules across the four
// scenarios, under a minute (timed in release builds).
// ---------------------------------------------------------------------------

#[test]
fn ten_thousand_distinct_schedules_across_core_scenarios() {
    let start = Instant::now();
    let mut total = 0usize;

    let r = Explorer::new("slot-pool").run(
        Strategy::Exhaustive {
            max_schedules: 3_000,
        },
        slot_pool_scenario,
    );
    r.assert_clean();
    total += r.distinct;

    let r = Explorer::new("cancel-race").run(
        Strategy::Exhaustive {
            max_schedules: 3_000,
        },
        cancel_scenario,
    );
    r.assert_clean();
    total += r.distinct;

    let r = Explorer::new("recovery-rewait").run(
        Strategy::Random {
            schedules: 2_200,
            seed: 0x51D2_1003,
        },
        recovery_scenario,
    );
    r.assert_clean();
    total += r.distinct;

    let r = Explorer::new("last-slot").run(
        Strategy::Random {
            schedules: 2_200,
            seed: 0x51D2_1004,
        },
        last_slot_scenario,
    );
    r.assert_clean();
    total += r.distinct;

    // Backstop: if random collisions or an unexpectedly small DFS
    // space left the sum short, keep sweeping fresh seeds over the
    // recovery scenario (whose schedule space is effectively
    // unbounded) until the target is met.
    let mut round = 0u64;
    while total < 10_000 {
        round += 1;
        assert!(round <= 16, "schedule spaces too small: {total} distinct");
        let r = Explorer::new("recovery-rewait").run(
            Strategy::Random {
                schedules: 500,
                seed: 0x51D2_2000 + round,
            },
            recovery_scenario,
        );
        r.assert_clean();
        total += r.distinct;
    }
    assert!(total >= 10_000, "{total} distinct schedules");

    // Wall-clock acceptance is only meaningful with optimizations on
    // (the documented invocation is `--release`).
    #[cfg(not(debug_assertions))]
    assert!(
        start.elapsed() < Duration::from_secs(60),
        "coverage took {:?}",
        start.elapsed()
    );
    #[cfg(debug_assertions)]
    let _ = start;
}
