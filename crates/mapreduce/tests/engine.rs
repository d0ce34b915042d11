//! End-to-end tests of the MapReduce engine: correctness of the full
//! map → shuffle → reduce pipeline, barrier semantics, connection
//! accounting, inverted scheduling, fault injection and recovery.

mod support;

use std::time::Duration;

use sidr_mapreduce::{
    FaultPlan, InMemoryOutput, InputSplit, JobConfig, JobPlan, MapTaskId, MrError, OutputCollector,
    TaskKind,
};
use support::{bodies, identity_source, number_splits, run, run_shared, sum, sum_by_mod10, SLOTS};

#[test]
fn sums_by_key_are_exact() {
    let splits = number_splits(1000, 7);
    let output = InMemoryOutput::new();
    let result = run(
        &splits,
        sum_by_mod10(4),
        &JobPlan::global(4),
        &output,
        &JobConfig::default(),
        SLOTS,
    )
    .unwrap();

    // Ground truth: sum of i in 0..1000 with i % 10 == d.
    let records = output.sorted_records();
    assert_eq!(records.len(), 10);
    for (d, sum) in &records {
        let expect: u64 = (0..1000u64).filter(|i| i % 10 == *d).sum();
        assert_eq!(*sum, expect, "digit {d}");
    }
    assert_eq!(result.counters.map_records_in, 1000);
    assert_eq!(result.counters.map_records_out, 1000);
    assert_eq!(result.counters.reduce_records_out, 10);
}

#[test]
fn hadoop_mode_contacts_every_map() {
    // Table 3's Hadoop column: connections = maps × reducers.
    let splits = number_splits(100, 5);
    let output = InMemoryOutput::new();
    let result = run(
        &splits,
        sum_by_mod10(4),
        &JobPlan::global(4),
        &output,
        &JobConfig::default(),
        SLOTS,
    )
    .unwrap();
    assert_eq!(result.counters.shuffle_connections, 5 * 4);
}

#[test]
fn global_barrier_orders_all_maps_before_any_reduce_barrier() {
    let splits = number_splits(200, 8);
    let output = InMemoryOutput::new();
    let result = run(
        &splits,
        sum_by_mod10(3),
        &JobPlan::global(3),
        &output,
        &JobConfig {
            fault_plan: FaultPlan::straggle_maps(0..splits.len(), 2),
            ..Default::default()
        },
        SLOTS,
    )
    .unwrap();
    let last_map_end = *result.completions(TaskKind::MapEnd).last().unwrap();
    let first_barrier = result.completions(TaskKind::ReduceBarrierMet)[0];
    assert!(
        first_barrier >= last_map_end,
        "global barrier violated: barrier {first_barrier:?} before last map {last_map_end:?}"
    );
}

/// A hand-built dependency-aware plan over modulo keys: reducer d owns
/// keys ≡ d (mod r); with splits that are contiguous ranges, *every*
/// split produces keys for every reducer, so deps are still all maps —
/// instead we give it artificial 1:1 deps to test the mechanics.
fn one_to_one(n: usize) -> JobPlan {
    JobPlan::with_deps((0..n).map(|r| vec![r]).collect())
}

/// Source where split i yields only key i (so reducer i depends only
/// on map i under mod-n partitioning with n splits).
fn diagonal_source(id: MapTaskId, _split: &InputSplit) -> Vec<(u64, u64)> {
    vec![(id as u64, 100 + id as u64)]
}

/// `diagonal_source`'s records, each key its own group, dealt over `n`
/// reducers by modulo.
fn diagonal(n: usize) -> impl sidr_mapreduce::AttemptBodies<Key = u64, Value = u64, Out = u64> {
    bodies(
        diagonal_source,
        |k, v, emit| emit(k, v),
        move |k| k as usize % n,
        sum,
    )
}

#[test]
fn dependency_barrier_lets_reduces_finish_before_all_maps() {
    let n = 6usize;
    let splits = number_splits(n as u64, n as u64);
    let output = InMemoryOutput::new();
    let result = run(
        &splits,
        diagonal(n),
        &one_to_one(n),
        &output,
        &JobConfig {
            fault_plan: FaultPlan::straggle_maps(0..n, 5),
            ..Default::default()
        },
        (1, 2), // serialize maps so overlap is observable
    )
    .unwrap();

    // With 1:1 deps and serialized maps, the first reduce commits
    // before the last map finishes (Fig. 4b).
    let first_result = result.first_result().unwrap();
    let last_map = *result.completions(TaskKind::MapEnd).last().unwrap();
    assert!(
        first_result < last_map,
        "no early result: first result {first_result:?}, last map {last_map:?}"
    );
    // Connections: one per (reducer, dep) = n, not n².
    assert_eq!(result.counters.shuffle_connections, n as u64);
    // Output is still complete and correct.
    let records = output.sorted_records();
    assert_eq!(records.len(), n);
    for (k, v) in records {
        assert_eq!(v, 100 + k);
    }
}

#[test]
fn inverted_scheduling_skips_undepended_maps() {
    // 8 maps but only 4 reducers with 1:1 deps: maps 4..8 are skipped.
    let n = 4usize;
    let splits = number_splits(8, 8);
    let output = InMemoryOutput::new();
    let result = run(
        &splits,
        diagonal(n),
        &one_to_one(n),
        &output,
        &JobConfig::default(),
        SLOTS,
    )
    .unwrap();
    assert_eq!(result.counters.maps_skipped, 4);
    assert_eq!(result.completions(TaskKind::MapEnd).len(), 4);
    assert_eq!(output.len(), 4);
}

#[test]
fn injected_reduce_failure_recovers_by_reexecuting_maps() {
    let n = 5usize;
    let splits = number_splits(n as u64, n as u64);
    let output = InMemoryOutput::new();
    let result = run(
        &splits,
        diagonal(n),
        &one_to_one(n),
        &output,
        &JobConfig {
            fault_plan: FaultPlan::fail_reducers_first_attempt([2]),
            volatile_intermediate: true, // §6: intermediate data not persisted
            ..Default::default()
        },
        SLOTS,
    )
    .unwrap();
    assert_eq!(result.count(TaskKind::ReduceFailed), 1);
    assert_eq!(
        result.count(TaskKind::MapLost),
        1,
        "only the dep map re-runs"
    );
    // Output still complete and correct despite the failure.
    let records = output.sorted_records();
    assert_eq!(records.len(), n);
    for (k, v) in records {
        assert_eq!(v, 100 + k);
    }
}

#[test]
fn failure_without_volatile_store_needs_no_reexecution() {
    let n = 4usize;
    let splits = number_splits(n as u64, n as u64);
    let output = InMemoryOutput::new();
    let result = run(
        &splits,
        diagonal(n),
        &one_to_one(n),
        &output,
        &JobConfig {
            fault_plan: FaultPlan::fail_reducers_first_attempt([1]),
            volatile_intermediate: false, // Hadoop persists map output
            ..Default::default()
        },
        SLOTS,
    )
    .unwrap();
    assert_eq!(result.count(TaskKind::ReduceFailed), 1);
    assert_eq!(result.count(TaskKind::MapLost), 0);
    assert_eq!(output.len(), n);
}

#[test]
fn empty_splits_rejected() {
    let output = InMemoryOutput::new();
    let err = run(
        &[],
        sum_by_mod10(2),
        &JobPlan::global(2),
        &output,
        &JobConfig::default(),
        SLOTS,
    );
    assert!(err.is_err());
}

/// A collector that refuses every commit.
struct Refusing;

impl OutputCollector<u64, u64> for Refusing {
    fn commit(&self, _reducer: usize, _records: Vec<(u64, u64)>) -> sidr_mapreduce::Result<()> {
        Err(MrError::Output("x".into()))
    }
}

/// A commit's failure ends the job with the collector's own error,
/// its message said once.
#[test]
fn a_failed_commit_fails_the_job_with_the_collectors_error() {
    let splits = number_splits(100, 4);
    let err = run(
        &splits,
        sum_by_mod10(2),
        &JobPlan::global(2),
        &Refusing,
        &JobConfig::default(),
        SLOTS,
    )
    .unwrap_err();
    assert_eq!(err.to_string(), "output error: x");
}

#[test]
fn zero_slots_rejected() {
    let splits = number_splits(10, 2);
    let output = InMemoryOutput::new();
    for slots in [(0, 3), (4, 0)] {
        assert!(run(
            &splits,
            sum_by_mod10(2),
            &JobPlan::global(2),
            &output,
            &JobConfig::default(),
            slots,
        )
        .is_err());
    }
}

#[test]
fn reduce_waves_with_few_slots() {
    // 10 reducers over 2 slots: all complete, in waves.
    let splits = number_splits(100, 4);
    let count = bodies(
        identity_source,
        |k, v, emit| emit(k % 10, v),
        |k| (k % 10) as usize,
        |vs| vs.len() as u64,
    );
    let output = InMemoryOutput::new();
    let result = run(
        &splits,
        count,
        &JobPlan::global(10),
        &output,
        &JobConfig::default(),
        (4, 2),
    )
    .unwrap();
    assert_eq!(result.completions(TaskKind::ReduceEnd).len(), 10);
    assert_eq!(output.len(), 10);
}

/// Steering must hold when every keyblock's reduce is already in
/// flight (all four hold a slot, so all eight maps are eligible at
/// once): the maps run in the order reduce launches made them
/// eligible, the steered keyblock's `I_ℓ` first — not in index order.
#[test]
fn steered_keyblocks_maps_start_first_with_every_reduce_in_flight() {
    let splits = number_splits(8, 8);
    // Four keyblocks over eight maps, `I_ℓ = {2ℓ, 2ℓ+1}`, keyblock 3
    // prioritized (§3.4).
    let deps = (0..4).map(|r| vec![2 * r, 2 * r + 1]).collect();
    let plan = JobPlan {
        reduce_order: vec![3, 0, 1, 2],
        ..JobPlan::with_deps(deps)
    };
    let steered = bodies(
        |id, _| vec![(id as u64 / 2, id as u64)],
        |k, v, emit| emit(k, v),
        |k| k as usize,
        sum,
    );
    let output = InMemoryOutput::new();
    let result = run(
        &splits,
        steered,
        &plan,
        &output,
        &JobConfig {
            fault_plan: FaultPlan::straggle_maps(0..8, 5),
            ..Default::default()
        },
        (1, 4), // one map at a time: the start order is the claim order
    )
    .unwrap();
    let starts: Vec<usize> = result
        .events
        .iter()
        .filter(|e| e.kind == TaskKind::MapStart)
        .map(|e| e.task)
        .collect();
    assert_eq!(starts.len(), 8);
    assert!(
        starts[..2].iter().all(|m| [6, 7].contains(m)),
        "I_3 = {{6, 7}} must start before any other map: {starts:?}"
    );
    assert_eq!(
        output.sorted_records(),
        vec![(0, 1), (1, 5), (2, 9), (3, 13)]
    );
}

// ---------------------------------------------------------------
// Shared slot pools and cancellation (the serving substrate)
// ---------------------------------------------------------------

#[test]
fn two_jobs_share_one_slot_pool() {
    use sidr_mapreduce::SlotPool;

    let pool = SlotPool::new(2, 2).unwrap();
    let splits = number_splits(200, 5);
    let plan = JobPlan::global(4);
    let config = JobConfig {
        fault_plan: FaultPlan::straggle_maps(0..splits.len(), 5),
        ..Default::default()
    };

    let out_a = InMemoryOutput::new();
    let out_b = InMemoryOutput::new();
    let (res_a, res_b) = std::thread::scope(|scope| {
        let a = scope.spawn(|| {
            run_shared(
                &splits,
                sum_by_mod10(4),
                &plan,
                &out_a,
                &config,
                &pool,
                None,
            )
        });
        let b = scope.spawn(|| {
            run_shared(
                &splits,
                sum_by_mod10(4),
                &plan,
                &out_b,
                &config,
                &pool,
                None,
            )
        });
        (a.join().unwrap(), b.join().unwrap())
    });
    res_a.unwrap();
    res_b.unwrap();

    // Both jobs produce the exact batch answer despite contending for
    // the same two map and two reduce slots.
    for out in [&out_a, &out_b] {
        let records = out.sorted_records();
        assert_eq!(records.len(), 10);
        for (d, sum) in &records {
            let expect: u64 = (0..200u64).filter(|i| i % 10 == *d).sum();
            assert_eq!(*sum, expect, "digit {d}");
        }
    }
    // The pool is fully drained once both jobs returned.
    let occ = pool.occupancy();
    assert_eq!((occ.map_busy, occ.reduce_busy), (0, 0));
    assert_eq!((occ.map_total, occ.reduce_total), (2, 2));
}

#[test]
fn cancellation_aborts_a_running_job() {
    use sidr_mapreduce::{CancelToken, MrError, SlotPool};

    let pool = SlotPool::new(1, 1).unwrap();
    let splits = number_splits(400, 20);
    let config = JobConfig {
        fault_plan: FaultPlan::straggle_maps(0..splits.len(), 20), // 20 maps x 20 ms on one slot
        ..Default::default()
    };
    let output = InMemoryOutput::new();
    let cancel = CancelToken::new();

    let result = std::thread::scope(|scope| {
        let canceller = cancel.clone();
        scope.spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            canceller.cancel();
        });
        run_shared(
            &splits,
            sum_by_mod10(4),
            &JobPlan::global(4),
            &output,
            &config,
            &pool,
            Some(&cancel),
        )
    });
    assert!(
        matches!(result, Err(MrError::Cancelled)),
        "expected Cancelled, got {result:?}"
    );
    // Slots must not leak on the cancellation path.
    let occ = pool.occupancy();
    assert_eq!((occ.map_busy, occ.reduce_busy), (0, 0));
}

#[test]
fn cancelling_before_start_fails_fast() {
    use sidr_mapreduce::{CancelToken, MrError, SlotPool};

    let pool = SlotPool::new(2, 2).unwrap();
    let splits = number_splits(100, 4);
    let output = InMemoryOutput::new();
    let cancel = CancelToken::new();
    cancel.cancel();
    let result = run_shared(
        &splits,
        sum_by_mod10(4),
        &JobPlan::global(4),
        &output,
        &JobConfig::default(),
        &pool,
        Some(&cancel),
    );
    assert!(matches!(result, Err(MrError::Cancelled)));
}

#[test]
fn shared_pool_bounds_concurrent_maps_across_jobs() {
    use sidr_mapreduce::SlotPool;
    use std::sync::atomic::{AtomicUsize, Ordering};

    // A mapper that tracks its own concurrency high-water mark across
    // BOTH jobs; the shared pool must cap it at the pool size even
    // though each job alone would be allowed that many maps.
    static RUNNING: AtomicUsize = AtomicUsize::new(0);
    static PEAK: AtomicUsize = AtomicUsize::new(0);
    RUNNING.store(0, Ordering::SeqCst);
    PEAK.store(0, Ordering::SeqCst);

    let pool = SlotPool::new(2, 2).unwrap();
    let splits = number_splits(120, 6);
    let tracked = || {
        bodies(
            identity_source,
            |k, v, emit| {
                let now = RUNNING.fetch_add(1, Ordering::SeqCst) + 1;
                PEAK.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(2));
                emit(k % 10, v);
                RUNNING.fetch_sub(1, Ordering::SeqCst);
            },
            |k| (k % 3) as usize,
            sum,
        )
    };
    let plan = JobPlan::global(3);
    let out_a = InMemoryOutput::new();
    let out_b = InMemoryOutput::new();
    std::thread::scope(|scope| {
        let a = scope.spawn(|| {
            run_shared(
                &splits,
                tracked(),
                &plan,
                &out_a,
                &JobConfig::default(),
                &pool,
                None,
            )
        });
        let b = scope.spawn(|| {
            run_shared(
                &splits,
                tracked(),
                &plan,
                &out_b,
                &JobConfig::default(),
                &pool,
                None,
            )
        });
        a.join().unwrap().unwrap();
        b.join().unwrap().unwrap();
    });
    let peak = PEAK.load(Ordering::SeqCst);
    assert!(
        peak <= 2,
        "pool of 2 map slots allowed {peak} concurrent maps"
    );
}
