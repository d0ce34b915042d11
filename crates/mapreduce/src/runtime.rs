//! The threaded job driver: slot-limited Map/Reduce worker threads,
//! the speculation monitor and the reduce driver around one
//! [`Schedule`].
//!
//! Every decision — which task goes next, eligibility, launch order,
//! barriers (§3.2–3.4), and what an attempt's launch and outcome mean:
//! attempt ids, first-commit-wins, retry budgets, twins, recovery — is
//! a [`Schedule`] method, called under the state lock the workers here
//! already hold. This module supplies the threads, the waiting, the
//! clock (elapsed times, backoff sleeps, latency stamps) and the
//! timeline events. Running an attempt — and holding what it produced
//! — is the [`TaskExecutor`]'s job. [`run_job_with_executor`] is the
//! one entry point; [`run_job`] and [`run_job_shared`] hand it an
//! [`InProcessExecutor`] over the caller's user functions.
//!
//! Slots are owned by a [`SlotPool`] — the cluster-wide map and reduce
//! capacity (Hadoop's per-TaskTracker slots, §4: 4 map + 3 reduce per
//! node). [`run_job`] runs one job over a pool of its own;
//! [`run_job_shared`] runs a job against a pool *shared with other
//! concurrently running jobs* (the serving path), so the whole
//! cluster's slot budget is enforced across jobs rather than per job.
//! Reduce tasks occupy a slot from the moment they are launched —
//! which, under inverted scheduling, is what makes their maps
//! eligible — and are dispatched only when their barrier is met:
//! *all* maps under the global barrier, or exactly their dependency
//! set `I_ℓ` under a SIDR plan (§3.2, Fig. 4).
//!
//! Jobs are cancellable via a [`CancelToken`]: workers observe the
//! token at every blocking point and abandon the job with
//! [`MrError::Cancelled`].

use crate::sync::chaos::{self, Mutation};
use crate::sync::{time, wait_until, Condvar, Mutex};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::counters::{Counters, CountersSnapshot};
use crate::error::MrError;
use crate::executor::{InProcessExecutor, ReduceSource, RemoteReduceError, TaskExecutor};
use crate::fault::{FaultKind, FaultPlan, RetryPolicy};
use crate::output::OutputCollector;
use crate::plan::RoutingPlan;
use crate::schedule::Schedule;
use crate::slots::{subscribe_all, CancelToken, CancelWake, PairWaker, SlotGuard, SlotPool};
use crate::speculation::SpeculationPolicy;
use crate::split::{InputSplit, MapTaskId};
use crate::task::{Combiner, Mapper, MrKey, MrValue, RecordSource, Reducer};
use crate::timeline::{TaskEvent, TaskKind, Timeline};
use crate::wire::WireFormat;
use crate::Result;

/// Runtime configuration. It holds no check switches: every reduce
/// checks the §3.2.1 tally its plan promises
/// ([`RoutingPlan::expected_raw_count`]).
#[derive(Clone, Debug)]
pub struct JobConfig {
    /// Concurrent Map tasks (cluster-wide map slots).
    pub map_slots: usize,
    /// Concurrent Reduce tasks (cluster-wide reduce slots).
    pub reduce_slots: usize,
    /// Deterministic, seeded fault injection: which task attempts
    /// fail, straggle, or commit corrupt output (subsumes the old
    /// `fail_reducers` hook — see
    /// [`FaultPlan::fail_reducers_first_attempt`]).
    pub fault_plan: FaultPlan,
    /// Bounded retries with deterministic backoff; a task fails the
    /// job ([`MrError::TaskFailed`]) only once its budget is spent.
    pub retry: RetryPolicy,
    /// Intermediate data is consumed on fetch instead of persisted; a
    /// failed reduce must then re-execute the Map tasks it fetched
    /// from (§6 future work).
    pub volatile_intermediate: bool,
    /// Speculative execution: race a second attempt of a map whose
    /// elapsed time exceeds a quantile of its committed cohort; first
    /// commit wins, the loser's output is never bound to a reducer.
    /// Disabled by default.
    pub speculation: SpeculationPolicy,
    /// Wall-clock budget for the whole job, counted from the engine's
    /// job start (`None` = unbounded). A job still running when it
    /// expires fails with [`MrError::DeadlineExceeded`]; before that,
    /// a speculating job whose projected finish threatens it gets a
    /// boosted trigger first (`DEADLINE_MARGIN`).
    pub deadline: Option<Duration>,
}

impl Default for JobConfig {
    fn default() -> Self {
        JobConfig {
            map_slots: 4,
            reduce_slots: 3,
            fault_plan: FaultPlan::default(),
            retry: RetryPolicy::default(),
            volatile_intermediate: false,
            speculation: SpeculationPolicy::default(),
            deadline: None,
        }
    }
}

/// How early the monitor boosts a deadline job's speculation trigger:
/// once `elapsed + DEADLINE_MARGIN × projected remaining time` passes
/// the deadline. 4× is the margin `results/BENCH_speculation.json`
/// measured rescuing every run.
const DEADLINE_MARGIN: u32 = 4;

/// Outcome of a completed job.
#[derive(Clone, Debug)]
pub struct JobResult {
    pub counters: CountersSnapshot,
    pub events: Vec<TaskEvent>,
    pub elapsed: Duration,
}

impl JobResult {
    /// Time of the first committed reduce output. Scans for the
    /// minimum — no allocation, no sort (experiments call this in
    /// loops).
    pub fn first_result(&self) -> Option<Duration> {
        self.times(TaskKind::ReduceEnd).min()
    }

    /// Sorted completion times of one event kind.
    pub fn completions(&self, kind: TaskKind) -> Vec<Duration> {
        let mut t: Vec<Duration> = self.times(kind).collect();
        // `events` is time-sorted, so the filtered view almost always
        // already is too; sort only if recording raced out of order.
        if !t.is_sorted() {
            t.sort_unstable();
        }
        t
    }

    /// Fraction of Map tasks complete when the first result committed.
    pub fn maps_done_at_first_result(&self) -> Option<f64> {
        let first = self.first_result()?;
        let (done, total) = self
            .times(TaskKind::MapEnd)
            .fold((0usize, 0usize), |(done, total), t| {
                (done + usize::from(t <= first), total + 1)
            });
        if total == 0 {
            return None;
        }
        Some(done as f64 / total as f64)
    }

    fn times(&self, kind: TaskKind) -> impl Iterator<Item = Duration> + '_ {
        self.events
            .iter()
            .filter(move |e| e.kind == kind)
            .map(|e| e.at)
    }
}

struct State {
    /// Eligibility, launch order, barriers (§3.2–3.4) and every attempt
    /// decision, one record per map generation.
    sched: Schedule,
    /// When each map's current primary attempt was claimed — the
    /// speculation monitor's elapsed-time reference.
    map_started: Vec<Option<Instant>>,
    /// Committed map durations, milliseconds — the speculation
    /// trigger's cohort.
    map_durations_ms: Vec<u64>,
    /// Maps re-opened by recovery (lost or corrupt output), stamped
    /// with the re-open instant so the recovery-latency histogram can
    /// observe re-open → recommit.
    recovering: HashMap<MapTaskId, Instant>,
    /// `(reducer, rows)` of every committed generation `(map, attempt)`:
    /// a reduce is handed only the bound sources that fed it.
    fed: HashMap<(MapTaskId, u32), Vec<(usize, u64)>>,
    reduces_done: usize,
    failed: bool,
}

impl State {
    /// The sources bound at `epochs` that fed reducer `r`, and their
    /// rows in all.
    fn fed_sources(
        &self,
        r: usize,
        sources: &[MapTaskId],
        epochs: &[u32],
    ) -> (Vec<ReduceSource>, u64) {
        let mut fed = (Vec::with_capacity(sources.len()), 0);
        for (&map, &epoch) in sources.iter().zip(epochs) {
            let partitions = self.fed.get(&(map, epoch)).map_or(&[][..], Vec::as_slice);
            if let Some(&(_, rows)) = partitions.iter().find(|&&(reducer, _)| reducer == r) {
                fed.0.push(ReduceSource { map, epoch });
                fed.1 += rows;
            }
        }
        fed
    }
}

struct Shared<'j, K2: MrKey> {
    /// `Arc`'d (with `cv`) so cancel tokens can hold a [`PairWaker`]
    /// over the pair while the job runs.
    state: Arc<Mutex<State>>,
    cv: Arc<Condvar>,
    counters: Counters,
    timeline: Timeline,
    error: Mutex<Option<MrError>>,
    plan: &'j dyn RoutingPlan<K2>,
    config: &'j JobConfig,
    pool: &'j SlotPool,
    cancel: Option<&'j CancelToken>,
}

impl<K2: MrKey> Shared<'_, K2> {
    fn fail(&self, err: MrError) {
        let mut slot = self.error.lock();
        if slot.is_none() {
            *slot = Some(err);
        }
        drop(slot);
        self.state.lock().failed = true;
        self.cv.notify_all();
        // Workers of this job may be parked on the pool's semaphores
        // (which other jobs hold); wake them so they re-check the
        // failure flag immediately instead of on the next tick.
        self.pool.map.wake_all();
        self.pool.reduce.wake_all();
    }

    fn cancel_requested(&self) -> bool {
        self.cancel.is_some_and(|c| c.is_cancelled())
    }

    /// When cancellation was requested, records it as the job failure
    /// (first error wins) and returns true.
    fn observe_cancel(&self) -> bool {
        if self.cancel_requested() {
            self.fail(MrError::Cancelled);
            return true;
        }
        false
    }

    /// Sleeps `dur`, waking early — and returning false — when the job
    /// is cancelled or `abort(state)` turns true. Parks on the state
    /// condvar, which is registered as a cancel waker and notified by
    /// `fail()`, commits and lost races, so a cancelled straggle/backoff
    /// sleep unblocks with notification latency instead of waiting out
    /// its full delay.
    fn sleep_interruptible(&self, dur: Duration, abort: &dyn Fn(&State) -> bool) -> bool {
        let until = time::now() + dur;
        let mut st = self.state.lock();
        // Being interrupted is the wait's result; sleeping it out is `None`.
        wait_until(&self.cv, &mut st, Some(until), |st| {
            (self.cancel_requested() || abort(st)).then_some(Some(()))
        })
        .is_none()
    }
}

/// Runs one MapReduce job to completion on a slot pool of its own
/// (sized from `config.map_slots` / `config.reduce_slots`).
///
/// * `splits` — the input splits (one Map task each),
/// * `source_factory` — opens the RecordReader for a split,
/// * `mapper` / `combiner` / `reducer` — the user functions,
/// * `plan` — partitioning, barrier, fetch and scheduling policy,
/// * `output` — where committed reduce output goes.
#[allow(clippy::too_many_arguments)]
pub fn run_job<K1, V1, K2, V2, V3, SF, S>(
    splits: &[InputSplit],
    source_factory: &SF,
    mapper: &dyn Mapper<InKey = K1, InValue = V1, OutKey = K2, OutValue = V2>,
    combiner: Option<&dyn Combiner<Key = K2, Value = V2>>,
    reducer: &dyn Reducer<Key = K2, InValue = V2, OutValue = V3>,
    plan: &dyn RoutingPlan<K2>,
    output: &dyn OutputCollector<K2, V3>,
    config: &JobConfig,
) -> Result<JobResult>
where
    K1: MrKey,
    V1: MrValue,
    K2: MrKey + WireFormat,
    V2: MrValue + WireFormat,
    V3: MrValue,
    SF: Fn(MapTaskId, &InputSplit) -> Result<S> + Sync,
    S: RecordSource<Key = K1, Value = V1>,
{
    let pool = SlotPool::new(config.map_slots, config.reduce_slots)?;
    run_job_shared(
        splits,
        source_factory,
        mapper,
        combiner,
        reducer,
        plan,
        output,
        config,
        &pool,
        None,
    )
}

/// Runs one MapReduce job in-process over a [`SlotPool`] that may be
/// shared with other jobs running concurrently on other threads — the
/// serving path. `config.map_slots` / `config.reduce_slots` are
/// ignored here: the pool owns the cluster's slot budget, and at most
/// `pool.map_slots()` Map tasks and `pool.reduce_slots()` Reduce tasks
/// run at once *across all sharing jobs*.
///
/// Passing a `cancel` token makes the job abandonable: once cancelled,
/// the job unwinds and this returns [`MrError::Cancelled`].
#[allow(clippy::too_many_arguments)]
pub fn run_job_shared<K1, V1, K2, V2, V3, SF, S>(
    splits: &[InputSplit],
    source_factory: &SF,
    mapper: &dyn Mapper<InKey = K1, InValue = V1, OutKey = K2, OutValue = V2>,
    combiner: Option<&dyn Combiner<Key = K2, Value = V2>>,
    reducer: &dyn Reducer<Key = K2, InValue = V2, OutValue = V3>,
    plan: &dyn RoutingPlan<K2>,
    output: &dyn OutputCollector<K2, V3>,
    config: &JobConfig,
    pool: &SlotPool,
    cancel: Option<&CancelToken>,
) -> Result<JobResult>
where
    K1: MrKey,
    V1: MrValue,
    K2: MrKey + WireFormat,
    V2: MrValue + WireFormat,
    V3: MrValue,
    SF: Fn(MapTaskId, &InputSplit) -> Result<S> + Sync,
    S: RecordSource<Key = K1, Value = V1>,
{
    let executor = InProcessExecutor::new(source_factory, mapper, combiner, reducer, plan, config);
    run_job_with_executor(splits, plan, output, config, pool, cancel, &executor)
}

/// The scheduler entry point: runs one job's attempts through
/// `executor` — in-process or a worker fleet — while this function
/// keeps everything above the payload: eligibility, inverted
/// scheduling, barriers, slots, retry budgets, first-commit-wins and
/// dependency-scoped recovery. The executor outlives the call: what
/// it still holds when the job ends is its owner's to drop.
pub fn run_job_with_executor<K2: MrKey, V3: MrValue>(
    splits: &[InputSplit],
    plan: &dyn RoutingPlan<K2>,
    output: &dyn OutputCollector<K2, V3>,
    config: &JobConfig,
    pool: &SlotPool,
    cancel: Option<&CancelToken>,
    executor: &dyn TaskExecutor<K2, V3>,
) -> Result<JobResult> {
    if splits.is_empty() {
        return Err(MrError::BadConfig("no input splits".into()));
    }
    let num_maps = splits.len();
    let num_reducers = plan.num_reducers();
    let sched = Schedule::new(
        num_maps,
        (0..num_reducers).map(|r| plan.reduce_deps(r)).collect(),
        plan.reduce_order(),
        plan.invert_scheduling(),
    )?;
    let maps_skipped = sched.maps_skipped();

    let shared = Shared {
        state: Arc::new(Mutex::new(State {
            sched,
            map_started: vec![None; num_maps],
            map_durations_ms: Vec::new(),
            recovering: HashMap::new(),
            fed: HashMap::new(),
            reduces_done: 0,
            failed: false,
        })),
        cv: Arc::new(Condvar::new()),
        counters: Counters::default(),
        timeline: Timeline::new(),
        error: Mutex::new(None),
        plan,
        config,
        pool,
        cancel,
    };
    Counters::add(&shared.counters.maps_skipped, maps_skipped as u64);

    // Register this job's blocking points with the cancel token so
    // `cancel()` wakes parked workers immediately (dropped — and
    // unsubscribed — when the job returns).
    let _wakers = subscribe_all(
        cancel,
        [
            Arc::new(PairWaker {
                mutex: Arc::clone(&shared.state),
                cv: Arc::clone(&shared.cv),
            }) as Arc<dyn CancelWake>,
            pool.map.waker(),
            pool.reduce.waker(),
        ],
    );

    // One worker thread per slot the pool could ever grant this job,
    // capped by the task counts; permits are what actually bound
    // concurrency when the pool is shared. Under speculation every
    // map can have a racing twin, so the cap doubles — a twin must
    // never wait for the straggler it is racing to free a thread.
    let max_map_tasks = if config.speculation.enabled {
        num_maps.saturating_mul(2)
    } else {
        num_maps
    };
    let map_workers = pool.map_slots().min(max_map_tasks);
    let reduce_workers = pool.reduce_slots().min(num_reducers);
    crate::sync::thread::scope(|scope| {
        for _ in 0..map_workers {
            scope.spawn(|| map_worker(&shared, splits, executor));
        }
        for _ in 0..reduce_workers {
            scope.spawn(|| reduce_worker(&shared, output, executor));
        }
        if config.speculation.enabled || config.deadline.is_some() {
            scope.spawn(|| monitor(&shared, num_reducers));
        }
    });

    if let Some(err) = shared.error.lock().take() {
        return Err(err);
    }
    let counters = shared.counters.snapshot();
    // §3.2.1 approach 2, whole-job form: in debug builds, balance the
    // runtime map-output tally against the plan's static prediction.
    // Only meaningful when the plan promises tallies (hash routing and
    // filter pushdown promise none) and every map ran exactly once
    // (skips, retries, recovery re-executions and speculative twins —
    // both racers tally their records — change the totals).
    #[cfg(debug_assertions)]
    if (0..num_maps).all(|m| shared.state.lock().sched.attempts(m) == 1) {
        let expected: Option<u64> = (0..num_reducers)
            .map(|r| shared.plan.expected_raw_count(r))
            .sum();
        if let Some(expected) = expected {
            debug_assert_eq!(
                counters.map_records_out, expected,
                "static plan prediction disagrees with the runtime map-output tally"
            );
        }
    }
    let elapsed = shared.timeline.job_end().unwrap_or_default();
    Ok(JobResult {
        counters,
        events: shared.timeline.events(),
        elapsed,
    })
}

fn map_worker<K2: MrKey, V3: MrValue>(
    shared: &Shared<'_, K2>,
    splits: &[InputSplit],
    executor: &dyn TaskExecutor<K2, V3>,
) {
    let num_reducers = shared.plan.num_reducers();
    loop {
        let mut st = shared.state.lock();
        // Nothing eligible means either all maps are done/skipped
        // (reduces still draining) or eligibility will arrive when a
        // reduce starts / recovery re-opens a map.
        let claim = wait_until(&shared.cv, &mut st, None, |st| {
            if st.failed || st.reduces_done == num_reducers || shared.cancel_requested() {
                return Some(None);
            }
            // Fresh work first; with none, a speculative twin for a
            // running straggler (racing must never starve first
            // attempts of a slot).
            let spec = &shared.config.speculation;
            match st.sched.claim_map(|_| true) {
                Some((m, attempt)) => {
                    st.map_started[m] = Some(time::now());
                    Some(Some(((m, attempt), false)))
                }
                None if spec.enabled => {
                    (st.sched.claim_twin(&spec.force_maps)).map(|c| Some((c, true)))
                }
                None => None,
            }
        });
        let finished = st.reduces_done == num_reducers;
        drop(st);
        let Some(((task, attempt), speculative)) = claim else {
            if !finished {
                shared.observe_cancel();
            }
            return;
        };
        if speculative {
            shared
                .timeline
                .record_attempt(TaskKind::MapSpeculated, task, attempt);
            crate::metrics::runtime().speculative_launched.inc();
        }

        // Mutation hook: a widened critical section — holding the
        // state lock across the slot acquire whose abort callback
        // itself locks state is the classic self-deadlock the checker
        // must catch.
        let held_state = if chaos::on(Mutation::HoldStateAcrossAcquire) {
            Some(shared.state.lock())
        } else {
            None
        };
        // The task is assigned; now occupy a cluster-wide map slot
        // (never blocks on a dedicated pool, where workers == slots).
        if !(shared.pool.map).acquire(&|| shared.cancel_requested() || shared.state.lock().failed) {
            shared.observe_cancel();
            return;
        }
        drop(held_state);
        let _slot = SlotGuard(&shared.pool.map);

        let started = time::now();
        shared
            .timeline
            .record_attempt(TaskKind::MapStart, task, attempt);
        if shared.config.speculation.enabled {
            // A primary may be raced once its start is in the log.
            shared.state.lock().sched.note_started(task, attempt);
            shared.cv.notify_all();
        }
        // The executor runs the attempt and keeps its output under
        // the generation (task, attempt) — each racer's under its own;
        // the commit below decides the race. An attempt waits only
        // through `pause`: a straggler whose race is already lost, or
        // whose job is cancelled, unblocks within a notification
        // instead of waiting out its delay.
        let pause = |dur: Duration| {
            shared.sleep_interruptible(dur, &|st| st.failed || st.sched.race_lost(task, attempt))
        };
        match executor.execute_map(task, attempt, speculative, &splits[task], &pause) {
            Ok(tally) => {
                // Every attempt that returned tallies the work it did,
                // winner or loser.
                let c = &shared.counters;
                Counters::add(&c.map_records_in, tally.records_in);
                Counters::add(&c.map_records_out, tally.records_out);
                let rows = tally.partitions.iter().map(|&(_, rows)| rows).sum();
                Counters::add(&c.combined_records, rows);
                let mut st = shared.state.lock();
                if !st.sched.commit(task, attempt) {
                    drop(st);
                    lose_race(shared, task, attempt);
                    continue;
                }
                st.fed.insert((task, attempt), tally.partitions);
                // `MapEnd` is logged before the lock publishes `Done`,
                // so no dependent barrier event can land before it.
                shared
                    .timeline
                    .record_attempt(TaskKind::MapEnd, task, attempt);
                let took = time::now() - started;
                st.map_durations_ms.push(took.as_millis() as u64);
                let recovered = st.recovering.remove(&task);
                drop(st);
                let metrics = crate::metrics::runtime();
                metrics.map_task_seconds.observe_duration(took);
                if speculative {
                    metrics.speculative_won.inc();
                }
                if let Some(reopened_at) = recovered {
                    metrics
                        .recovery_seconds
                        .observe_duration(time::now() - reopened_at);
                }
                // Mutation hook: committing `Done` without the
                // notify_all leaves barrier-blocked reducers asleep —
                // the lost wakeup the checker must catch.
                if !chaos::on(Mutation::DropMapDoneNotify) {
                    shared.cv.notify_all();
                }
            }
            Err(e) => {
                // An attempt that died — or abandoned its pause —
                // *after* its race was decided is a loser, not a
                // failure: no budget charge, no re-open (the winner's
                // commit stands).
                let failed = shared.state.lock().sched.attempt_failed(task, attempt);
                let Some(failures) = failed else {
                    lose_race(shared, task, attempt);
                    continue;
                };
                if matches!(e, MrError::Cancelled) {
                    // Job cancelled or failed mid-attempt.
                    shared.observe_cancel();
                    return;
                }
                // Transient failures (source I/O, injected faults)
                // are charged against the retry budget and the task
                // is handed back to the eligible set after a
                // deterministic backoff; only an exhausted budget
                // fails the job.
                Counters::add(&shared.counters.map_failures, 1);
                shared
                    .timeline
                    .record_attempt(TaskKind::MapFailed, task, attempt);
                if failures >= shared.config.retry.max_task_attempts {
                    shared.fail(MrError::TaskFailed {
                        task: format!("map {task}"),
                        cause: format!("{e} ({failures} attempts exhausted)"),
                    });
                    return;
                }
                if !shared
                    .sleep_interruptible(shared.config.retry.backoff(failures), &|st| st.failed)
                {
                    shared.observe_cancel();
                    return;
                }
                let mut st = shared.state.lock();
                if st.failed {
                    return;
                }
                let next_attempt = st.sched.retry(task, attempt);
                drop(st);
                if let Some(next_attempt) = next_attempt {
                    Counters::add(&shared.counters.map_retries, 1);
                    crate::metrics::runtime().task_retries_map.inc();
                    shared
                        .timeline
                        .record_attempt(TaskKind::MapRetry, task, next_attempt);
                }
                shared.cv.notify_all();
            }
        }
    }
}

/// Records one attempt losing its first-commit-wins race: a
/// `MapSpeculationLost` timeline event for either racer plus the
/// wasted-work metric, then a notify so anything watching the race
/// re-checks.
fn lose_race<K2: MrKey>(shared: &Shared<'_, K2>, task: MapTaskId, attempt: u32) {
    shared
        .timeline
        .record_attempt(TaskKind::MapSpeculationLost, task, attempt);
    crate::metrics::runtime().speculative_wasted.inc();
    shared.cv.notify_all();
}

fn reduce_worker<K2: MrKey, V3: MrValue>(
    shared: &Shared<'_, K2>,
    output: &dyn OutputCollector<K2, V3>,
    executor: &dyn TaskExecutor<K2, V3>,
) {
    loop {
        {
            let st = shared.state.lock();
            if st.failed || !st.sched.reduces_pending() {
                return;
            }
        }
        // Occupy a cluster-wide reduce slot *before* launching from the
        // launch order: a launched reduce starts its copy phase and (under
        // inverted scheduling) makes its maps eligible, so the number of
        // in-flight reduces across all jobs must never exceed the pool.
        if !(shared.pool.reduce)
            .acquire(&|| shared.cancel_requested() || shared.state.lock().failed)
        {
            shared.observe_cancel();
            return;
        }
        let _slot = SlotGuard(&shared.pool.reduce);
        let r = {
            let mut st = shared.state.lock();
            if st.failed {
                return;
            }
            if shared.cancel_requested() {
                drop(st);
                shared.observe_cancel();
                return;
            }
            // Another worker may have launched the last one meanwhile.
            let Some(r) = st.sched.launch_next_reduce() else {
                return;
            };
            drop(st);
            // The launch may have made maps eligible (§3.3).
            shared.cv.notify_all();
            r
        };

        let started = time::now();
        shared.timeline.record(TaskKind::ReduceStart, r);
        if let Err(e) = run_reduce_task(shared, r, executor, output) {
            shared.fail(e);
            return;
        }
        crate::metrics::runtime()
            .reduce_task_seconds
            .observe_duration(time::now() - started);
        let mut st = shared.state.lock();
        st.reduces_done += 1;
        drop(st);
        shared.cv.notify_all();
    }
}

/// The reduce driver: the scheduler only waits for *readiness* —
/// every source map `Done` at an acceptable commit epoch — and then
/// hands the attempt to the executor, naming the generations to fetch;
/// how the bytes reach the merge (an `Arc`, a disk read, a peer
/// socket) never passes through here. The attempt returns its whole
/// keyblock, committed atomically (§2.3).
///
/// Fault mapping:
/// * sources lost *before* the attempt consumed anything
///   ([`RemoteReduceError::SourcesLost`] — a dead holder, a failed
///   CRC) re-execute exactly the lost maps and retry the same attempt;
///   no retry budget charged;
/// * a failed attempt ([`RemoteReduceError::AttemptFailed`], or an
///   injected failure once its barrier is met) is charged against the
///   budget and, under volatile intermediate data (in-process only),
///   re-executes its whole dependency set.
fn run_reduce_task<K2: MrKey, V3: MrValue>(
    shared: &Shared<'_, K2>,
    r: usize,
    exec: &dyn TaskExecutor<K2, V3>,
    output: &dyn OutputCollector<K2, V3>,
) -> Result<()> {
    let sources: Vec<MapTaskId> = shared.state.lock().sched.sources(r);
    let mut attempt: u32 = 0;
    // Oldest commit epoch a dispatch may bind source `i` at — bumped
    // past any generation known consumed or lost, so a retry waits for
    // a *fresh* recommit instead of re-fetching a dead epoch.
    let mut min_epoch: Vec<u32> = vec![0; sources.len()];
    loop {
        // Injected reduce stragglers delay the attempt up front
        // (interruptibly — a cancelled job must not wait one out).
        if let Some(FaultKind::Straggle { delay_ms }) =
            shared.config.fault_plan.reduce_fault(r, attempt)
        {
            if !shared.sleep_interruptible(Duration::from_millis(delay_ms), &|st| st.failed) {
                shared.observe_cancel();
                return Ok(());
            }
        }

        // Readiness barrier: every source Done at epoch >= min_epoch.
        let copy_start = time::now();
        let mut st = shared.state.lock();
        let parked = time::now();
        let epochs = wait_until(&shared.cv, &mut st, None, |st| {
            if st.failed || shared.cancel_requested() {
                return Some(None);
            }
            st.sched.bound_epochs(r, &min_epoch).map(Some)
        });
        // The executor fetches only the bound generations that fed `r`.
        let fed = (epochs.as_ref()).map(|epochs| st.fed_sources(r, &sources, epochs));
        drop(st);
        let copy_wait = time::now() - parked;
        let Some((epochs, (srcs, rows))) = epochs.zip(fed) else {
            // Cancelled, or another task already reported.
            shared.observe_cancel();
            return Ok(());
        };
        shared
            .timeline
            .record_attempt(TaskKind::ReduceBarrierMet, r, attempt);
        let m = crate::metrics::runtime();
        m.barrier_wait_seconds
            .observe_duration(time::now() - copy_start);
        m.copy_wait_seconds.observe_duration(copy_wait);

        let result = if matches!(
            shared.config.fault_plan.reduce_fault(r, attempt),
            Some(FaultKind::Fail) | Some(FaultKind::SourceError { .. })
        ) {
            // Injected reduce failure: the attempt dies once its
            // barrier is met, before anything is dispatched.
            Err(RemoteReduceError::AttemptFailed("injected failure".into()))
        } else {
            // One contact per bound (map, reducer) pair, empty
            // partitions included — Hadoop "requires that every Reduce
            // task contact every completed Map task" (§4.6): Table 3's
            // connections.
            Counters::add(&shared.counters.shuffle_connections, sources.len() as u64);
            let expected_raw = shared.plan.expected_raw_count(r);
            exec.execute_reduce(r, attempt, &srcs, expected_raw)
        };
        match result {
            Ok(out) => {
                Counters::add(&shared.counters.shuffled_records, rows);
                shared
                    .timeline
                    .record_attempt(TaskKind::ReduceMergeDone, r, attempt);
                Counters::add(&shared.counters.reduce_records_out, out.len() as u64);
                output
                    .commit(r, out)
                    .map_err(|e| MrError::Output(e.to_string()))?;
                shared
                    .timeline
                    .record_attempt(TaskKind::ReduceEnd, r, attempt);
                return Ok(());
            }
            Err(RemoteReduceError::SourcesLost(lost)) => {
                // Nothing was consumed: re-execute exactly the maps
                // whose output is gone (their `I_ℓ` share) and retry
                // the same attempt once they recommit.
                Counters::add(&shared.counters.corrupt_fetches, 1);
                recover(shared, &sources, &epochs, &mut min_epoch, |m| {
                    lost.contains(&m)
                });
            }
            Err(RemoteReduceError::AttemptFailed(cause)) => {
                Counters::add(&shared.counters.reduce_failures, 1);
                shared
                    .timeline
                    .record_attempt(TaskKind::ReduceFailed, r, attempt);
                if attempt + 1 >= shared.config.retry.max_task_attempts {
                    return Err(MrError::TaskFailed {
                        task: format!("reduce {r}"),
                        cause: format!("{cause} ({} attempts exhausted)", attempt + 1),
                    });
                }
                if shared.config.volatile_intermediate {
                    // The attempt consumed its fetches before dying:
                    // re-execute the whole dependency set (§6).
                    recover(shared, &sources, &epochs, &mut min_epoch, |_| true);
                }
                crate::metrics::runtime().task_retries_reduce.inc();
                if !shared
                    .sleep_interruptible(shared.config.retry.backoff(attempt + 1), &|st| st.failed)
                {
                    shared.observe_cancel();
                    return Ok(());
                }
                attempt += 1;
            }
            Err(RemoteReduceError::Fatal(e)) => return Err(e),
        }
    }
}

/// The job monitor, running while speculation is on or a deadline is
/// set. It parks on the job condvar — woken by the same notifications
/// as the workers — for at most `check_interval_ms`, and never past the
/// deadline or the boost point below, then:
///
/// * at the deadline, fails the job with [`MrError::DeadlineExceeded`]
///   (`fail` wakes every parked worker, so the job unwinds by
///   notification);
/// * under speculation, grants twins to running maps whose elapsed
///   time exceeds the committed cohort's quantile × slowdown
///   ([`Schedule::claim_twin`] launches the one stalling the most
///   keyblocks first);
/// * under speculation with a deadline, projects the time left —
///   cohort quantile × remaining task waves per slot class — and, once
///   `elapsed + DEADLINE_MARGIN × projection` reaches the deadline,
///   boosts the trigger for the rest of the job: anything slower than
///   its cohort is raced (advisory `SIDR-I014`,
///   `sidr_mr_deadline_boosts_total`).
fn monitor<K2: MrKey>(shared: &Shared<'_, K2>, num_reducers: usize) {
    let policy = &shared.config.speculation;
    let deadline = shared.config.deadline;
    let interval = Duration::from_millis(policy.check_interval_ms.max(1));
    let mut boosted = false;
    let mut st = shared.state.lock();
    loop {
        if st.failed || st.reduces_done == num_reducers || shared.cancel_requested() {
            return;
        }
        let elapsed = shared.timeline.elapsed();
        if let Some(d) = deadline.filter(|&d| elapsed >= d) {
            drop(st);
            shared.fail(MrError::DeadlineExceeded {
                deadline_ms: d.as_millis() as u64,
            });
            return;
        }
        let mut wake = deadline.map_or(interval, |d| interval.min(d - elapsed));
        if policy.enabled {
            let mut cohort = st.map_durations_ms.clone();
            cohort.sort_unstable();
            if let Some(d) = deadline.filter(|_| !boosted) {
                if let Some(q) = policy.cohort_quantile_ms(&cohort, false) {
                    // Crude on purpose: the rule only needs "does the
                    // rest threaten the deadline".
                    let waves =
                        |pending: usize, slots: usize| pending.div_ceil(slots.max(1)) as u64;
                    let remaining_waves =
                        waves(st.sched.maps_unfinished(), shared.pool.map_slots())
                            + waves(num_reducers - st.reduces_done, shared.pool.reduce_slots());
                    let projection = Duration::from_millis(q.max(1) * remaining_waves);
                    let boost_at = d.saturating_sub(projection * DEADLINE_MARGIN);
                    if elapsed < boost_at {
                        // Wake at the boost point, unless a commit
                        // changes the projection first.
                        wake = wake.min(boost_at - elapsed);
                    } else {
                        boosted = true;
                        crate::metrics::runtime().deadline_boosts.inc();
                        eprintln!(
                            "[SIDR-I014] job deadline pressure: projected completion exceeds \
                             deadline_ms={}; speculation trigger boosted",
                            d.as_millis()
                        );
                    }
                }
            }
            if let Some(ms) = policy.straggler_threshold_ms(&cohort, boosted) {
                let threshold = Duration::from_millis(ms);
                let now = time::now();
                let slow: Vec<MapTaskId> = (st.sched.twin_candidates())
                    .filter(|&m| st.map_started[m].is_some_and(|t| now - t >= threshold))
                    .collect();
                if !slow.is_empty() {
                    for m in slow {
                        st.sched.grant_twin(m);
                    }
                    // Idle map workers park on this condvar; hand them
                    // the grants without waiting for their safety-net
                    // tick.
                    shared.cv.notify_all();
                }
            }
        }
        shared.cv.wait_for(&mut st, wake);
    }
}

/// Dependency-scoped recovery (§6) for a reduce bound to `sources`
/// at `epochs`: every `lost` source whose bound generation is still
/// the committed one is re-opened for re-execution, and `min_epoch`
/// moves past each lost binding so the retry waits for a fresh commit
/// instead of re-fetching a dead one.
fn recover<K2: MrKey>(
    shared: &Shared<'_, K2>,
    sources: &[MapTaskId],
    epochs: &[u32],
    min_epoch: &mut [u32],
    lost: impl Fn(MapTaskId) -> bool,
) {
    let mut st = shared.state.lock();
    for (i, &m) in sources.iter().enumerate() {
        if !lost(m) {
            continue;
        }
        // Mutation hook: forgetting the re-open leaves the retry
        // waiting for a recommit nobody will produce.
        if !chaos::on(Mutation::SkipRecoveryRewait) && st.sched.recover(m, epochs[i]) {
            st.recovering.insert(m, time::now());
            Counters::add(&shared.counters.maps_reexecuted, 1);
            crate::metrics::runtime().maps_recovered.inc();
        }
        min_epoch[i] = epochs[i] + 1;
    }
    drop(st);
    shared.cv.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(events: &[(TaskKind, u64)]) -> JobResult {
        let at = Duration::from_millis;
        JobResult {
            counters: CountersSnapshot::default(),
            events: (events.iter())
                .map(|&(kind, ms)| TaskEvent {
                    kind,
                    task: 0,
                    attempt: 0,
                    at: at(ms),
                })
                .collect(),
            elapsed: Duration::ZERO,
        }
    }

    #[test]
    fn first_result_and_fraction() {
        let ms = Duration::from_millis;
        let r = result(&[
            (TaskKind::MapEnd, 1),
            (TaskKind::ReduceEnd, 2),
            (TaskKind::MapEnd, 3),
        ]);
        assert_eq!(r.first_result(), Some(ms(2)));
        let frac = r.maps_done_at_first_result().unwrap();
        assert!((frac - 0.5).abs() < 1e-9, "frac {frac}");
        assert_eq!(r.completions(TaskKind::MapEnd), vec![ms(1), ms(3)]);
    }

    #[test]
    fn empty_job_has_no_result() {
        let r = result(&[]);
        assert_eq!(r.first_result(), None);
        assert_eq!(r.maps_done_at_first_result(), None);
    }
}
