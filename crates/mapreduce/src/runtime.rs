//! One job's coordinator loop ([`coordinate`]).
//!
//! Every decision — eligibility, launch order, barriers (§3.2–3.4),
//! attempt ids, first-commit-wins, retry budgets, twins, recovery — is
//! a [`Schedule`] method, and the loop owns the job's `Schedule`, with
//! no lock. It waits on one queue for attempt reports and wakes,
//! bounded by its next timer (a backoff, a reduce straggle, the
//! deadline, the next speculation look); calls the one `Schedule`
//! method each report means; then launches what became runnable:
//! reduces onto free slots (which, under inverted scheduling, makes
//! their maps eligible), reduces whose barrier — every map, or `I_ℓ`
//! under SIDR (§3.2, Fig. 4) — is met, then maps.
//!
//! Where attempts run is a [`Cluster`]: threads over a
//! [`TaskExecutor`](crate::TaskExecutor) and a shared
//! [`SlotPool`](crate::SlotPool)
//! ([`run_job_with_executor`](crate::run_job_with_executor)), or a
//! cost model on a virtual clock in `sidr-simcluster`, where the
//! paper's figures come from.

use std::collections::HashMap;
use std::time::Duration;

use crate::counters::CountersSnapshot;
use crate::error::MrError;
use crate::executor::{Cluster, Done, MapTally, ReduceSource, RemoteReduceError};
use crate::fault::{FaultKind, FaultPlan, RetryPolicy};
use crate::metrics::runtime as metrics;
use crate::schedule::Schedule;
use crate::slots::CancelToken;
use crate::speculation::SpeculationPolicy;
use crate::split::MapTaskId;
use crate::sync::chaos::{self, Mutation};
use crate::timeline::{JobResult, TaskEvent, TaskKind};
use crate::timers::Timers;
use crate::{JobPlan, Result, TimelineOracle};

/// Runtime configuration. It holds no check switches: every reduce
/// checks the §3.2.1 tally its plan promises
/// ([`JobPlan::expected_raw`](crate::JobPlan::expected_raw)).
/// Nor does it size slots: those are the cluster's, the
/// [`SlotPool`](crate::SlotPool) a job runs on.
#[derive(Clone, Debug, Default)]
pub struct JobConfig {
    /// Seeded fault injection: which attempts fail, straggle, or commit
    /// corrupt output.
    pub fault_plan: FaultPlan,
    /// Bounded retries with deterministic backoff; a task fails the
    /// job ([`MrError::TaskFailed`]) only once its budget is spent.
    pub retry: RetryPolicy,
    /// Intermediate data is consumed on fetch: a failed reduce must
    /// re-execute the maps it fetched from (§6 future work).
    pub volatile_intermediate: bool,
    /// Race a second attempt of a straggling map (off by default).
    pub speculation: SpeculationPolicy,
    /// Budget for the whole job from its start (`None` = unbounded): a
    /// job still running then fails with [`MrError::DeadlineExceeded`];
    /// a speculating job whose projected finish threatens it gets a
    /// boosted trigger first ([`SpeculationPolicy::boost_at`]).
    pub deadline: Option<Duration>,
}

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Timer {
    Deadline,
    /// Speculation looks again (the boost point, or a primary crossing
    /// the straggler threshold).
    Look,
    /// Backoffs served: of failed `attempt` of a map, of a reduce.
    MapRetry(MapTaskId, u32),
    ReduceRetry(usize),
    /// A reduce attempt's injected straggle is over.
    ReduceReady(usize),
}

/// A launched reduce task, from its slot to its commit.
#[derive(Default)]
struct ReduceTask {
    attempt: u32,
    started: Duration,
    waiting_since: Duration,
    sources: Vec<MapTaskId>,
    /// Oldest epoch a dispatch may bind each source at: past any known
    /// consumed or lost, so a retry waits for a fresh recommit.
    min_epoch: Vec<u32>,
    /// The current attempt's bound epochs, and the rows they hold for it.
    bound: Vec<u32>,
    rows: u64,
}

/// One job's state, owned by the one thread that reads it.
#[derive(Default)]
struct State {
    timers: Timers<Timer>,
    /// The armed `Look`: its instant and timer id.
    look: Option<(Duration, u64)>,
    boosted: bool,
    /// When each map's current primary was claimed.
    map_started: Vec<Option<Duration>>,
    /// Running map attempts: their start, and whether each is a twin.
    running: HashMap<(MapTaskId, u32), (Duration, bool)>,
    /// Committed map durations (ms), sorted: the speculation cohort.
    cohort: Vec<u64>,
    /// Maps re-opened by recovery, and when (recovery latency).
    recovering: HashMap<MapTaskId, Duration>,
    /// `(reducer, rows)` of each committed generation `(map, attempt)`:
    /// a reduce is handed only the bound sources that fed it.
    fed: HashMap<(MapTaskId, u32), Vec<(usize, u64)>>,
    reduces: Vec<ReduceTask>,
    /// Reduces waiting for their barrier, in the order they began.
    waiting: Vec<usize>,
    reduces_done: usize,
    /// Reduce slots held (a launched reduce keeps its slot to its end),
    /// and attempts started and not yet reported.
    reduce_slots: usize,
    in_flight: usize,
    error: Option<MrError>,
    counters: CountersSnapshot,
    /// The job's events, in the order the loop recorded them.
    events: Vec<TaskEvent>,
}

struct Loop<'a> {
    cluster: &'a mut dyn Cluster,
    config: &'a JobConfig,
    sched: Schedule,
    st: State,
}

/// Runs one job — `plan` over `num_maps` maps — to its end on `cluster`,
/// stamping its events on the cluster's clock; returns the job's
/// record, its events sorted by time, once they pass the plan's
/// protocol oracle.
pub fn coordinate(
    cluster: &mut dyn Cluster,
    num_maps: usize,
    plan: &JobPlan,
    config: &JobConfig,
    cancel: Option<&CancelToken>,
) -> Result<JobResult> {
    let sched = Schedule::new(num_maps, plan)?;
    let num_reducers = sched.num_reducers();
    let mut st = State {
        map_started: vec![None; sched.num_maps()],
        reduces: (0..num_reducers).map(|_| ReduceTask::default()).collect(),
        ..State::default()
    };
    st.counters.maps_skipped += sched.maps_skipped() as u64;
    if let Some(deadline) = config.deadline {
        st.timers.arm(deadline, Timer::Deadline);
    }
    let mut job = Loop {
        cluster,
        config,
        sched,
        st,
    };
    loop {
        if cancel.is_some_and(CancelToken::is_cancelled) {
            job.fail(MrError::Cancelled);
        }
        if job.st.error.is_none() {
            job.launch();
        }
        if job.st.error.is_some() || job.st.reduces_done == num_reducers {
            break;
        }
        if job.look() {
            job.launch();
        }
        let until = job.st.timers.next_at();
        if let Some(done) = job.cluster.next(until) {
            job.st.in_flight -= 1;
            job.handle(done);
        }
        let now = job.cluster.now();
        while let Some(timer) = job.st.timers.pop_due(now) {
            job.fire(timer);
        }
    }
    let (counters, mut events) = job.finish()?;
    // A merge's end is recorded when its report arrives, stamped when
    // the merge ended: a stable sort puts it in place and keeps ties in
    // the order they were recorded.
    events.sort_by_key(|e| e.at);
    TimelineOracle::for_plan(num_maps, plan, config)
        .check_complete(&events)
        .map_err(MrError::Protocol)?;
    let last_commit = events.iter().rev().find(|e| e.kind == TaskKind::ReduceEnd);
    Ok(JobResult {
        counters,
        elapsed: last_commit.map_or(Duration::ZERO, |e| e.at),
        events,
    })
}

impl Loop<'_> {
    fn record(&mut self, kind: TaskKind, task: usize, attempt: u32) {
        self.record_at(kind, task, attempt, self.cluster.now());
    }

    fn record_at(&mut self, kind: TaskKind, task: usize, attempt: u32, at: Duration) {
        (self.st.events).push(TaskEvent {
            kind,
            task,
            attempt,
            at,
        });
    }

    /// Records the job's failure; the first error wins.
    fn fail(&mut self, err: MrError) {
        self.st.error.get_or_insert(err);
    }

    fn launch(&mut self) {
        // Reduces onto free slots: under inverted scheduling, launching
        // one is what makes its maps eligible (§3.3).
        while self.sched.reduces_pending() && self.cluster.take_reduce_slot() {
            self.st.reduce_slots += 1;
            let r = (self.sched.launch_next_reduce()).expect("a reduce is pending");
            self.record(TaskKind::ReduceStart, r, 0);
            let sources = self.sched.sources(r);
            self.st.reduces[r] = ReduceTask {
                started: self.cluster.now(),
                min_epoch: vec![0; sources.len()],
                sources,
                ..ReduceTask::default()
            };
            self.ready(r);
        }
        // Reduces whose barrier is met, in the order they began to wait.
        let mut i = 0;
        while i < self.st.waiting.len() && self.st.error.is_none() {
            let r = self.st.waiting[i];
            match self.sched.bound_epochs(r, &self.st.reduces[r].min_epoch) {
                Some(epochs) => {
                    self.st.waiting.remove(i);
                    self.dispatch(r, epochs);
                }
                None => i += 1,
            }
        }
        // Maps onto free slots, each place's local maps first (§3.3);
        // a twin only when no first attempt waits.
        let spec = &self.config.speculation;
        let twins = spec.enabled.then_some(spec.force_maps.as_slice());
        while self.sched.claimable(twins) {
            let Some(place) = self.cluster.take_map_slot() else {
                break;
            };
            let cluster = &*self.cluster;
            let (task, attempt, twin) = match self.sched.claim_map(|m| cluster.local(place, m)) {
                Some((m, attempt)) => (m, attempt, false),
                None => {
                    let forced = twins.unwrap_or_default();
                    let (m, attempt) = self.sched.claim_twin(forced).expect("claimable");
                    (m, attempt, true)
                }
            };
            let now = self.cluster.now();
            if twin {
                self.record(TaskKind::MapSpeculated, task, attempt);
                metrics().speculative_launched.inc();
            } else {
                self.st.map_started[task] = Some(now);
            }
            self.record(TaskKind::MapStart, task, attempt);
            self.st.running.insert((task, attempt), (now, twin));
            self.st.in_flight += 1;
            self.cluster.start_map(task, attempt, twin, place);
        }
    }

    /// Reduce `r`'s attempt waits out its injected straggle, then its
    /// barrier.
    fn ready(&mut self, r: usize) {
        let attempt = self.st.reduces[r].attempt;
        match self.config.fault_plan.reduce_fault(r, attempt) {
            Some(FaultKind::Straggle { delay_ms }) => {
                let at = self.cluster.now() + Duration::from_millis(delay_ms);
                self.st.timers.arm(at, Timer::ReduceReady(r));
            }
            _ => self.wait_barrier(r),
        }
    }

    fn wait_barrier(&mut self, r: usize) {
        self.st.reduces[r].waiting_since = self.cluster.now();
        self.st.waiting.push(r);
    }

    /// Reduce `r`'s barrier is met at `epochs`: its attempt goes to the
    /// cluster with the bound generations that fed it.
    fn dispatch(&mut self, r: usize, epochs: Vec<u32>) {
        let now = self.cluster.now();
        let run = &mut self.st.reduces[r];
        let mut sources = Vec::with_capacity(run.sources.len());
        run.rows = 0;
        for (&map, &epoch) in run.sources.iter().zip(&epochs) {
            let fed = self
                .st
                .fed
                .get(&(map, epoch))
                .map_or(&[][..], Vec::as_slice);
            if let Some(&(_, rows)) = fed.iter().find(|&&(reducer, _)| reducer == r) {
                sources.push(ReduceSource { map, epoch });
                run.rows += rows;
            }
        }
        run.bound = epochs;
        let (attempt, connections) = (run.attempt, run.sources.len() as u64);
        let waited = now - run.waiting_since;
        self.record(TaskKind::ReduceBarrierMet, r, attempt);
        metrics().barrier_wait_seconds.observe_duration(waited);
        metrics().copy_wait_seconds.observe_duration(waited);
        let fault = self.config.fault_plan.reduce_fault(r, attempt);
        if let Some(FaultKind::Fail | FaultKind::SourceError { .. }) = fault {
            // Injected: the attempt dies at its barrier, dispatching nothing.
            return self.reduce_failed(r, "injected failure".into());
        }
        // One contact per bound (map, reducer) pair, empty ones included:
        // Table 3's connections (§4.6).
        self.st.counters.shuffle_connections += connections;
        self.st.in_flight += 1;
        self.cluster.start_reduce(r, attempt, sources);
    }

    fn handle(&mut self, done: Done) {
        match done {
            Done::Map {
                task,
                attempt,
                place,
                result,
            } => self.map_returned(task, attempt, place, result),
            Done::Reduce { reducer, result } => self.reduce_returned(reducer, result),
        }
    }

    fn map_returned(
        &mut self,
        task: MapTaskId,
        attempt: u32,
        place: usize,
        result: Result<MapTally>,
    ) {
        self.cluster.free_map_slot(place);
        let (started, twin) =
            (self.st.running.remove(&(task, attempt))).expect("a running attempt reports once");
        let tally = match result {
            Ok(tally) => tally,
            Err(e) => return self.map_failed(task, attempt, e),
        };
        // The first commit wins, and only the committed attempt's
        // tally counts, as Hadoop's job counters do: a racer's work
        // would count or not by when it reports.
        if !self.sched.commit(task, attempt) {
            return self.lose_race(task, attempt);
        }
        let c = &mut self.st.counters;
        c.map_records_in += tally.records_in;
        c.map_records_out += tally.records_out;
        c.combined_records += tally.partitions.iter().map(|&(_, rows)| rows).sum::<u64>();
        self.st.fed.insert((task, attempt), tally.partitions);
        self.record(TaskKind::MapEnd, task, attempt);
        let took = self.cluster.now() - started;
        let ms = took.as_millis() as u64;
        let at = self.st.cohort.partition_point(|&d| d <= ms);
        self.st.cohort.insert(at, ms);
        metrics().map_task_seconds.observe_duration(took);
        if twin {
            metrics().speculative_won.inc();
        }
        if let Some(reopened_at) = self.st.recovering.remove(&task) {
            (metrics().recovery_seconds).observe_duration(self.cluster.now() - reopened_at);
        }
        self.stop_losers(task);
    }

    fn reduce_returned(
        &mut self,
        r: usize,
        result: std::result::Result<(Duration, u64), RemoteReduceError>,
    ) {
        match result {
            Ok((merged, records)) => {
                self.st.counters.shuffled_records += self.st.reduces[r].rows;
                self.st.counters.reduce_records_out += records;
                let attempt = self.st.reduces[r].attempt;
                self.record_at(TaskKind::ReduceMergeDone, r, attempt, merged);
                self.record(TaskKind::ReduceEnd, r, attempt);
                let took = self.cluster.now() - self.st.reduces[r].started;
                metrics().reduce_task_seconds.observe_duration(took);
                self.st.reduces_done += 1;
                self.st.reduce_slots -= 1;
                self.cluster.free_reduce_slot();
            }
            Err(RemoteReduceError::SourcesLost(lost)) => {
                // Nothing was consumed: re-execute exactly the lost maps
                // (their `I_ℓ` share); the same attempt waits for them.
                self.st.counters.lost_source_reports += 1;
                self.recover(r, |m| lost.contains(&m));
                self.wait_barrier(r);
            }
            Err(RemoteReduceError::AttemptFailed(cause)) => self.reduce_failed(r, cause),
            Err(RemoteReduceError::Fatal(e)) => self.fail(e),
        }
    }

    /// A map attempt failed: charged against the retry budget, the map
    /// is handed back after a backoff; an exhausted budget fails the job.
    fn map_failed(&mut self, task: MapTaskId, attempt: u32, e: MrError) {
        // Dying after its race was decided makes it a loser, not a failure.
        let Some(failures) = self.sched.attempt_failed(task, attempt) else {
            return self.lose_race(task, attempt);
        };
        if matches!(e, MrError::Cancelled) {
            // Its pause was cut short by the job's end.
            return self.fail(e);
        }
        self.record(TaskKind::MapFailed, task, attempt);
        let retry = &self.config.retry;
        if failures >= retry.max_task_attempts {
            return self.fail(MrError::TaskFailed {
                task: format!("map {task}"),
                cause: format!("{e} ({failures} attempts exhausted)"),
            });
        }
        let at = self.cluster.now() + retry.backoff(failures);
        self.st.timers.arm(at, Timer::MapRetry(task, attempt));
    }

    /// Either racer lost its first-commit-wins race.
    fn lose_race(&mut self, task: MapTaskId, attempt: u32) {
        self.record(TaskKind::MapSpeculationLost, task, attempt);
        metrics().speculative_wasted.inc();
    }

    /// Stops `task`'s running attempts that can no longer commit.
    fn stop_losers(&mut self, task: MapTaskId) {
        for &(m, attempt) in self.st.running.keys() {
            if m == task && self.sched.race_lost(m, attempt) {
                self.cluster.stop_map(m, attempt);
            }
        }
    }

    /// A reduce attempt failed: charged against the budget; under
    /// volatile intermediate data its whole `I_ℓ` re-executes.
    fn reduce_failed(&mut self, r: usize, cause: String) {
        let attempt = self.st.reduces[r].attempt;
        self.record(TaskKind::ReduceFailed, r, attempt);
        let retry = &self.config.retry;
        if attempt + 1 >= retry.max_task_attempts {
            return self.fail(MrError::TaskFailed {
                task: format!("reduce {r}"),
                cause: format!("{cause} ({} attempts exhausted)", attempt + 1),
            });
        }
        if self.config.volatile_intermediate {
            // The attempt consumed its fetches before dying.
            self.recover(r, |_| true);
        }
        metrics().task_retries_reduce.inc();
        let at = self.cluster.now() + retry.backoff(attempt + 1);
        self.st.timers.arm(at, Timer::ReduceRetry(r));
    }

    /// Dependency-scoped recovery (§6): each `lost` source of reduce `r`
    /// whose bound generation is still committed is re-opened, recorded
    /// as a `MapLost` of that generation, and its `min_epoch` moves past
    /// the lost binding.
    fn recover(&mut self, r: usize, lost: impl Fn(MapTaskId) -> bool) {
        let now = self.cluster.now();
        let run = &mut self.st.reduces[r];
        let mut reopened = Vec::new();
        for (i, &m) in run.sources.iter().enumerate() {
            if !lost(m) {
                continue;
            }
            // Mutation hook: forgetting the re-open leaves the retry
            // waiting for a recommit nobody will produce.
            if !chaos::on(Mutation::SkipRecoveryRewait) && self.sched.recover(m, run.bound[i]) {
                self.st.recovering.insert(m, now);
                metrics().maps_recovered.inc();
                reopened.push((m, run.bound[i]));
            }
            run.min_epoch[i] = run.bound[i] + 1;
        }
        for (m, epoch) in reopened {
            self.record(TaskKind::MapLost, m, epoch);
            self.stop_losers(m);
        }
    }

    fn fire(&mut self, timer: Timer) {
        match timer {
            Timer::Deadline => {
                let deadline_ms = self.config.deadline.unwrap_or_default().as_millis() as u64;
                self.fail(MrError::DeadlineExceeded { deadline_ms });
            }
            Timer::Look => self.st.look = None,
            Timer::MapRetry(task, attempt) => {
                if let Some(next) = self.sched.retry(task, attempt) {
                    metrics().task_retries_map.inc();
                    self.record(TaskKind::MapRetry, task, next);
                }
            }
            Timer::ReduceRetry(r) => {
                self.st.reduces[r].attempt += 1;
                self.ready(r);
            }
            Timer::ReduceReady(r) => self.wait_barrier(r),
        }
    }

    /// Speculation's look at the running maps: boosts a deadline job's
    /// trigger once its boost point passes (advisory `SIDR-I014`),
    /// grants a twin to every primary past the straggler threshold
    /// (true when it did), and arms the next look at the boost point or
    /// the next crossing, cancelling a stale one.
    fn look(&mut self) -> bool {
        let (policy, st) = (&self.config.speculation, &mut self.st);
        if !policy.enabled {
            return false;
        }
        let now = self.cluster.now();
        let mut next: Option<Duration> = None;
        if let Some(d) = self.config.deadline.filter(|_| !st.boosted) {
            let (map_slots, reduce_slots) = self.cluster.slots();
            let waves = |pending: usize, slots: usize| pending.div_ceil(slots.max(1)) as u64;
            let left = waves(self.sched.maps_unfinished(), map_slots)
                + waves(st.reduces.len() - st.reduces_done, reduce_slots);
            match policy.boost_at(&st.cohort, left, d) {
                Some(at) if now < at => next = Some(at),
                Some(_) => {
                    st.boosted = true;
                    metrics().deadline_boosts.inc();
                    eprintln!(
                        "[SIDR-I014] job deadline pressure: projected completion exceeds \
                         deadline_ms={}; speculation trigger boosted",
                        d.as_millis()
                    );
                }
                None => {}
            }
        }
        let mut granted = false;
        if let Some(ms) = policy.straggler_threshold_ms(&st.cohort, st.boosted) {
            let crossing = |m: MapTaskId| Some((m, st.map_started[m]? + Duration::from_millis(ms)));
            let candidates: Vec<_> = self.sched.twin_candidates().filter_map(crossing).collect();
            for (m, at) in candidates {
                if at <= now {
                    self.sched.grant_twin(m);
                    granted = true;
                } else {
                    next = Some(next.map_or(at, |n| n.min(at)));
                }
            }
        }
        if st.look.map(|(at, _)| at) != next {
            if let Some((_, id)) = st.look.take() {
                st.timers.cancel(id);
            }
            st.look = next.map(|at| (at, st.timers.arm(at, Timer::Look)));
        }
        granted
    }

    /// Ends the job: stops what still runs (a race's loser, or all after
    /// a failure), waits for each report and frees every slot held;
    /// returns the job's counters and events.
    fn finish(mut self) -> Result<(CountersSnapshot, Vec<TaskEvent>)> {
        for &(m, attempt) in self.st.running.keys() {
            self.cluster.stop_map(m, attempt);
        }
        while self.st.in_flight > 0 {
            match self.cluster.next(None) {
                Some(Done::Map {
                    task,
                    attempt,
                    place,
                    ..
                }) => {
                    self.cluster.free_map_slot(place);
                    // A racer still out when the last keyblock
                    // committed lost all the same.
                    if self.sched.race_lost(task, attempt) {
                        self.lose_race(task, attempt);
                    }
                }
                Some(Done::Reduce { .. }) => {}
                None => continue,
            }
            self.st.in_flight -= 1;
        }
        for _ in 0..self.st.reduce_slots {
            self.cluster.free_reduce_slot();
        }
        match self.st.error {
            Some(err) => Err(err),
            None => Ok((self.st.counters, self.st.events)),
        }
    }
}
