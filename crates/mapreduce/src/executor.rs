//! The task-execution seam: where a claimed task attempt actually
//! runs, where its committed output lives, and how a reducer gets it.
//!
//! The scheduler ([`crate::runtime`]'s coordinator loop) — slot
//! accounting, eligibility, dependency barriers, retry budgets,
//! first-commit-wins, recovery re-enqueueing — knows none of that. It
//! drives a [`Cluster`]: [`run_job_with_executor`]'s runs each attempt
//! on one of the job's slot threads through a [`TaskExecutor`],
//! interpreting the outcome in one fault vocabulary. Two executors exist. [`InProcessExecutor`]
//! runs attempts inside the scheduling process; the serving layer's
//! fleet coordinator dispatches them to `sidr-worker` processes.
//!
//! A committed partition is CRC-framed SMOF v4 bytes in a
//! [`PartitionStore`], for both executors: the in-process executor
//! keeps one per job, a worker one for all its jobs. Both commit a map
//! attempt's partitions through [`PartitionStore::commit_map`] (which
//! applies the job's output-damage faults), open a reduce's sources
//! through [`open_sources`], merge the [`Smof3View`]s in place
//! ([`run_reduce_attempt`]) and then release the sources through
//! [`PartitionStore::release`]. What writes the bytes is a pair of
//! [`AttemptBodies`] — every job's is `sidr_core::SpecExecutor`, the
//! geometric map a worker runs too.
//!
//! The job's books are the scheduler's. A map attempt *returns* its
//! [`MapTally`] — records in and out, and `(reducer, rows)` of each
//! partition it produced, read from the SMOF headers by
//! [`PartitionStore::commit_map`] — and the runtime records it once,
//! for every executor: the counters, and which reducers each committed
//! generation fed. A reduce attempt is handed only the sources that
//! fed its reducer, and checks its §3.2.1 tally only against the
//! `expected_raw` the runtime hands it.
//!
//! A lost generation — a dead worker, a released partition, a failed
//! CRC — surfaces as [`RemoteReduceError::SourcesLost`]: the
//! scheduler re-enqueues exactly those maps, the dependency-scoped
//! (`I_ℓ`) recovery of §6.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::MrError;
use crate::fault::FaultKind;
use crate::keyblock::Keyblock;
use crate::output::OutputCollector;
use crate::plan::JobPlan;
use crate::runtime::{coordinate, JobConfig};
use crate::shuffle::{GroupBatch, MergeIter};
use crate::slots::{CancelToken, Inbox, SlotPool, Wake};
use crate::smof3::Smof3View;
use crate::split::{InputSplit, MapTaskId};
use crate::sync::{chaos, thread, time};
use crate::task::{MrKey, MrValue};
use crate::tier::{MemBackend, PartitionStore, TierConfig, TierPressure};
use crate::timeline::JobResult;
use crate::wire::WireFormat;
use crate::Result;

/// One source partition of a reduce attempt: which map attempt's
/// committed output the executor must fetch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReduceSource {
    pub map: MapTaskId,
    /// The commit epoch (map attempt id) the scheduler observed; the
    /// fetch must consume exactly this generation.
    pub epoch: u32,
}

/// How a reduce attempt failed, in the scheduler's fault vocabulary.
#[derive(Debug)]
pub enum RemoteReduceError {
    /// Source partitions are gone — with a dead worker, to a failed
    /// CRC, released by an earlier reduce, or released by a fleet
    /// attempt whose reply was then rejected — and *this attempt
    /// consumed nothing*. The scheduler re-enqueues exactly these maps
    /// and retries the same attempt once they recommit; no retry
    /// budget is charged.
    SourcesLost(Vec<MapTaskId>),
    /// The attempt failed. Charged against the retry budget. Under
    /// volatile intermediate data the scheduler takes its fetches as
    /// consumed and re-executes the whole dependency set; otherwise
    /// its retry simply fetches again, since no attempt releases a
    /// source before its keyblock is whole.
    AttemptFailed(String),
    /// Unrecoverable: fail the job with this error.
    Fatal(MrError),
}

/// What one map attempt produced, as the scheduler records it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MapTally {
    /// Records read from the split.
    pub records_in: u64,
    /// Intermediate pairs the map represents: what its partitions'
    /// annotations sum to, before any selection or combiner.
    pub records_out: u64,
    /// `(reducer, rows)` of each partition produced, in reducer order:
    /// a reducer not listed got nothing from this attempt. A partition
    /// may hold no row — a filter passed none of its values — while its
    /// annotation still counts the pairs it represents.
    pub partitions: Vec<(usize, u64)>,
}

/// What one map attempt body produced: per-reducer partitions as
/// encoded SMOF buffers. A partition appears for each reducer the map
/// represents pairs for, rows or none; absence means the map produced
/// nothing for that reducer.
#[derive(Clone, Debug)]
pub struct MapAttemptOutput {
    pub partitions: Vec<(usize, Vec<u8>)>,
    /// Records read from the split.
    pub records_in: u64,
    /// Intermediate pairs the map represents: what its partitions'
    /// annotations sum to, before any selection or combiner.
    pub records_out: u64,
}

/// Runs task attempts for the scheduler and holds their committed
/// output. The engine never sees sockets, placement or payload
/// representation.
pub trait TaskExecutor<K2: MrKey, V3: MrValue>: Sync {
    /// Runs one map attempt to *committed output held by the
    /// executor* under the generation `(task, attempt)`, and returns
    /// what it produced. On `Ok` the scheduler records the tally,
    /// decides first-commit-wins and, for the winner, marks the map
    /// `Done` at `attempt`; a loser's generation is simply never
    /// bound. Errors are charged against the map's retry budget.
    /// `speculative` marks a twin racing a running straggler: a fleet
    /// places it on a different worker than the primary.
    ///
    /// `pause` is the only way an attempt may wait (an injected
    /// straggle): it sleeps up to the given duration and returns
    /// `false` the moment the job is cancelled, has failed, or the
    /// attempt has lost its race — the attempt then returns
    /// [`MrError::Cancelled`].
    fn execute_map(
        &self,
        task: MapTaskId,
        attempt: u32,
        speculative: bool,
        split: &InputSplit,
        pause: &dyn Fn(Duration) -> bool,
    ) -> Result<MapTally>;

    /// Runs one reduce attempt: fetch the `sources` generations (each
    /// produced a partition for this reducer), merge
    /// them in the given order (the plan's fetch order — the equal-key
    /// tie-break), reduce, and return the attempt's whole keyblock in
    /// key order, as packed rows — nothing leaves an attempt until it
    /// is complete, so a failed attempt is always retryable.
    /// `expected_raw` carries the plan's §3.2.1 annotation
    /// expectation, when it promises one.
    fn execute_reduce(
        &self,
        reducer: usize,
        attempt: u32,
        sources: &[ReduceSource],
        expected_raw: Option<u64>,
    ) -> std::result::Result<Keyblock<K2, V3>, RemoteReduceError>;
}

/// What an attempt reports to its job's loop.
pub enum Done {
    Map {
        task: MapTaskId,
        attempt: u32,
        place: usize,
        result: Result<MapTally>,
    },
    /// When the attempt's merge ended, on the cluster's clock, and the
    /// records it committed; or why it did not commit.
    Reduce {
        reducer: usize,
        result: std::result::Result<(Duration, u64), RemoteReduceError>,
    },
}

/// Where a job's attempts run: its clock, slots and runners. The loop
/// makes every decision; a cluster runs what it is told and reports
/// through [`next`](Cluster::next).
pub trait Cluster {
    /// Time since the job started.
    fn now(&self) -> Duration;
    /// Cluster-wide `(map, reduce)` slot counts.
    fn slots(&self) -> (usize, usize);
    /// Occupies a free map slot and names its place (a node) or, with
    /// none free, has [`next`](Cluster::next) wake when one frees.
    fn take_map_slot(&mut self) -> Option<usize>;
    fn take_reduce_slot(&mut self) -> bool;
    fn free_map_slot(&mut self, place: usize);
    fn free_reduce_slot(&mut self);
    /// Whether `map`'s input is local to `place`: what
    /// [`Schedule::claim_map`](crate::schedule::Schedule::claim_map) prefers.
    fn local(&self, place: usize, map: MapTaskId) -> bool;
    fn start_map(&mut self, task: MapTaskId, attempt: u32, speculative: bool, place: usize);
    /// Starts a reduce attempt over the bound generations that fed it.
    fn start_reduce(&mut self, reducer: usize, attempt: u32, sources: Vec<ReduceSource>);
    /// Cuts a running map attempt's pause short (a lost race, a job's end).
    fn stop_map(&mut self, task: MapTaskId, attempt: u32);
    /// The next report; `None` once `until` passes, or on a wake that
    /// brings none (a slot freed, a cancel).
    fn next(&mut self, until: Option<Duration>) -> Option<Done>;
}

/// What an injected fault does at the start of a map attempt: a
/// straggler waits through `pause` (and is [`MrError::Cancelled`] when
/// the wait is cut short), a failure dies before any work. Returns the
/// record count after which a source fault turns the read into
/// [`injected_source_error`]; every other kind acts after the attempt.
pub fn begin_map_attempt(
    task: MapTaskId,
    attempt: u32,
    fault: Option<FaultKind>,
    pause: &dyn Fn(Duration) -> bool,
) -> Result<Option<u64>> {
    match fault {
        Some(FaultKind::Straggle { delay_ms }) if !pause(Duration::from_millis(delay_ms)) => {
            Err(MrError::Cancelled)
        }
        Some(FaultKind::Fail) => Err(MrError::Source(format!(
            "injected failure: map {task} attempt {attempt}"
        ))),
        Some(FaultKind::SourceError { after_records }) => Ok(Some(after_records)),
        _ => Ok(None),
    }
}

/// The transient I/O error a `SourceError` fault injects once a map
/// attempt has read `after` records.
pub fn injected_source_error(task: MapTaskId, attempt: u32, after: u64) -> MrError {
    MrError::Source(format!(
        "injected transient I/O error: map {task} attempt {attempt} after {after} records"
    ))
}

/// Records handed through the merge per [`GroupBatch`] fill: big
/// enough to amortize heap bookkeeping, small enough that a batch of
/// ⟨coord, f64⟩ stays cache-resident.
const REDUCE_BATCH_RECORDS: usize = 4096;

/// The reduce attempt body: open a merge cursor per input view **in the
/// given order** (the plan's fetch order breaks ties between equal
/// keys, which is what keeps output byte-identical wherever the
/// attempt runs) → §3.2.1 annotation tally → batched merge → `reduce`,
/// which gets each key's group mutably from the batch that owns it (it
/// may reorder the group in place: the holistic query operators select
/// or sort there) and emits the key's output values. Returns the
/// keyblock: every output row, in key order, each the group's packed
/// key bytes and then the value's, written into one buffer sized for a
/// row per key — no key is decoded or allocated between the merge and
/// the frame. Rows whose keys differ in width (sources of different
/// key ranks) cannot share a keyblock: that is
/// [`MrError::Output`], and no retry changes it.
///
/// The merge streams — batches amortize the per-group heap
/// bookkeeping and no whole-keyspace `Vec<(K, Vec<V>)>` is ever
/// materialized — but the output is only handed on whole.
pub fn run_reduce_attempt<K, V, V3>(
    reducer: usize,
    inputs: Vec<Smof3View<K, V>>,
    expected_raw: Option<u64>,
    mut reduce: impl FnMut(&mut [V], &mut dyn FnMut(V3)),
) -> Result<Keyblock<K, V3>>
where
    K: MrKey + WireFormat,
    V: MrValue,
    V3: MrValue + WireFormat,
{
    let mut merge: MergeIter<K, V> = MergeIter::new();
    let (mut actual, mut merged_bytes, mut keys) = (0u64, 0u64, 0usize);
    for input in inputs {
        actual += input.raw_count();
        merged_bytes += input.byte_len() as u64;
        keys += input.runs();
        merge.push_frame(input);
    }
    // Starting with less input than the geometry promises would
    // produce "an answer based on insufficient input" (§3.2.1
    // approach 2).
    if let Some(expected) = expected_raw {
        if actual != expected {
            return Err(MrError::AnnotationMismatch {
                reducer,
                expected,
                actual,
            });
        }
    }
    let mut batch: GroupBatch<K, V> = GroupBatch::new();
    // Distinct keys are at most the sources' runs: one row each, the
    // common case, fits without a reallocation.
    let mut out = Keyblock::with_hint(keys);
    while merge.fill_batch(&mut batch, REDUCE_BATCH_RECORDS) != 0 {
        for (key, values) in batch.groups_mut() {
            let mut one_width = true;
            reduce(values, &mut |v3| one_width &= out.push(key, &v3));
            if !one_width {
                return Err(MrError::Output(format!(
                    "reducer {reducer}'s keyblock mixes key widths; its rows need one"
                )));
            }
        }
    }
    let m = crate::metrics::runtime();
    m.merge_records.add(merge.records_consumed());
    m.merge_bytes.add(merged_bytes);
    Ok(out)
}

/// The two attempt bodies an [`InProcessExecutor`] runs: a map attempt
/// that leaves its partitions as encoded SMOF v4 bytes, and a reduce
/// attempt over views of those bytes.
pub trait AttemptBodies: Sync {
    /// The intermediate key.
    type Key: MrKey + WireFormat;
    /// The intermediate value.
    type Value: MrValue + WireFormat;
    /// The reduce output value.
    type Out: MrValue + WireFormat;

    /// Runs map attempt `(task, attempt)` over `split` under its
    /// injected `fault` (see [`begin_map_attempt`]).
    fn map(
        &self,
        task: MapTaskId,
        attempt: u32,
        fault: Option<FaultKind>,
        split: &InputSplit,
        pause: &dyn Fn(Duration) -> bool,
    ) -> Result<MapAttemptOutput>;

    /// Reduces one keyblock over its sources' views, in fetch order,
    /// checking the §3.2.1 tally against `expected_raw` when given —
    /// and only then.
    fn reduce(
        &self,
        reducer: usize,
        inputs: Vec<Smof3View<Self::Key, Self::Value>>,
        expected_raw: Option<u64>,
    ) -> Result<Keyblock<Self::Key, Self::Out>>;
}

/// Both executors' one way to open a reduce's sources: `fetched` holds
/// each source's `(map, epoch)` and bytes (`None`: absent), in fetch
/// order. A source that is absent or fails its CRC is lost, and then
/// nothing is opened or released; any other error is fatal.
#[allow(clippy::type_complexity)]
pub fn open_sources<K: MrKey + WireFormat, V: MrValue + WireFormat>(
    store: &PartitionStore,
    job: u64,
    reducer: usize,
    fetched: Vec<(MapTaskId, u32, Option<Arc<Vec<u8>>>)>,
) -> std::result::Result<Vec<Smof3View<K, V>>, RemoteReduceError> {
    let mut views = Vec::with_capacity(fetched.len());
    let mut sound = Vec::with_capacity(fetched.len());
    let (mut lost, mut corrupt) = (Vec::new(), false);
    for (map, epoch, bytes) in fetched {
        match bytes.map(Smof3View::open) {
            Some(Ok(view)) => {
                views.push(view);
                sound.push((map, epoch));
            }
            None => lost.push(map),
            Some(Err(MrError::CorruptShuffle { .. })) => {
                lost.push(map);
                corrupt = true;
            }
            Some(Err(e)) => return Err(RemoteReduceError::Fatal(e)),
        }
    }
    if lost.is_empty() {
        return Ok(views);
    }
    if corrupt && chaos::on(chaos::Mutation::ReleaseOnLostSources) {
        store.release(job, reducer, &sound);
    }
    Err(RemoteReduceError::SourcesLost(lost))
}

/// The in-process job's id in its executor's own store.
const JOB: u64 = 0;

/// The in-process executor: attempts run on the job's slot threads
/// through a pair of [`AttemptBodies`], and committed
/// map output stays in the job's own unbounded [`PartitionStore`].
///
/// Partitions are keyed by their generation `(map, attempt)`, so a
/// speculative loser or a superseded re-execution can never overwrite
/// what a reducer was promised — it just sits unbound. A reduce
/// releases its sources once it has reduced them, volatile or not: a
/// reduce that succeeded is never retried, and one that failed ends
/// the job. A source the store no longer holds is lost. One executor
/// serves one job; dropping it drops all the job still holds.
pub struct InProcessExecutor<'a, B> {
    bodies: B,
    /// The job's fault script.
    config: &'a JobConfig,
    /// Every committed partition, keyed `(JOB, map, reducer, attempt)`.
    store: PartitionStore,
}

impl<'a, B> InProcessExecutor<'a, B> {
    /// An executor running `bodies` under `config`'s fault script.
    pub fn with_bodies(bodies: B, config: &'a JobConfig) -> Self {
        let store = PartitionStore::new(TierConfig::default(), Arc::new(MemBackend::new()));
        store.prepare_job(JOB, config.fault_plan.clone(), &[]);
        InProcessExecutor {
            bodies,
            config,
            store,
        }
    }

    /// What the job's store holds now, and its high-water mark.
    pub fn pressure(&self) -> TierPressure {
        self.store.pressure()
    }
}

impl<B: AttemptBodies> TaskExecutor<B::Key, B::Out> for InProcessExecutor<'_, B> {
    fn execute_map(
        &self,
        task: MapTaskId,
        attempt: u32,
        _speculative: bool,
        split: &InputSplit,
        pause: &dyn Fn(Duration) -> bool,
    ) -> Result<MapTally> {
        let fault = self.config.fault_plan.map_fault(task, attempt);
        let out = (self.bodies).map(task, attempt, fault, split, pause)?;
        Ok(MapTally {
            records_in: out.records_in,
            records_out: out.records_out,
            partitions: self.store.commit_map(JOB, task, attempt, out.partitions),
        })
    }

    fn execute_reduce(
        &self,
        reducer: usize,
        _attempt: u32,
        sources: &[ReduceSource],
        expected_raw: Option<u64>,
    ) -> std::result::Result<Keyblock<B::Key, B::Out>, RemoteReduceError> {
        let held: Vec<(MapTaskId, u32)> = sources.iter().map(|s| (s.map, s.epoch)).collect();
        let fetched = (held.iter())
            .map(|&(map, epoch)| {
                let bytes = self.store.get(&(JOB, map, reducer, epoch));
                (map, epoch, bytes.ok().flatten())
            })
            .collect();
        let inputs = open_sources(&self.store, JOB, reducer, fetched)?;
        let out = (self.bodies)
            .reduce(reducer, inputs, expected_raw)
            .map_err(RemoteReduceError::Fatal)?;
        self.store.release(JOB, reducer, &held);
        Ok(out)
    }
}

/// An attempt's body, as one of the job's slot threads runs it.
type Attempt<'e> = Box<dyn FnOnce() + Send + 'e>;

/// One slot class's threads: each runs the attempts posted to `queue`
/// until a `None` — one per thread, posted when the job's loop ends.
struct SlotThreads<'e> {
    queue: Inbox<Option<Attempt<'e>>>,
    n: usize,
}

impl SlotThreads<'_> {
    fn run(&self) {
        loop {
            match self.queue.next(None) {
                Some(Some(attempt)) => attempt(),
                Some(None) => return,
                None => {}
            }
        }
    }
}

/// Ends the job's slot threads when dropped, however its loop ends.
struct EndThreads<'r, 'e>([&'r SlotThreads<'e>; 2]);

impl Drop for EndThreads<'_, '_> {
    fn drop(&mut self) {
        for class in self.0 {
            (0..class.n).for_each(|_| class.queue.post(None));
        }
    }
}

/// The in-process cluster: each attempt on one of the job's slot
/// threads, through the executor, over a [`SlotPool`] other jobs may
/// share.
struct Threads<'r, 'e, K2, V3> {
    /// Map attempts run on map slot threads only and reduces on reduce
    /// ones, so each class's buffers stay in its threads' allocator
    /// arenas.
    maps: &'r SlotThreads<'e>,
    reduces: &'r SlotThreads<'e>,
    inbox: Arc<Inbox<Done>>,
    pool: &'e SlotPool,
    splits: &'e [InputSplit],
    plan: &'e JobPlan,
    output: &'e dyn OutputCollector<K2, V3>,
    executor: &'e dyn TaskExecutor<K2, V3>,
    /// The job's start: the cluster's clock counts from here.
    origin: Instant,
    /// What each running map attempt's `pause` waits on: the loop rings
    /// it to stop the attempt.
    stops: HashMap<(MapTaskId, u32), Arc<Inbox<()>>>,
}

impl<K2, V3> Threads<'_, '_, K2, V3> {
    /// The inbox, as a slot release rings it.
    fn waker(&self) -> Arc<dyn Wake> {
        Arc::clone(&self.inbox) as Arc<dyn Wake>
    }
}

impl<K2: MrKey, V3: MrValue> Cluster for Threads<'_, '_, K2, V3> {
    fn now(&self) -> Duration {
        time::now() - self.origin
    }

    fn slots(&self) -> (usize, usize) {
        (self.pool.map_slots(), self.pool.reduce_slots())
    }

    fn take_map_slot(&mut self) -> Option<usize> {
        self.pool.map.try_acquire(&self.waker()).then_some(0)
    }

    fn take_reduce_slot(&mut self) -> bool {
        self.pool.reduce.try_acquire(&self.waker())
    }

    fn free_map_slot(&mut self, _place: usize) {
        self.pool.map.release();
    }

    fn free_reduce_slot(&mut self) {
        self.pool.reduce.release();
    }

    fn local(&self, _place: usize, _map: MapTaskId) -> bool {
        true
    }

    fn start_map(&mut self, task: MapTaskId, attempt: u32, speculative: bool, place: usize) {
        let stop = Arc::new(Inbox::default());
        self.stops.insert((task, attempt), Arc::clone(&stop));
        let (inbox, executor, splits) = (Arc::clone(&self.inbox), self.executor, self.splits);
        // The executor keeps the attempt's output under the generation
        // (task, attempt), each racer's under its own; the loop decides
        // the race.
        self.maps.queue.post(Some(Box::new(move || {
            // Slept out, or cut short by a ring.
            let pause = |dur: Duration| {
                let until = time::now() + dur;
                stop.next(Some(until));
                time::now() >= until
            };
            let split = &splits[task];
            let result = executor.execute_map(task, attempt, speculative, split, &pause);
            inbox.post(Done::Map {
                task,
                attempt,
                place,
                result,
            });
        })));
    }

    fn start_reduce(&mut self, reducer: usize, attempt: u32, sources: Vec<ReduceSource>) {
        let expected_raw = self.plan.expected_raw(reducer);
        let (inbox, executor) = (Arc::clone(&self.inbox), self.executor);
        let (output, origin) = (self.output, self.origin);
        // The attempt returns its whole keyblock, committed atomically
        // (§2.3) on this thread, so a slow collector holds no decision.
        self.reduces.queue.post(Some(Box::new(move || {
            let result = (executor.execute_reduce(reducer, attempt, &sources, expected_raw))
                .and_then(|out| {
                    let (merged, records) = (time::now() - origin, out.len() as u64);
                    (output.commit_keyblock(reducer, out)).map_err(RemoteReduceError::Fatal)?;
                    Ok((merged, records))
                });
            inbox.post(Done::Reduce { reducer, result });
        })));
    }

    fn stop_map(&mut self, task: MapTaskId, attempt: u32) {
        if let Some(stop) = self.stops.get(&(task, attempt)) {
            stop.ring();
        }
    }

    fn next(&mut self, until: Option<Duration>) -> Option<Done> {
        let done = (self.inbox).next(until.map(|d| self.origin + d))?;
        if let Done::Map { task, attempt, .. } = done {
            self.stops.remove(&(task, attempt));
        }
        Some(done)
    }
}

/// The scheduler entry point: runs one job's attempts through
/// `executor` — in-process or a worker fleet — while the coordinator
/// loop keeps everything above the payload: eligibility, inverted
/// scheduling, barriers, slots, retry budgets, first-commit-wins and
/// dependency-scoped recovery. The executor outlives the call: what
/// it still holds when the job ends is its owner's to drop.
pub fn run_job_with_executor<'e, K2: MrKey, V3: MrValue>(
    splits: &'e [InputSplit],
    plan: &'e JobPlan,
    output: &'e dyn OutputCollector<K2, V3>,
    config: &JobConfig,
    pool: &'e SlotPool,
    cancel: Option<&CancelToken>,
    executor: &'e dyn TaskExecutor<K2, V3>,
) -> Result<JobResult> {
    if splits.is_empty() {
        return Err(MrError::BadConfig("no input splits".into()));
    }
    let inbox = Arc::new(Inbox::default());
    let waker = Arc::clone(&inbox) as Arc<dyn Wake>;
    // Registered while the inbox lives: for this job.
    if let Some(c) = cancel {
        c.register(&waker);
    }
    // One thread per slot the pool could ever grant this job, capped by
    // its task counts (a twin per map under speculation): the slots,
    // not the threads, bound what runs, so no attempt waits for one.
    let twins = if config.speculation.enabled { 2 } else { 1 };
    let maps = SlotThreads {
        queue: Inbox::default(),
        n: pool.map_slots().min(splits.len() * twins),
    };
    let reduces = SlotThreads {
        queue: Inbox::default(),
        n: pool.reduce_slots().min(plan.num_reducers()),
    };
    let outcome = thread::scope(|scope| {
        for class in [&maps, &reduces] {
            (0..class.n).for_each(|_| {
                scope.spawn(|| class.run());
            });
        }
        let _end = EndThreads([&maps, &reduces]);
        let mut threads = Threads {
            maps: &maps,
            reduces: &reduces,
            inbox,
            pool,
            splits,
            plan,
            output,
            executor,
            origin: time::now(),
            stops: HashMap::new(),
        };
        coordinate(&mut threads, splits.len(), plan, config, cancel)
    });
    let result = outcome?;
    // §3.2.1 approach 2, whole-job form: in debug builds, the map-output
    // tally must match the plan's prediction when it makes one and every
    // map ran exactly once, as attempt 0 (skips, retries, re-executions
    // and twins change the totals).
    #[cfg(debug_assertions)]
    {
        let mut starts = result
            .events
            .iter()
            .filter(|e| e.kind == crate::TaskKind::MapStart);
        let ran_once = starts.clone().count() == splits.len() && starts.all(|e| e.attempt == 0);
        let expected = plan.expected_raw.as_ref().map(|e| e.iter().sum::<u64>());
        if let Some(expected) = expected.filter(|_| ran_once) {
            debug_assert_eq!(
                result.counters.map_records_out, expected,
                "static plan prediction disagrees with the runtime map-output tally"
            );
        }
    }
    Ok(result)
}
