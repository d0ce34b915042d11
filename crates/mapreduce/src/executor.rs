//! The task-execution seam: where a claimed task attempt actually
//! runs, where its committed output lives, and how a reducer gets it.
//!
//! The scheduler ([`crate::runtime`]) — slot accounting, eligibility,
//! dependency barriers, retry budgets, first-commit-wins, recovery
//! re-enqueueing — knows none of that: it hands every attempt to a
//! [`TaskExecutor`] and interprets the outcome in one fault
//! vocabulary. Two executors exist. [`InProcessExecutor`] runs
//! attempts inside the scheduling process; the serving layer's fleet
//! coordinator dispatches them to `sidr-worker` processes.
//!
//! A committed partition is CRC-framed SMOF v4 bytes in a
//! [`PartitionStore`], for both executors: the in-process executor
//! keeps one per job, a worker one for all its jobs. Both commit a map
//! attempt's partitions through [`PartitionStore::commit_map`] (which
//! applies the job's output-damage faults), open a reduce's sources
//! through [`open_sources`], merge the [`Smof3View`]s in place
//! ([`run_reduce_attempt`]) and then release the sources through
//! [`PartitionStore::release`]. What writes the bytes is a pair of
//! [`AttemptBodies`]: a generic `run_job` job's per-record
//! [`run_map_attempt`], or a spec job's geometric map
//! (`sidr_core::SpecExecutor`, which a worker runs too).
//!
//! The job's books are the scheduler's. A map attempt *returns* its
//! [`MapTally`] — records in and out, and `(reducer, rows)` of each
//! non-empty partition, read from the SMOF headers by
//! [`PartitionStore::commit_map`] — and the runtime records it once,
//! for every executor: the counters, and which reducers each committed
//! generation fed. A reduce attempt is handed only the sources that
//! fed its reducer, and checks its §3.2.1 tally only against the
//! `expected_raw` the runtime hands it.
//!
//! A lost generation — a dead worker, a consumed volatile partition, a
//! failed CRC — surfaces as [`RemoteReduceError::SourcesLost`]: the
//! scheduler re-enqueues exactly those maps, the dependency-scoped
//! (`I_ℓ`) recovery of §6.

use std::sync::Arc;
use std::time::Duration;

use crate::error::MrError;
use crate::fault::FaultKind;
use crate::plan::RoutingPlan;
use crate::runtime::JobConfig;
use crate::shuffle::{GroupBatch, MapOutputBuilder, MergeIter};
use crate::shuffle_file::encode_map_output;
use crate::smof3::Smof3View;
use crate::split::{InputSplit, MapTaskId};
use crate::sync::chaos;
use crate::task::{Combiner, Mapper, MrKey, MrValue, RecordSource, Reducer};
use crate::tier::{MemBackend, PartitionStore, TierConfig, TierPressure};
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
    /// CRC, consumed by an earlier volatile fetch, or released by a
    /// fleet attempt whose reply was then rejected — and *this attempt
    /// consumed nothing*. The scheduler re-enqueues exactly these maps
    /// and retries the same attempt once they recommit; no retry
    /// budget is charged.
    SourcesLost(Vec<MapTaskId>),
    /// The attempt failed. Charged against the retry budget. Under
    /// the in-process engine's volatile intermediate data its fetches
    /// were consumed, so the scheduler re-executes the whole dependency
    /// set; a fleet attempt releases nothing before it has replied, so
    /// its retry simply fetches again.
    AttemptFailed(String),
    /// Unrecoverable: fail the job with this error.
    Fatal(MrError),
}

/// What one map attempt produced, as the scheduler records it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MapTally {
    /// Records read from the split.
    pub records_in: u64,
    /// Intermediate records the map emitted, before any combiner.
    pub records_out: u64,
    /// `(reducer, rows)` of each non-empty partition, in reducer
    /// order: a reducer not listed got nothing from this attempt.
    pub partitions: Vec<(usize, u64)>,
}

/// What one map attempt body produced: per-reducer partitions as
/// encoded SMOF buffers (only non-empty partitions appear: absence
/// means the map produced nothing for that reducer).
#[derive(Clone, Debug)]
pub struct MapAttemptOutput {
    pub partitions: Vec<(usize, Vec<u8>)>,
    /// Records read from the split.
    pub records_in: u64,
    /// Intermediate records the map emitted, before any combiner.
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
    /// fed this reducer a non-empty partition), merge
    /// them in the given order (the plan's fetch order — the equal-key
    /// tie-break), reduce, and return the attempt's whole keyblock in
    /// key order — nothing leaves an attempt until it is complete, so
    /// a failed attempt is always retryable. `expected_raw` carries
    /// the plan's §3.2.1 annotation expectation, when it promises one.
    fn execute_reduce(
        &self,
        reducer: usize,
        attempt: u32,
        sources: &[ReduceSource],
        expected_raw: Option<u64>,
    ) -> std::result::Result<Vec<(K2, V3)>, RemoteReduceError>;
}

/// The map attempt body: fault → read → map → partition →
/// [`MapOutputBuilder::finish`] → [`encode_map_output`]. Returns the
/// non-empty partitions and the attempt's record tallies.
///
/// `fault` is the injected fault for exactly this (task, attempt): a
/// straggler waits through `pause` (see [`TaskExecutor::execute_map`]),
/// a failure dies before any work, a source fault turns the record
/// stream into a transient I/O error mid-read. `open` runs only after
/// those, so a failed attempt never opens its split.
#[allow(clippy::too_many_arguments)]
pub fn run_map_attempt<S, K2, V2>(
    task: MapTaskId,
    attempt: u32,
    fault: Option<FaultKind>,
    open: impl FnOnce() -> Result<S>,
    mapper: &dyn Mapper<InKey = S::Key, InValue = S::Value, OutKey = K2, OutValue = V2>,
    combiner: Option<&dyn Combiner<Key = K2, Value = V2>>,
    plan: &dyn RoutingPlan<K2>,
    pause: &dyn Fn(Duration) -> bool,
) -> Result<MapAttemptOutput>
where
    S: RecordSource,
    K2: MrKey + WireFormat,
    V2: MrValue + WireFormat,
{
    let source_err_after = begin_map_attempt(task, attempt, fault, pause)?;
    let mut source = open()?;
    let mut builder = MapOutputBuilder::new(plan.num_reducers());
    let mut records_in = 0u64;
    let mut records_out = 0u64;
    while let Some((k, v)) = source.next_record()? {
        if source_err_after.is_some_and(|after| records_in >= after) {
            return Err(injected_source_error(task, attempt, records_in));
        }
        records_in += 1;
        mapper.map(&k, &v, &mut |k2, v2| {
            let reducer = plan.partition(&k2);
            builder.push(reducer, k2, v2);
            records_out += 1;
        });
    }
    let files = builder.finish(combiner);
    Ok(MapAttemptOutput {
        partitions: (files.iter())
            .map(|(reducer, file)| Ok((*reducer, encode_map_output(file)?)))
            .collect::<Result<_>>()?,
        records_in,
        records_out,
    })
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
/// attempt runs) → §3.2.1 annotation tally → batched merge → reduce
/// fn. Returns the keyblock: every output record, in key order.
///
/// The merge streams — batches amortize the per-group heap
/// bookkeeping and no whole-keyspace `Vec<(K, Vec<V>)>` is ever
/// materialized — but the output is only handed on whole.
pub fn run_reduce_attempt<K, V, V3>(
    reducer: usize,
    inputs: Vec<Smof3View<K, V>>,
    expected_raw: Option<u64>,
    reducer_fn: &dyn Reducer<Key = K, InValue = V, OutValue = V3>,
) -> Result<Vec<(K, V3)>>
where
    K: MrKey,
    V: MrValue,
    V3: MrValue,
{
    let mut merge: MergeIter<K, V> = MergeIter::new();
    let mut actual = 0u64;
    for input in inputs {
        actual += input.raw_count();
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
    let mut out: Vec<(K, V3)> = Vec::new();
    while merge.fill_batch(&mut batch, REDUCE_BATCH_RECORDS) != 0 {
        for (key, values) in batch.groups() {
            reducer_fn.reduce(key, values, &mut |v3| out.push((key.clone(), v3)));
        }
    }
    let merged = merge.records_consumed();
    let m = crate::metrics::runtime();
    m.merge_records.add(merged);
    m.merge_bytes
        .add(merged.saturating_mul(std::mem::size_of::<(K, V)>() as u64));
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
    type Out: MrValue;

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
    ) -> Result<Vec<(Self::Key, Self::Out)>>;
}

/// A generic `run_job` job's attempt bodies: the per-record
/// [`run_map_attempt`] over its record source, user functions and
/// partition function; and [`run_reduce_attempt`] with its reduce
/// function.
pub struct JobBodies<'a, K1, V1, K2, V2, V3, SF>
where
    K1: MrKey,
    V1: MrValue,
    K2: MrKey,
    V2: MrValue,
    V3: MrValue,
{
    source_factory: &'a SF,
    mapper: &'a dyn Mapper<InKey = K1, InValue = V1, OutKey = K2, OutValue = V2>,
    combiner: Option<&'a dyn Combiner<Key = K2, Value = V2>>,
    reducer: &'a dyn Reducer<Key = K2, InValue = V2, OutValue = V3>,
    plan: &'a dyn RoutingPlan<K2>,
}

impl<K1, V1, K2, V2, V3, SF, S> AttemptBodies for JobBodies<'_, K1, V1, K2, V2, V3, SF>
where
    K1: MrKey,
    V1: MrValue,
    K2: MrKey + WireFormat,
    V2: MrValue + WireFormat,
    V3: MrValue,
    SF: Fn(MapTaskId, &InputSplit) -> Result<S> + Sync,
    S: RecordSource<Key = K1, Value = V1>,
{
    type Key = K2;
    type Value = V2;
    type Out = V3;

    fn map(
        &self,
        task: MapTaskId,
        attempt: u32,
        fault: Option<FaultKind>,
        split: &InputSplit,
        pause: &dyn Fn(Duration) -> bool,
    ) -> Result<MapAttemptOutput> {
        run_map_attempt(
            task,
            attempt,
            fault,
            || (self.source_factory)(task, split),
            self.mapper,
            self.combiner,
            self.plan,
            pause,
        )
    }

    fn reduce(
        &self,
        reducer: usize,
        inputs: Vec<Smof3View<K2, V2>>,
        expected_raw: Option<u64>,
    ) -> Result<Vec<(K2, V3)>> {
        run_reduce_attempt(reducer, inputs, expected_raw, self.reducer)
    }
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

/// The in-process executor: attempts run on the scheduler's own
/// worker threads through a pair of [`AttemptBodies`], and committed
/// map output stays in the job's own unbounded [`PartitionStore`].
///
/// Partitions are keyed by their generation `(map, attempt)`, so a
/// speculative loser or a superseded re-execution can never overwrite
/// what a reducer was promised — it just sits unbound. A reduce
/// releases its sources once it has reduced them (volatile data: once
/// they are all open); a reduce that succeeded is never retried. A
/// source the store no longer holds is lost. One executor serves one
/// job; dropping it drops all the job still holds.
pub struct InProcessExecutor<'a, B> {
    bodies: B,
    /// Fault script and `volatile_intermediate`.
    config: &'a JobConfig,
    /// Every committed partition, keyed `(JOB, map, reducer, attempt)`.
    store: PartitionStore,
}

impl<'a, K1, V1, K2, V2, V3, SF> InProcessExecutor<'a, JobBodies<'a, K1, V1, K2, V2, V3, SF>>
where
    K1: MrKey,
    V1: MrValue,
    K2: MrKey,
    V2: MrValue,
    V3: MrValue,
{
    /// The executor of a generic job:
    /// * `source_factory` — opens the RecordReader for a split,
    /// * `mapper` / `combiner` / `reducer` — the user functions,
    /// * `plan` — the partition function,
    /// * `config` — fault script, `volatile_intermediate`.
    pub fn new(
        source_factory: &'a SF,
        mapper: &'a dyn Mapper<InKey = K1, InValue = V1, OutKey = K2, OutValue = V2>,
        combiner: Option<&'a dyn Combiner<Key = K2, Value = V2>>,
        reducer: &'a dyn Reducer<Key = K2, InValue = V2, OutValue = V3>,
        plan: &'a dyn RoutingPlan<K2>,
        config: &'a JobConfig,
    ) -> Self {
        let bodies = JobBodies {
            source_factory,
            mapper,
            combiner,
            reducer,
            plan,
        };
        Self::with_bodies(bodies, config)
    }
}

impl<'a, B> InProcessExecutor<'a, B> {
    /// An executor running `bodies` under `config`'s fault script and
    /// `volatile_intermediate`.
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
    ) -> std::result::Result<Vec<(B::Key, B::Out)>, RemoteReduceError> {
        let held: Vec<(MapTaskId, u32)> = sources.iter().map(|s| (s.map, s.epoch)).collect();
        let fetched = (held.iter())
            .map(|&(map, epoch)| {
                let bytes = self.store.get(&(JOB, map, reducer, epoch));
                (map, epoch, bytes.ok().flatten())
            })
            .collect();
        let inputs = open_sources(&self.store, JOB, reducer, fetched)?;
        // Volatile data is consumed by the fetch itself; otherwise the
        // sources go once the keyblock is whole.
        let volatile = self.config.volatile_intermediate;
        if volatile {
            self.store.release(JOB, reducer, &held);
        }
        let out = (self.bodies)
            .reduce(reducer, inputs, expected_raw)
            .map_err(RemoteReduceError::Fatal)?;
        if !volatile {
            self.store.release(JOB, reducer, &held);
        }
        Ok(out)
    }
}
