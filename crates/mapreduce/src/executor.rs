//! The task-execution seam: where a claimed task attempt actually
//! runs, where its committed output lives, and how a reducer gets it.
//!
//! The scheduler ([`crate::runtime`]) — slot accounting, eligibility,
//! dependency barriers, retry budgets, first-commit-wins, recovery
//! re-enqueueing — knows none of that: it hands every attempt to a
//! [`TaskExecutor`] and interprets the outcome in one fault
//! vocabulary. Two executors exist. [`InProcessExecutor`] runs
//! attempts inside the scheduling process and keeps each committed
//! map generation in a table keyed by `(map, attempt)`; the serving
//! layer's fleet coordinator dispatches them to `sidr-worker`
//! processes. Both run the same attempt bodies, [`run_map_attempt`]
//! and [`run_reduce_attempt`].
//!
//! Payload representation is chosen where the data is consumed: typed
//! and resident (`Arc<MapOutputFile>`) inside one process — the
//! in-process executor has no byte encoding and touches no disk —
//! and CRC-framed SMOF v3 bytes in a worker's
//! [`PartitionStore`](crate::tier::PartitionStore) only when a
//! partition crosses a disk or a socket (the fleet).
//!
//! A lost generation — a dead worker, a consumed volatile partition, a
//! failed CRC — surfaces as [`RemoteReduceError::SourcesLost`]: the
//! scheduler re-enqueues exactly those maps, the dependency-scoped
//! (`I_ℓ`) recovery of §6.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use crate::counters::Counters;
use crate::error::MrError;
use crate::fault::FaultKind;
use crate::plan::RoutingPlan;
use crate::runtime::JobConfig;
use crate::shuffle::{GroupBatch, MapOutputBuilder, MapOutputFile, MergeIter, MergeSource};
use crate::split::{InputSplit, MapTaskId};
use crate::sync::Mutex;
use crate::task::{Combiner, Mapper, MrKey, MrValue, RecordSource, Reducer};
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

/// Runs task attempts for the scheduler and holds their committed
/// output. The engine never sees sockets, placement or payload
/// representation.
pub trait TaskExecutor<K2: MrKey, V3: MrValue>: Sync {
    /// Runs one map attempt to *committed output held by the
    /// executor* under the generation `(task, attempt)`. On `Ok` the
    /// scheduler decides first-commit-wins and, for the winner, marks
    /// the map `Done` at `attempt`; a loser's generation is simply
    /// never bound. Errors are charged against the map's retry budget.
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
        counters: &Counters,
        pause: &dyn Fn(Duration) -> bool,
    ) -> Result<()>;

    /// Runs one reduce attempt: fetch the `sources` generations, merge
    /// them in the given order (the plan's fetch order — the equal-key
    /// tie-break), reduce, and return the attempt's whole keyblock in
    /// key order — nothing leaves an attempt until it is complete, so
    /// a failed attempt is always retryable. `expected_raw` carries
    /// the plan's §3.2.1 annotation expectation when validation is on.
    fn execute_reduce(
        &self,
        reducer: usize,
        attempt: u32,
        sources: &[ReduceSource],
        expected_raw: Option<u64>,
        counters: &Counters,
    ) -> std::result::Result<Vec<(K2, V3)>, RemoteReduceError>;
}

/// The map attempt body: fault → read → map → partition →
/// [`MapOutputBuilder::finish`]. Returns the non-empty partitions
/// `(reducer, file)`; `counters` receives the record tallies.
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
    counters: &Counters,
    pause: &dyn Fn(Duration) -> bool,
) -> Result<Vec<(usize, MapOutputFile<K2, V2>)>>
where
    S: RecordSource,
    K2: MrKey,
    V2: MrValue,
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
    Counters::add(&counters.map_records_in, records_in);
    Counters::add(&counters.map_records_out, records_out);
    Ok(builder.finish(combiner, counters))
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

/// The reduce attempt body: open a merge cursor per input **in the
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
    inputs: Vec<MergeSource<K, V>>,
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
        merge.push(input);
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

/// One committed partition of a generation.
enum Partition<K, V> {
    /// Typed and resident: handed to reducers by `Arc`.
    Resident(Arc<MapOutputFile<K, V>>),
    /// Consumed by a volatile fetch, or damaged: lost, *not* empty.
    Gone,
}

/// One committed map generation's partitions by reducer; a reducer
/// with no entry got nothing from this map.
type Generation<K, V> = HashMap<usize, Partition<K, V>>;

/// The in-process executor: attempts run on the scheduler's own
/// worker threads, and committed map output stays in this process.
///
/// Generations are keyed by `(map, attempt)`, so a speculative loser
/// or a superseded re-execution can never overwrite what a reducer was
/// promised — it just sits unbound until the job ends. One executor
/// serves one job; dropping it drops everything the job still holds,
/// however the job ended.
pub struct InProcessExecutor<'a, K1, V1, K2, V2, V3, SF>
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
    config: &'a JobConfig,
    /// Committed generations, `(map, attempt)` → partitions.
    table: Mutex<HashMap<(MapTaskId, u32), Generation<K2, V2>>>,
}

impl<'a, K1, V1, K2, V2, V3, SF> InProcessExecutor<'a, K1, V1, K2, V2, V3, SF>
where
    K1: MrKey,
    V1: MrValue,
    K2: MrKey,
    V2: MrValue,
    V3: MrValue,
{
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
        InProcessExecutor {
            source_factory,
            mapper,
            combiner,
            reducer,
            plan,
            config,
            table: Mutex::new(HashMap::new()),
        }
    }

    /// Map generations currently held, bound or not.
    pub fn held_generations(&self) -> usize {
        self.table.lock().len()
    }

    /// The job is over: drops every generation still held.
    pub fn finish(&self) {
        self.table.lock().clear();
    }
}

impl<K1, V1, K2, V2, V3, SF, S> TaskExecutor<K2, V3>
    for InProcessExecutor<'_, K1, V1, K2, V2, V3, SF>
where
    K1: MrKey,
    V1: MrValue,
    K2: MrKey,
    V2: MrValue,
    V3: MrValue,
    SF: Fn(MapTaskId, &InputSplit) -> Result<S> + Sync,
    S: RecordSource<Key = K1, Value = V1>,
{
    fn execute_map(
        &self,
        task: MapTaskId,
        attempt: u32,
        _speculative: bool,
        split: &InputSplit,
        counters: &Counters,
        pause: &dyn Fn(Duration) -> bool,
    ) -> Result<()> {
        let fault = self.config.fault_plan.map_fault(task, attempt);
        let files = run_map_attempt(
            task,
            attempt,
            fault,
            || (self.source_factory)(task, split),
            self.mapper,
            self.combiner,
            self.plan,
            counters,
            pause,
        )?;
        // Post-commit damage: the attempt "succeeds", the loss is
        // found only when a reduce fetches. A typed resident payload
        // has no CRC to fail, so a damaged partition is recorded as
        // gone.
        let damaged = matches!(
            fault,
            Some(FaultKind::CorruptOutput | FaultKind::TruncateOutput)
        );
        let generation = files
            .into_iter()
            .map(|(reducer, file)| {
                let partition = if damaged {
                    Partition::Gone
                } else {
                    Partition::Resident(Arc::new(file))
                };
                (reducer, partition)
            })
            .collect();
        self.table.lock().insert((task, attempt), generation);
        Ok(())
    }

    fn execute_reduce(
        &self,
        reducer: usize,
        _attempt: u32,
        sources: &[ReduceSource],
        expected_raw: Option<u64>,
        counters: &Counters,
    ) -> std::result::Result<Vec<(K2, V3)>, RemoteReduceError> {
        let mut inputs = Vec::with_capacity(sources.len());
        let mut lost = Vec::new();
        {
            // One critical section: either every source is present
            // and, under volatile data, consumed together, or nothing
            // is touched and the lost maps are reported.
            let mut table = self.table.lock();
            for s in sources {
                let Some(generation) = table.get(&(s.map, s.epoch)) else {
                    lost.push(s.map);
                    continue;
                };
                match generation.get(&reducer) {
                    None => {} // this map produced nothing for this reducer
                    Some(Partition::Resident(file)) => {
                        inputs.push(MergeSource::File(Arc::clone(file)))
                    }
                    Some(Partition::Gone) => lost.push(s.map),
                }
            }
            if !lost.is_empty() {
                return Err(RemoteReduceError::SourcesLost(lost));
            }
            if self.config.volatile_intermediate {
                for s in sources {
                    let partition = table
                        .get_mut(&(s.map, s.epoch))
                        .and_then(|generation| generation.get_mut(&reducer));
                    if let Some(partition) = partition {
                        *partition = Partition::Gone;
                    }
                }
            }
        }
        let records: usize = inputs.iter().map(MergeSource::len).sum();
        Counters::add(&counters.shuffled_records, records as u64);
        run_reduce_attempt(reducer, inputs, expected_raw, self.reducer)
            .map_err(RemoteReduceError::Fatal)
    }
}
