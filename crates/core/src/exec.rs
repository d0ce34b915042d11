//! Worker-side execution of one task attempt of a spec-defined job.
//!
//! A `sidr-worker` process receives a [`JobSpec`] once (`Prepare`) and
//! then runs individual map/reduce attempts on demand. All the query
//! knowledge — structural mapping, `partition+` routing, operator
//! reduction, count-annotation validation — lives here in `sidr-core`;
//! the worker crate only moves CRC-framed SMOF byte buffers between
//! processes. A map attempt is the geometric kernel
//! ([`crate::geomap`]): its per-reducer partitions come out as
//! *encoded* SMOF buffers (the one on-disk/on-wire format — v3,
//! fixed-width ⟨coord, f64⟩ records). Reduce attempts merge the
//! buffers a worker fetched from the holders **in place** (frames are
//! borrowed, not decoded), in the plan's fetch order, so the merge's
//! equal-key tie-break — and therefore the streamed output — is
//! byte-identical wherever the attempt runs.
//!
//! The in-process engine runs spec jobs through the same bodies:
//! `LocalExecutor` keeps each committed generation as the bytes a
//! worker's store would hold, so the engine and the fleet share one
//! data path.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use serde::{Deserialize, Serialize};
use sidr_coords::Coord;
use sidr_mapreduce::executor::{ReduceSource, RemoteReduceError, TaskExecutor};
use sidr_mapreduce::shuffle_file::damage;
use sidr_mapreduce::sync::Mutex;
use sidr_mapreduce::{
    begin_map_attempt, injected_source_error, run_reduce_attempt, Combiner, Counters, FaultKind,
    FaultPlan, InputSplit, MapTaskId, MergeSource, MrError, RoutingPlan,
};
use sidr_scifile::{DataType, ScincFile};

use crate::framework::pushdown_threshold;
use crate::geomap::map_split;
use crate::operators::{Operator, OperatorReducer};
use crate::plan::{SidrPlan, SidrPlanner};
use crate::source::StructuralMapper;
use crate::spec::JobSpec;
use crate::SidrError;

/// The submitter-controlled knobs a worker needs to execute attempts
/// faithfully — the serializable subset of
/// [`crate::framework::SpecRunOptions`] that affects *task-local*
/// behavior (scheduling-side knobs like priority regions stay with
/// the coordinator).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ExecOptions {
    /// Cross-check count annotations before each reduce (§3.2.1
    /// approach 2). A mismatch is fatal to the job, not retryable.
    pub validate_annotations: bool,
    /// Push a `Filter` operator's predicate below the shuffle.
    pub filter_pushdown: bool,
    /// Deterministic fault script. Workers apply the *map* faults
    /// (the attempt runs here); reduce faults are injected
    /// coordinator-side where the retry/recovery bookkeeping lives.
    pub fault_plan: FaultPlan,
}

/// [`SpecExecutor::run_reduce`]'s `emit` callback: receives the
/// attempt's whole keyblock, in key order, once.
pub type KeyblockSink<'a> = dyn FnMut(&[(Coord, f64)]) -> crate::Result<()> + 'a;

/// What one map attempt produced: per-reducer partitions as encoded
/// SMOF buffers (only non-empty partitions appear: absence means the
/// map produced nothing for that reducer).
#[derive(Clone, Debug)]
pub struct MapAttemptOutput {
    pub partitions: Vec<(usize, Vec<u8>)>,
    /// Records read from the split.
    pub records_in: u64,
    /// Intermediate records the map emitted, before any combiner.
    pub records_out: u64,
    /// Records written to the partitions, after the combiner.
    pub records_combined: u64,
}

/// One prepared job on a worker: the opened input, the re-derived
/// routing plan and the user functions, ready to run any attempt.
pub struct SpecExecutor {
    file: ScincFile,
    spec: JobSpec,
    dtype: DataType,
    variable: String,
    operator: Operator,
    mapper: StructuralMapper,
    plan: SidrPlan,
    opts: ExecOptions,
}

impl SpecExecutor {
    /// Opens `input` and re-derives the spec's plan, exactly as the
    /// coordinator's `run_spec_on_pool` does (admission has already
    /// verified the spec, so the structural pre-flight is skipped).
    pub fn new(input: &Path, spec: JobSpec, opts: ExecOptions) -> crate::Result<Self> {
        Self::with_file(ScincFile::open(input)?, spec, opts)
    }

    /// [`SpecExecutor::new`] over an already open file.
    pub(crate) fn with_file(
        file: ScincFile,
        spec: JobSpec,
        opts: ExecOptions,
    ) -> crate::Result<Self> {
        let query = spec.query()?;
        let dtype = file.metadata().variable(&query.variable)?.dtype;
        let mut mapper = StructuralMapper::for_query(&query);
        if let Some(threshold) = pushdown_threshold(opts.filter_pushdown, &query) {
            mapper = mapper.push_down_filter(threshold);
        }
        let plan = SidrPlanner::new(&query, spec.num_reducers)
            .skip_preflight()
            .build(&spec.splits)?;
        Ok(SpecExecutor {
            file,
            dtype,
            variable: query.variable.clone(),
            operator: query.operator,
            mapper,
            plan,
            spec,
            opts,
        })
    }

    pub fn num_maps(&self) -> usize {
        self.spec.splits.len()
    }

    pub fn num_reducers(&self) -> usize {
        self.spec.num_reducers
    }

    /// Runs one map attempt: read the split, map it by geometry, fold
    /// it through the combiner if the operator has one, and encode each
    /// non-empty partition as a SMOF buffer. Injected map faults for
    /// this (task, attempt) fire here, on the worker, exactly as they
    /// would in-process — except that a worker cannot see the
    /// coordinator's cancel or race state, so a straggle sleeps its
    /// full delay.
    pub fn run_map(&self, task: MapTaskId, attempt: u32) -> crate::Result<MapAttemptOutput> {
        self.map_attempt(task, attempt, &|delay| {
            sidr_mapreduce::sync::thread::sleep(delay);
            true
        })
    }

    /// [`SpecExecutor::run_map`] with the caller's `pause`: an injected
    /// straggle waits through it and the attempt is
    /// [`MrError::Cancelled`] when it returns `false`.
    pub(crate) fn map_attempt(
        &self,
        task: MapTaskId,
        attempt: u32,
        pause: &dyn Fn(Duration) -> bool,
    ) -> crate::Result<MapAttemptOutput> {
        let split = self
            .spec
            .splits
            .get(task)
            .ok_or_else(|| MrError::BadConfig(format!("map {task} out of range")))?;
        let fault = self.opts.fault_plan.map_fault(task, attempt);
        if let Some(after) = begin_map_attempt(task, attempt, fault, pause)? {
            if split.slab.count() > after {
                return Err(injected_source_error(task, attempt, after).into());
            }
        }
        let combiner = self.operator.combiner();
        let combiner = combiner
            .as_ref()
            .map(|c| c as &dyn Combiner<Key = Coord, Value = f64>);
        let (file, var, slab) = (&self.file, self.variable.as_str(), &split.slab);
        let (mapper, partition) = (&self.mapper, self.plan.partition());
        match self.dtype {
            DataType::I32 => map_split::<i32>(file, var, slab, mapper, partition, combiner),
            DataType::I64 => map_split::<i64>(file, var, slab, mapper, partition, combiner),
            DataType::F32 => map_split::<f32>(file, var, slab, mapper, partition, combiner),
            DataType::F64 => map_split::<f64>(file, var, slab, mapper, partition, combiner),
        }
    }

    /// Runs one reduce attempt over partitions already fetched from
    /// their holders, **in the plan's fetch-source order** (equal-key
    /// merge ties break by file order, so this order is what keeps
    /// distributed output byte-identical to a single-process run).
    /// On success `emit` is called exactly once, with the
    /// whole keyblock in key order; returns its record count. (A
    /// callback rather than a return value only because
    /// `benchmark/src/staged.rs`, frozen, pins this signature.)
    ///
    /// Annotation validation (§3.2.1 approach 2) happens here, against
    /// the decoded buffers' raw counts — a mismatch means the routing
    /// promise itself is broken and must fail the job, so it surfaces
    /// as the typed [`MrError::AnnotationMismatch`].
    /// `expected_raw` is the coordinator's annotation expectation for
    /// this attempt; when absent (validation off at submit time, or a
    /// caller with no coordinator) the worker falls back to its own
    /// plan-derived tally if its options ask for validation.
    pub fn run_reduce(
        &self,
        reducer: usize,
        partitions: &[std::sync::Arc<Vec<u8>>],
        expected_raw: Option<u64>,
        emit: &mut KeyblockSink<'_>,
    ) -> crate::Result<u64> {
        let inputs = partitions
            .iter()
            .map(|bytes| MergeSource::from_encoded(Arc::clone(bytes)))
            .collect::<sidr_mapreduce::Result<Vec<_>>>()?;
        let expected = expected_raw.or_else(|| {
            self.opts
                .validate_annotations
                .then(|| self.plan.expected_raw_count(reducer))
                .flatten()
        });
        let records = self.reduce(reducer, inputs, expected)?;
        emit(&records)?;
        Ok(records.len() as u64)
    }

    /// The reduce attempt body over opened sources: merge in the given
    /// order, check the annotation tally against `expected_raw`,
    /// apply the operator. Returns the keyblock.
    fn reduce(
        &self,
        reducer: usize,
        inputs: Vec<MergeSource<Coord, f64>>,
        expected_raw: Option<u64>,
    ) -> crate::Result<Vec<(Coord, f64)>> {
        if reducer >= self.spec.num_reducers {
            return Err(MrError::BadConfig(format!("reduce {reducer} out of range")).into());
        }
        Ok(run_reduce_attempt(
            reducer,
            inputs,
            expected_raw,
            &OperatorReducer { op: self.operator },
        )?)
    }
}

/// One committed map generation: its partitions by reducer, as bytes.
type Generation = Vec<(usize, Arc<Vec<u8>>)>;

/// The in-process [`TaskExecutor`] of spec jobs: the same attempt
/// bodies a `sidr-worker` runs, with every committed map generation
/// held as the encoded partitions a worker's store would hold.
///
/// Generations are keyed by `(map, attempt)`, so a speculative loser or
/// a superseded re-execution never overwrites what a reducer was
/// promised. A map attempt waits through the engine's `pause`, so a
/// straggler stays cancellable. An injected `CorruptOutput` or
/// `TruncateOutput` damages the committed bytes; the reduce that
/// fetches them fails their CRC and reports exactly that map lost, and
/// the engine re-executes it (§6). Dropping the executor drops every
/// generation the job still holds.
pub(crate) struct LocalExecutor<'a> {
    exec: &'a SpecExecutor,
    table: Mutex<HashMap<(MapTaskId, u32), Generation>>,
}

impl<'a> LocalExecutor<'a> {
    pub(crate) fn new(exec: &'a SpecExecutor) -> Self {
        LocalExecutor {
            exec,
            table: Mutex::new(HashMap::new()),
        }
    }
}

/// An attempt error in the engine's vocabulary.
fn engine_error(e: SidrError) -> MrError {
    match e {
        SidrError::Engine(e) => e,
        other => MrError::Source(other.to_string()),
    }
}

impl TaskExecutor<Coord, f64> for LocalExecutor<'_> {
    fn execute_map(
        &self,
        task: MapTaskId,
        attempt: u32,
        _speculative: bool,
        _split: &InputSplit,
        counters: &Counters,
        pause: &dyn Fn(Duration) -> bool,
    ) -> sidr_mapreduce::Result<()> {
        let out = self
            .exec
            .map_attempt(task, attempt, pause)
            .map_err(engine_error)?;
        Counters::add(&counters.map_records_in, out.records_in);
        Counters::add(&counters.map_records_out, out.records_out);
        Counters::add(&counters.combined_records, out.records_combined);
        // Post-commit damage: the attempt succeeds; the loss is found
        // when a reduce fetches the bytes.
        let truncate = match self.exec.opts.fault_plan.map_fault(task, attempt) {
            Some(FaultKind::CorruptOutput) => Some(false),
            Some(FaultKind::TruncateOutput) => Some(true),
            _ => None,
        };
        let generation = (out.partitions.into_iter())
            .map(|(reducer, mut bytes)| {
                if let Some(truncate) = truncate {
                    damage(&mut bytes, truncate);
                }
                (reducer, Arc::new(bytes))
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
    ) -> std::result::Result<Vec<(Coord, f64)>, RemoteReduceError> {
        let mut held = Vec::with_capacity(sources.len());
        let mut lost = Vec::new();
        {
            let table = self.table.lock();
            for s in sources {
                match table.get(&(s.map, s.epoch)) {
                    None => lost.push(s.map),
                    Some(generation) => held.extend(
                        (generation.iter())
                            .filter(|(r, _)| *r == reducer)
                            .map(|(_, bytes)| (s.map, Arc::clone(bytes))),
                    ),
                }
            }
        }
        let mut inputs = Vec::with_capacity(held.len());
        for (map, bytes) in held {
            match MergeSource::from_encoded(bytes) {
                Ok(source) => inputs.push(source),
                // A failed CRC: the partition is lost, not the job.
                Err(MrError::CorruptShuffle { .. }) => lost.push(map),
                Err(e) => return Err(RemoteReduceError::Fatal(e)),
            }
        }
        if !lost.is_empty() {
            return Err(RemoteReduceError::SourcesLost(lost));
        }
        let records: usize = inputs.iter().map(MergeSource::len).sum();
        Counters::add(&counters.shuffled_records, records as u64);
        self.exec
            .reduce(reducer, inputs, expected_raw)
            .map_err(|e| RemoteReduceError::Fatal(engine_error(e)))
    }
}
