//! Execution of one task attempt of a structural query: the attempt
//! bodies a `sidr-worker` runs for a spec job, and the ones the
//! in-process engine runs for every job of every framework mode.
//!
//! A `sidr-worker` process receives a [`JobSpec`] once (`Prepare`) and
//! then runs individual map/reduce attempts on demand. All the query
//! knowledge — structural mapping, routing, operator reduction,
//! count-annotation validation — lives here in `sidr-core`; the worker
//! crate only moves CRC-framed SMOF byte buffers between processes. A
//! map attempt is the geometric kernel ([`crate::geomap`]): its
//! per-reducer partitions come out as *encoded* SMOF buffers (the one
//! partition format — v4, runs of one coordinate key, f64 values). Reduce
//! attempts merge the buffers **in place** (frames are borrowed, not
//! decoded), in the plan's fetch order, so the merge's equal-key
//! tie-break — and therefore the streamed output — is byte-identical
//! wherever the attempt runs.
//!
//! In-process, a [`SpecExecutor`] is the [`AttemptBodies`] pair of the
//! engine's one [`InProcessExecutor`](sidr_mapreduce::InProcessExecutor),
//! which commits, opens and releases partitions through a
//! [`PartitionStore`](sidr_mapreduce::PartitionStore) exactly as a
//! worker does. The framework mode picks only the route a map attempt
//! applies per `K′` key: `partition+` for SIDR, the stock hash for
//! Hadoop and SciHadoop.
//!
//! The bodies keep no books: a map attempt returns its tallies, and a
//! reduce checks its §3.2.1 tally against the `expected_raw` it is
//! handed — the plan's, which is `None` only for hash routing or when a
//! pushed-down `Filter` voids the geometric count.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use serde::{Deserialize, Serialize};
use sidr_coords::Coord;
use sidr_mapreduce::{
    begin_map_attempt, injected_source_error, run_reduce_attempt, AttemptBodies, Combiner,
    CoordHashPartitioner, FaultKind, FaultPlan, InputSplit, MapTaskId, MrError, RoutingPlan,
    Smof3View,
};
use sidr_scifile::{DataType, ScincFile};

use crate::framework::{pushdown_threshold, FrameworkMode};
use crate::geomap::map_split;
use crate::operators::{Operator, OperatorReducer};
use crate::plan::{SidrPlan, SidrPlanner};
use crate::query::StructuralQuery;
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
    /// Cross-check count annotations in [`SpecExecutor::run_reduce`]
    /// when its caller hands no expectation (§3.2.1 approach 2). A
    /// mismatch is fatal to the job, not retryable. Read only there:
    /// attempts the engine schedules check the plan's `expected_raw`
    /// unconditionally. Kept because the frozen benchmark sets it.
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

pub use sidr_mapreduce::MapAttemptOutput;

/// One prepared job: the opened input, the query's map side, the
/// mode's route and the reduce operator, ready to run any attempt.
pub struct SpecExecutor {
    file: ScincFile,
    splits: Vec<InputSplit>,
    num_reducers: usize,
    dtype: DataType,
    variable: String,
    operator: Operator,
    mapper: StructuralMapper,
    route: Route,
    opts: ExecOptions,
}

/// The framework mode's partition function, applied once per image key.
enum Route {
    /// SIDR: `partition+` over the plan's keyblocks; the plan also
    /// knows each keyblock's §3.2.1 annotation tally.
    PartitionPlus(Box<SidrPlan>),
    /// Hadoop and SciHadoop: the stock hash-modulo (§3.1).
    Hash,
}

impl SpecExecutor {
    /// Opens `input` and re-derives the spec's plan, exactly as the
    /// coordinator's `run_spec_on_pool` does (its structural pre-flight
    /// included).
    pub fn new(input: &Path, spec: JobSpec, opts: ExecOptions) -> crate::Result<Self> {
        let query = spec.query()?;
        let file = ScincFile::open(input)?;
        let (splits, reducers) = (spec.splits, spec.num_reducers);
        Self::for_query(file, &query, splits, reducers, FrameworkMode::Sidr, opts)
    }

    /// The attempt bodies of `query` over `splits` under `mode`: the
    /// same map side in every mode, routed by `partition+` (SIDR, with
    /// the plan re-derived) or by the stock hash (Hadoop, SciHadoop).
    pub(crate) fn for_query(
        file: ScincFile,
        query: &StructuralQuery,
        splits: Vec<InputSplit>,
        num_reducers: usize,
        mode: FrameworkMode,
        opts: ExecOptions,
    ) -> crate::Result<Self> {
        let dtype = file.metadata().variable(&query.variable)?.dtype;
        let mut mapper = StructuralMapper::for_query(query);
        if let Some(threshold) = pushdown_threshold(opts.filter_pushdown, query.operator) {
            mapper = mapper.push_down_filter(threshold);
        }
        let route = match mode {
            FrameworkMode::Sidr => Route::PartitionPlus(Box::new(
                SidrPlanner::new(query, num_reducers)
                    .filter_pushdown(opts.filter_pushdown)
                    .build(&splits)?,
            )),
            FrameworkMode::Hadoop | FrameworkMode::SciHadoop => Route::Hash,
        };
        Ok(SpecExecutor {
            file,
            splits,
            num_reducers,
            dtype,
            variable: query.variable.clone(),
            operator: query.operator,
            mapper,
            route,
            opts,
        })
    }

    /// Runs one map attempt: read the split, map it by geometry, fold
    /// it through the combiner if the operator has one, and encode each
    /// non-empty partition as a SMOF buffer. Injected map faults for
    /// this (task, attempt) fire here, on the worker, exactly as they
    /// would in-process — except that a worker cannot see the
    /// coordinator's cancel or race state, so a straggle sleeps its
    /// full delay.
    pub fn run_map(&self, task: MapTaskId, attempt: u32) -> crate::Result<MapAttemptOutput> {
        let split = self
            .splits
            .get(task)
            .ok_or_else(|| MrError::BadConfig(format!("map {task} out of range")))?;
        let fault = self.opts.fault_plan.map_fault(task, attempt);
        self.map_attempt(task, attempt, fault, split, &|delay| {
            sidr_mapreduce::sync::thread::sleep(delay);
            true
        })
    }

    /// The map attempt body: an injected `fault` acts first (a
    /// straggle waits through `pause` and is [`MrError::Cancelled`]
    /// when it returns `false`), then the kernel maps `split`.
    fn map_attempt(
        &self,
        task: MapTaskId,
        attempt: u32,
        fault: Option<FaultKind>,
        split: &InputSplit,
        pause: &dyn Fn(Duration) -> bool,
    ) -> crate::Result<MapAttemptOutput> {
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
        let (mapper, n) = (&self.mapper, self.num_reducers);
        let route = |key: &[u64]| match &self.route {
            Route::PartitionPlus(plan) => plan.partition().keyblock_of(key),
            Route::Hash => CoordHashPartitioner::keyblock_of(key, n),
        };
        match self.dtype {
            DataType::I32 => map_split::<i32>(file, var, slab, mapper, n, route, combiner),
            DataType::I64 => map_split::<i64>(file, var, slab, mapper, n, route, combiner),
            DataType::F32 => map_split::<f32>(file, var, slab, mapper, n, route, combiner),
            DataType::F64 => map_split::<f64>(file, var, slab, mapper, n, route, combiner),
        }
    }

    /// Runs one reduce attempt over partitions already fetched from
    /// their holders, **in the plan's fetch-source order** (equal-key
    /// merge ties break by file order, so this order is what keeps
    /// distributed output byte-identical to a single-process run).
    /// On success `emit` is called exactly once, with the
    /// whole keyblock in key order; returns its record count. Only
    /// `benchmark/src/staged.rs`, frozen, still calls this; a worker
    /// opens its sources with [`sidr_mapreduce::open_sources`] and
    /// reduces them through [`AttemptBodies::reduce`].
    ///
    /// Annotation validation (§3.2.1 approach 2) happens here, against
    /// the buffers' raw counts — a mismatch means the routing promise
    /// itself is broken and must fail the job, so it surfaces as the
    /// typed [`MrError::AnnotationMismatch`]. The tally is
    /// `expected_raw`; when absent it is the plan's own if these
    /// options ask for validation.
    pub fn run_reduce(
        &self,
        reducer: usize,
        partitions: &[Arc<Vec<u8>>],
        expected_raw: Option<u64>,
        emit: &mut KeyblockSink<'_>,
    ) -> crate::Result<u64> {
        let inputs = partitions
            .iter()
            .map(|bytes| Smof3View::open(Arc::clone(bytes)))
            .collect::<sidr_mapreduce::Result<Vec<_>>>()?;
        let expected_raw = expected_raw.or(match &self.route {
            Route::PartitionPlus(plan) if self.opts.validate_annotations => {
                plan.expected_raw_count(reducer)
            }
            _ => None,
        });
        let records = self.reduce(reducer, inputs, expected_raw)?;
        emit(&records)?;
        Ok(records.len() as u64)
    }
}

/// An attempt error in the engine's vocabulary.
fn engine_error(e: SidrError) -> MrError {
    match e {
        SidrError::Engine(e) => e,
        other => MrError::Source(other.to_string()),
    }
}

impl AttemptBodies for SpecExecutor {
    type Key = Coord;
    type Value = f64;
    type Out = f64;

    fn map(
        &self,
        task: MapTaskId,
        attempt: u32,
        fault: Option<FaultKind>,
        split: &InputSplit,
        pause: &dyn Fn(Duration) -> bool,
    ) -> sidr_mapreduce::Result<MapAttemptOutput> {
        (self.map_attempt(task, attempt, fault, split, pause)).map_err(engine_error)
    }

    /// Merges the views in the given order, checks the annotation
    /// tally against `expected_raw` when given, applies the operator.
    fn reduce(
        &self,
        reducer: usize,
        inputs: Vec<Smof3View<Coord, f64>>,
        expected_raw: Option<u64>,
    ) -> sidr_mapreduce::Result<Vec<(Coord, f64)>> {
        if reducer >= self.num_reducers {
            return Err(MrError::BadConfig(format!("reduce {reducer} out of range")));
        }
        let op = OperatorReducer { op: self.operator };
        run_reduce_attempt(reducer, inputs, expected_raw, &op)
    }
}
