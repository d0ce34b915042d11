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
//! applies per `K′` key: `partition+` for SIDR, taken from the job's
//! one plan, the stock hash for Hadoop and SciHadoop.
//!
//! The bodies keep no books: a map attempt returns its tallies, and a
//! reduce checks its §3.2.1 tally against the `expected_raw` it is
//! handed — the plan's, which is `None` only under hash routing. A
//! `Filter` selects map-side, and its partitions still count the pairs
//! their map represents.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use serde::{Deserialize, Serialize};
use sidr_coords::Coord;
use sidr_mapreduce::{
    begin_map_attempt, injected_source_error, run_reduce_attempt, AttemptBodies,
    CoordHashPartitioner, FaultKind, FaultPlan, InputSplit, Keyblock, MapTaskId, MrError,
    Smof3View,
};
use sidr_scifile::{DataType, ScincFile};

use crate::geomap::map_split;
use crate::operators::Operator;
use crate::partition_plus::PartitionPlus;
use crate::plan::{raw_tallies, SidrPlan};
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
pub(crate) enum Route {
    /// SIDR: `partition+` over the keyblocks, with each keyblock's
    /// §3.2.1 tally for [`SpecExecutor::run_reduce`].
    PartitionPlus {
        partition: Box<PartitionPlus>,
        tally: Vec<u64>,
    },
    /// Hadoop and SciHadoop: the stock hash-modulo (§3.1).
    Hash,
}

impl Route {
    /// The route of a job whose plan is built.
    pub(crate) fn of_plan(plan: &SidrPlan) -> Self {
        Route::PartitionPlus {
            partition: Box::new(plan.partition.clone()),
            tally: plan.job.expected_raw.clone().unwrap_or_default(),
        }
    }
}

impl SpecExecutor {
    /// Opens `input` and derives the spec's route — `partition+` over
    /// its query and keyblock count, and each keyblock's tally — with
    /// no dependency derivation: an attempt needs neither `I_ℓ` nor a
    /// schedule. An invalid query or partition is refused here.
    pub fn new(input: &Path, spec: JobSpec, opts: ExecOptions) -> crate::Result<Self> {
        let query = spec.query()?;
        let file = ScincFile::open(input)?;
        let partition = Box::new(PartitionPlus::for_query(&query, spec.num_reducers)?);
        let tally = raw_tallies(&query, &partition)?;
        let route = Route::PartitionPlus { partition, tally };
        let (splits, reducers) = (spec.splits, spec.num_reducers);
        Ok(SpecExecutor {
            opts,
            ..Self::for_query(file, &query, splits, reducers, route)?
        })
    }

    /// The attempt bodies of `spec`, whose plan is built and proved:
    /// routed by the plan's `partition+` and tallies, with nothing
    /// derived again.
    pub fn of_plan(file: ScincFile, spec: &JobSpec, plan: &SidrPlan) -> crate::Result<Self> {
        let (query, splits) = (spec.query()?, spec.splits.clone());
        let route = Route::of_plan(plan);
        Self::for_query(file, &query, splits, spec.num_reducers, route)
    }

    /// The attempt bodies of `query` over `splits`: the same map side
    /// in every mode, routed by `route` to `num_reducers`. The engine
    /// hands each reduce its tally and applies the fault script, so
    /// these bodies take no options.
    pub(crate) fn for_query(
        file: ScincFile,
        query: &StructuralQuery,
        splits: Vec<InputSplit>,
        num_reducers: usize,
        route: Route,
    ) -> crate::Result<Self> {
        let dtype = file.metadata().variable(&query.variable)?.dtype;
        Ok(SpecExecutor {
            file,
            splits,
            num_reducers,
            dtype,
            variable: query.variable.clone(),
            operator: query.operator,
            mapper: StructuralMapper::for_query(query),
            route,
            opts: ExecOptions::default(),
        })
    }

    /// Runs one map attempt: read the split, map it by geometry, fold
    /// each key's run if the operator is distributive or finish each
    /// key the split holds whole if its reduce gives its own value
    /// back, and encode a SMOF buffer for each reducer the split
    /// represents pairs for.
    /// Injected map faults for this (task, attempt) fire here, on the
    /// worker, exactly as they would in-process — except that a worker
    /// cannot see the coordinator's cancel or race state, so a
    /// straggle sleeps its full delay.
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
        let (file, var, slab) = (&self.file, self.variable.as_str(), &split.slab);
        let (mapper, n, op) = (&self.mapper, self.num_reducers, self.operator);
        let route = |key: &[u64]| match &self.route {
            Route::PartitionPlus { partition, .. } => partition.keyblock_of(key),
            Route::Hash => CoordHashPartitioner::keyblock_of(key, n),
        };
        match self.dtype {
            DataType::I32 => map_split::<i32>(file, var, slab, mapper, n, route, op),
            DataType::I64 => map_split::<i64>(file, var, slab, mapper, n, route, op),
            DataType::F32 => map_split::<f32>(file, var, slab, mapper, n, route, op),
            DataType::F64 => map_split::<f64>(file, var, slab, mapper, n, route, op),
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
    /// `expected_raw`; when absent it is the route's own if these
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
            Route::PartitionPlus { tally, .. } if self.opts.validate_annotations => {
                tally.get(reducer).copied()
            }
            _ => None,
        });
        let records = self.reduce(reducer, inputs, expected_raw)?.into_records();
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
    ) -> sidr_mapreduce::Result<Keyblock<Coord, f64>> {
        if reducer >= self.num_reducers {
            return Err(MrError::BadConfig(format!("reduce {reducer} out of range")));
        }
        let op = self.operator;
        run_reduce_attempt(reducer, inputs, expected_raw, |values, emit| {
            op.reduce_group(values, emit)
        })
    }
}
