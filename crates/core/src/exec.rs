//! Worker-side execution of one task attempt of a spec-defined job.
//!
//! A `sidr-worker` process receives a [`JobSpec`] once (`Prepare`) and
//! then runs individual map/reduce attempts on demand. All the query
//! knowledge — structural mapping, `partition+` routing, operator
//! reduction, count-annotation validation — lives here in `sidr-core`;
//! the worker crate only moves CRC-framed SMOF byte buffers between
//! processes. The attempt bodies themselves are the engine's
//! (`run_map_attempt` / `run_reduce_attempt`), the same ones the
//! in-process executor runs. Map attempts produce their per-reducer
//! partitions as *encoded* SMOF buffers (the one on-disk/on-wire
//! format — v3, fixed-width ⟨coord, f64⟩ records), and reduce attempts
//! merge the buffers a worker fetched from the holders **in place**
//! (frames are borrowed, not decoded), in the plan's fetch order
//! so the merge's equal-key tie-break — and therefore the streamed
//! output — is byte-identical to a single-process run.

use std::path::Path;

use serde::{Deserialize, Serialize};
use sidr_coords::Coord;
use sidr_mapreduce::shuffle_file::encode_map_output;
use sidr_mapreduce::{
    run_map_attempt, run_reduce_attempt, Counters, FaultPlan, MapTaskId, MergeSource, MrError,
    RoutingPlan,
};
use sidr_scifile::{DataType, Element, ScincFile};

use crate::framework::pushdown_threshold;
use crate::operators::{Operator, OperatorReducer};
use crate::plan::{SidrPlan, SidrPlanner};
use crate::source::{ScincRecordSource, StructuralMapper};
use crate::spec::JobSpec;

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
    pub records_in: u64,
    pub records_out: u64,
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
        let file = ScincFile::open(input)?;
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

    /// Runs one map attempt: read the split, apply the structural map
    /// and optional combiner, and encode each non-empty partition as
    /// a SMOF buffer. Injected map faults for this (task, attempt)
    /// fire here, on the worker, exactly as they would in-process.
    pub fn run_map(&self, task: MapTaskId, attempt: u32) -> crate::Result<MapAttemptOutput> {
        match self.dtype {
            DataType::I32 => self.run_map_typed::<i32>(task, attempt),
            DataType::I64 => self.run_map_typed::<i64>(task, attempt),
            DataType::F32 => self.run_map_typed::<f32>(task, attempt),
            DataType::F64 => self.run_map_typed::<f64>(task, attempt),
        }
    }

    fn run_map_typed<E: Element>(
        &self,
        task: MapTaskId,
        attempt: u32,
    ) -> crate::Result<MapAttemptOutput> {
        let split = self
            .spec
            .splits
            .get(task)
            .ok_or_else(|| MrError::BadConfig(format!("map {task} out of range")))?;
        let combiner = self.operator.combiner();
        // Per-attempt scratch counters: the attempt's tallies travel
        // back in the reply, not through process-global state.
        let counters = Counters::default();
        let partitions = run_map_attempt(
            task,
            attempt,
            self.opts.fault_plan.map_fault(task, attempt),
            || ScincRecordSource::<E>::open(&self.file, &self.variable, split),
            &self.mapper,
            combiner
                .as_ref()
                .map(|c| c as &dyn sidr_mapreduce::Combiner<Key = Coord, Value = f64>),
            &self.plan,
            &counters,
            // A worker cannot see the coordinator's cancel or race
            // state; an injected straggle sleeps its full delay here.
            &|delay| {
                std::thread::sleep(delay);
                true
            },
        )?
        .into_iter()
        .map(|(reducer, f)| encode_map_output(&f).map(|bytes| (reducer, bytes)))
        .collect::<sidr_mapreduce::Result<Vec<_>>>()?;
        let tally = counters.snapshot();
        Ok(MapAttemptOutput {
            partitions,
            records_in: tally.map_records_in,
            records_out: tally.map_records_out,
        })
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
        if reducer >= self.spec.num_reducers {
            return Err(MrError::BadConfig(format!("reduce {reducer} out of range")).into());
        }
        let inputs = partitions
            .iter()
            .map(|bytes| MergeSource::from_encoded(std::sync::Arc::clone(bytes)))
            .collect::<sidr_mapreduce::Result<Vec<_>>>()?;
        let expected = expected_raw.or_else(|| {
            self.opts
                .validate_annotations
                .then(|| self.plan.expected_raw_count(reducer))
                .flatten()
        });
        let records = run_reduce_attempt(
            reducer,
            inputs,
            expected,
            &OperatorReducer { op: self.operator },
        )?;
        emit(&records)?;
        Ok(records.len() as u64)
    }
}
