//! The framework facade: run one structural query on a SciNC dataset
//! under any of the three frameworks the paper compares.
//!
//! Every mode runs the same data path — the geometric map
//! ([`crate::geomap`]), SMOF partitions in the in-process executor's
//! partition store, the in-place merge — and the modes differ only in
//! their splits, the route each `K′` key takes and the barrier:
//!
//! | mode        | splits                 | route            | barrier      | scheduling    |
//! |-------------|------------------------|------------------|--------------|---------------|
//! | `Hadoop`    | naive byte-range-style | hash-modulo      | global       | maps first    |
//! | `SciHadoop` | extraction-aligned     | hash-modulo      | global       | maps first    |
//! | `Sidr`      | extraction-aligned     | `partition+`     | actual deps  | reduces first |
//!
//! No mode has a validation switch: every reduce checks the §3.2.1
//! tally its plan promises — none under hash routing or a pushed-down
//! `Filter`.

use sidr_coords::{Coord, Slab};
use sidr_mapreduce::{
    run_job_with_executor, CancelToken, CoordHashPartitioner, DefaultPlan, FaultPlan,
    InMemoryOutput, InProcessExecutor, InputSplit, JobConfig, JobResult, OutputCollector,
    RetryPolicy, RoutingPlan, SlotPool, SpeculationPolicy, SplitGenerator, TaskExecutor,
};
use sidr_scifile::ScincFile;

use crate::exec::{ExecOptions, SpecExecutor};
use crate::plan::SidrPlanner;
use crate::query::StructuralQuery;
use crate::spec::JobSpec;
use crate::{Result, SidrError};

/// Which framework executes the query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameworkMode {
    /// Stock Hadoop: structure-oblivious splits, hash partitioning,
    /// global barrier.
    Hadoop,
    /// SciHadoop: structure-aware splits (§2.4), stock routing.
    SciHadoop,
    /// SIDR: structure-aware splits *and* routing (§3).
    Sidr,
}

impl std::fmt::Display for FrameworkMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameworkMode::Hadoop => write!(f, "Hadoop"),
            FrameworkMode::SciHadoop => write!(f, "SciHadoop"),
            FrameworkMode::Sidr => write!(f, "SIDR"),
        }
    }
}

/// Execution options.
#[derive(Clone, Debug)]
pub struct RunOptions {
    pub mode: FrameworkMode,
    pub num_reducers: usize,
    /// Cluster-wide map slots.
    pub map_slots: usize,
    /// Cluster-wide reduce slots.
    pub reduce_slots: usize,
    /// Split size budget in bytes (HDFS block-sized by default).
    pub split_bytes: u64,
    /// Prioritize keyblocks covering this region of `K′` (§3.4, SIDR
    /// only).
    pub priority_region: Option<Slab>,
    /// Deterministic fault-injection script (empty plan = no faults).
    /// `FaultPlan::fail_reducers_first_attempt` reproduces the old
    /// `fail_reducers` knob.
    pub fault_plan: FaultPlan,
    /// Bounded-retry budget and backoff for faulted tasks.
    pub retry: RetryPolicy,
    /// Do not persist intermediate data; recover failed reduces by
    /// re-executing dependent maps (§6).
    pub volatile_intermediate: bool,
    /// Push a `Filter` operator's predicate below the shuffle (Query
    /// 2's regime: Reduce tasks "process far less data", §4.1).
    /// Output is unchanged; the plan then promises no §3.2.1 tally (the
    /// approach-1 dependency barrier still guarantees correctness).
    pub filter_pushdown: bool,
}

impl RunOptions {
    pub fn new(mode: FrameworkMode, num_reducers: usize) -> Self {
        RunOptions {
            mode,
            num_reducers,
            map_slots: 4,
            reduce_slots: 3,
            split_bytes: 1 << 20,
            priority_region: None,
            fault_plan: FaultPlan::none(),
            retry: RetryPolicy::default(),
            volatile_intermediate: false,
            filter_pushdown: false,
        }
    }
}

/// What a query run produced.
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    pub mode: FrameworkMode,
    /// Output records sorted by intermediate key (commit order varies
    /// across modes; sorting makes outcomes comparable).
    pub records: Vec<(Coord, f64)>,
    /// Engine result: counters and the task timeline.
    pub result: JobResult,
    /// Number of Map tasks the run used.
    pub num_maps: usize,
    /// Keys per reducer (output weights), for availability curves.
    pub reducer_key_counts: Vec<u64>,
}

/// Runs `query` against `file` under the given framework mode: the
/// mode's splits and plan, and the query's attempt bodies routed as the
/// mode routes, on a slot pool of the run's own.
pub fn run_query(
    file: &ScincFile,
    query: &StructuralQuery,
    opts: &RunOptions,
) -> Result<QueryOutcome> {
    let splits = generate_splits(file, query, opts.mode, opts.split_bytes)?;
    let n = opts.num_reducers;
    let (plan, reducer_key_counts): (Box<dyn RoutingPlan<Coord>>, Vec<u64>) = match opts.mode {
        // Hash partitioning has no geometric key counts; weigh
        // reducers equally.
        FrameworkMode::Hadoop | FrameworkMode::SciHadoop => (
            Box::new(DefaultPlan::<Coord, _>::new(CoordHashPartitioner, n)),
            vec![1u64; n],
        ),
        FrameworkMode::Sidr => {
            let mut planner = SidrPlanner::new(query, n).filter_pushdown(opts.filter_pushdown);
            if let Some(region) = &opts.priority_region {
                planner = planner.prioritize_region(region.clone());
            }
            let plan = planner.build(&splits)?;
            let counts = (0..n)
                .map(|r| plan.partition().keyblock_key_count(r))
                .collect::<Result<Vec<u64>>>()?;
            (Box::new(plan), counts)
        }
    };
    let config = JobConfig {
        map_slots: opts.map_slots,
        reduce_slots: opts.reduce_slots,
        fault_plan: opts.fault_plan.clone(),
        retry: opts.retry,
        volatile_intermediate: opts.volatile_intermediate,
        speculation: SpeculationPolicy::default(),
        deadline: None,
    };
    let exec_opts = ExecOptions {
        filter_pushdown: opts.filter_pushdown,
        ..ExecOptions::default()
    };
    let bodies = SpecExecutor::for_query(
        file.try_clone()?,
        query,
        splits.clone(),
        n,
        opts.mode,
        exec_opts,
    )?;
    let executor = InProcessExecutor::with_bodies(bodies, &config);
    let pool = SlotPool::new(opts.map_slots, opts.reduce_slots)?;
    let output = InMemoryOutput::<Coord, f64>::new();
    let result = run_job_with_executor(
        &splits,
        plan.as_ref(),
        &output,
        &config,
        &pool,
        None,
        &executor,
    )?;
    Ok(QueryOutcome {
        mode: opts.mode,
        records: output.sorted_records(),
        result,
        num_maps: splits.len(),
        reducer_key_counts,
    })
}

/// Generates the splits a mode would use (exposed for planning-only
/// consumers such as the cluster simulator and Table 3).
pub fn generate_splits(
    file: &ScincFile,
    query: &StructuralQuery,
    mode: FrameworkMode,
    split_bytes: u64,
) -> Result<Vec<InputSplit>> {
    let space = file.metadata().variable_shape(&query.variable)?;
    let region = query.region();
    if !sidr_coords::Slab::whole(&space).contains_slab(&region) {
        return Err(SidrError::Plan(format!(
            "query region {region} exceeds the variable space {space}"
        )));
    }
    let esize = file.metadata().variable(&query.variable)?.dtype.size() as u64;
    let gen = SplitGenerator::new(space, esize)
        .for_region(region)
        .map_err(SidrError::Engine)?;
    let splits = match mode {
        FrameworkMode::Hadoop => gen.naive_linear(split_bytes)?,
        FrameworkMode::SciHadoop | FrameworkMode::Sidr => {
            gen.aligned(split_bytes, query.extraction.shape()[0])?
        }
    };
    Ok(splits)
}

/// Options for executing a pre-serialized [`JobSpec`] (the serving
/// path): the per-submission knobs that are not part of the spec
/// itself. The job's policy — retry budget, speculation, deadline —
/// is the spec's; the cluster-owned knobs ([`SlotPool`] size, spill
/// policy) belong to the server.
#[derive(Clone, Debug, Default)]
pub struct SpecRunOptions {
    /// Client-supplied keyblock priority: keyblocks covering this
    /// region of `K′` are scheduled first (§3.4 computational
    /// steering). Overrides the spec's stored `reduce_order`.
    pub priority_region: Option<Slab>,
    /// Unread: every SIDR reduce checks the tally its plan promises.
    /// Kept because the frozen benchmark still sets it.
    pub validate_annotations: bool,
    /// Push a `Filter` operator's predicate below the shuffle (the
    /// plan then promises no annotation tally; output unchanged).
    pub filter_pushdown: bool,
    /// Chaos hook: deterministic fault script injected into this run
    /// (empty = none). Carried from the submission, not the spec.
    pub fault_plan: FaultPlan,
}

/// Executes a serialized job submission against `file` on a shared
/// [`SlotPool`], committing every keyblock through `output` the moment
/// its reduce finishes.
///
/// Attempts run in this process through the bodies a `sidr-worker`
/// runs ([`SpecExecutor`]), and the engine's in-process executor keeps
/// every committed partition as the SMOF bytes a worker's store would
/// hold, so the engine and the fleet share one data path.
///
/// This is the multi-tenant serving entry point: the spec's own splits
/// are used verbatim (the wire contract — what `sidr plan --spec`
/// exported and `sidr-lint` / the server's admission pre-flight
/// verified is exactly what runs), the plan is re-derived from the
/// spec's query over those splits, and the pool bounds this job's
/// slot usage *jointly with every other job sharing it*. Pass a
/// [`CancelToken`] to make the job abandonable mid-flight.
pub fn run_spec_on_pool(
    file: &ScincFile,
    spec: &JobSpec,
    opts: &SpecRunOptions,
    output: &dyn OutputCollector<Coord, f64>,
    pool: &SlotPool,
    cancel: Option<&CancelToken>,
) -> Result<JobResult> {
    let query = spec.query()?;
    let (plan, config) = spec_plan_and_config(spec, &query, opts)?;
    // The engine hands each reduce the plan's tally and applies the
    // fault script; the bodies add neither.
    let exec_opts = ExecOptions {
        filter_pushdown: opts.filter_pushdown,
        ..ExecOptions::default()
    };
    let (splits, n) = (spec.splits.clone(), spec.num_reducers);
    let bodies = SpecExecutor::for_query(
        file.try_clone()?,
        &query,
        splits,
        n,
        FrameworkMode::Sidr,
        exec_opts,
    )?;
    let executor = InProcessExecutor::with_bodies(bodies, &config);
    Ok(run_job_with_executor(
        &spec.splits,
        &plan,
        output,
        &config,
        pool,
        cancel,
        &executor,
    )?)
}

/// Executes a serialized job submission with its task attempts
/// dispatched through the engine's [`TaskExecutor`] seam: to a worker
/// fleet, or (from [`run_spec_on_pool`]) to this process.
///
/// Scheduling is the same wherever attempts run — same plan, same
/// shared [`SlotPool`], same inverted reduce-first order, same
/// keyblock-by-keyblock commits through `output`. Only *where* an
/// attempt's bytes are read and reduced differs. Map output lives in
/// worker memory and dies with the worker; the executor reports
/// exactly the generations that are gone
/// ([`sidr_mapreduce::RemoteReduceError::SourcesLost`]) and the
/// scheduler re-executes exactly those maps (§6). A reduce attempt
/// that merely failed consumed nothing, so the engine's
/// `volatile_intermediate` whole-`I_ℓ` re-execution is not used here.
pub fn run_spec_with_executor(
    spec: &JobSpec,
    opts: &SpecRunOptions,
    output: &dyn OutputCollector<Coord, f64>,
    pool: &SlotPool,
    cancel: Option<&CancelToken>,
    executor: &dyn TaskExecutor<Coord, f64>,
) -> Result<JobResult> {
    let query = spec.query()?;
    let (plan, config) = spec_plan_and_config(spec, &query, opts)?;
    Ok(run_job_with_executor(
        &spec.splits,
        &plan as &dyn RoutingPlan<Coord>,
        output,
        &config,
        pool,
        cancel,
        executor,
    )?)
}

/// The filter threshold to push below the shuffle, when push-down is
/// asked for and the operator is a filter.
pub(crate) fn pushdown_threshold(
    filter_pushdown: bool,
    operator: crate::operators::Operator,
) -> Option<f64> {
    match (filter_pushdown, operator) {
        (true, crate::operators::Operator::Filter { threshold }) => Some(threshold),
        _ => None,
    }
}

/// The plan and engine configuration a spec run uses, in-process or
/// on a fleet: the spec's own retry budget, speculation policy and
/// deadline, whoever the caller is.
fn spec_plan_and_config(
    spec: &JobSpec,
    query: &StructuralQuery,
    opts: &SpecRunOptions,
) -> Result<(crate::plan::SidrPlan, JobConfig)> {
    // The planner re-derives the geometry the spec promised, and its
    // structural pre-flight re-checks it on this side of the wire.
    let mut planner =
        SidrPlanner::new(query, spec.num_reducers).filter_pushdown(opts.filter_pushdown);
    if let Some(region) = &opts.priority_region {
        planner = planner.prioritize_region(region.clone());
    }
    let plan = planner.build(&spec.splits)?;
    let config = JobConfig {
        fault_plan: opts.fault_plan.clone(),
        retry: spec.retry,
        speculation: spec.speculation.clone(),
        deadline: spec.deadline_ms.map(std::time::Duration::from_millis),
        ..Default::default()
    };
    Ok((plan, config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::Operator;
    use sidr_coords::Shape;
    use sidr_scifile::gen::{DatasetSpec, ValueModel};

    fn shape(v: &[u64]) -> Shape {
        Shape::new(v.to_vec()).unwrap()
    }

    fn temp_file(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("sidr-framework-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.scinc", std::process::id()))
    }

    /// Generates a small dataset and returns (file, spec).
    fn dataset(name: &str, space: &[u64]) -> (ScincFile, DatasetSpec) {
        let spec = DatasetSpec {
            variable: "t".into(),
            dim_names: (0..space.len()).map(|i| format!("d{i}")).collect(),
            space: shape(space),
            model: ValueModel::LinearIndex,
            seed: 0,
        };
        let path = temp_file(name);
        let file = spec.generate::<f64>(&path).unwrap();
        (file, spec)
    }

    /// Ground truth for a mean query over a dataset spec.
    fn expected_means(q: &StructuralQuery, spec: &DatasetSpec) -> Vec<(Coord, f64)> {
        q.intermediate_space()
            .iter_coords()
            .map(|kp| {
                let pre = q.extraction.preimage_of_key(&kp).unwrap();
                let vals: Vec<f64> = pre.iter_coords().map(|k| spec.value_at(&k)).collect();
                (kp, vals.iter().sum::<f64>() / vals.len() as f64)
            })
            .collect()
    }

    #[test]
    fn all_three_modes_agree_with_ground_truth() {
        let (file, spec) = dataset("agree", &[24, 6, 4]);
        let q = StructuralQuery::new("t", shape(&[24, 6, 4]), shape(&[4, 3, 2]), Operator::Mean)
            .unwrap();
        let expect = expected_means(&q, &spec);
        for mode in [
            FrameworkMode::Hadoop,
            FrameworkMode::SciHadoop,
            FrameworkMode::Sidr,
        ] {
            let mut opts = RunOptions::new(mode, 3);
            opts.split_bytes = 6 * 4 * 8 * 4; // 4 leading rows per split
            let got = run_query(&file, &q, &opts).unwrap();
            assert_eq!(got.records.len(), expect.len(), "{mode}");
            for ((gk, gv), (ek, ev)) in got.records.iter().zip(&expect) {
                assert_eq!(gk, ek, "{mode}");
                assert!((gv - ev).abs() < 1e-9, "{mode}: {gk} {gv} != {ev}");
            }
        }
    }

    #[test]
    fn sidr_uses_fewer_connections() {
        let (file, _) = dataset("conns", &[40, 6, 4]);
        let q = StructuralQuery::new("t", shape(&[40, 6, 4]), shape(&[4, 3, 2]), Operator::Mean)
            .unwrap();
        let mut opts = RunOptions::new(FrameworkMode::SciHadoop, 5);
        opts.split_bytes = 6 * 4 * 8 * 4;
        let sh = run_query(&file, &q, &opts).unwrap();
        opts.mode = FrameworkMode::Sidr;
        let ss = run_query(&file, &q, &opts).unwrap();
        assert_eq!(
            sh.result.counters.shuffle_connections,
            (sh.num_maps * 5) as u64,
            "stock Hadoop contacts every map from every reducer"
        );
        assert!(
            ss.result.counters.shuffle_connections < sh.result.counters.shuffle_connections,
            "SIDR {} >= SciHadoop {}",
            ss.result.counters.shuffle_connections,
            sh.result.counters.shuffle_connections
        );
    }

    #[test]
    fn filter_query_produces_value_lists() {
        let (file, spec) = dataset("filter", &[16, 4, 4]);
        let threshold = (16.0 * 4.0 * 4.0) / 2.0; // median of linear index
        let q = StructuralQuery::new(
            "t",
            shape(&[16, 4, 4]),
            shape(&[4, 2, 2]),
            Operator::Filter { threshold },
        )
        .unwrap();
        let opts = RunOptions::new(FrameworkMode::Sidr, 2);
        let got = run_query(&file, &q, &opts).unwrap();
        // Ground truth: every input value > threshold appears once,
        // under its k' key.
        let mut expect = Vec::new();
        for kp in q.intermediate_space().iter_coords() {
            let pre = q.extraction.preimage_of_key(&kp).unwrap();
            let mut vals: Vec<f64> = pre
                .iter_coords()
                .map(|k| spec.value_at(&k))
                .filter(|&v| v > threshold)
                .collect();
            vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for v in vals {
                expect.push((kp.clone(), v));
            }
        }
        let mut got_sorted = got.records.clone();
        got_sorted.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.partial_cmp(&b.1).unwrap()));
        expect.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.partial_cmp(&b.1).unwrap()));
        assert_eq!(got_sorted, expect);
    }

    #[test]
    fn filter_pushdown_shrinks_the_shuffle_without_changing_output() {
        let (file, _) = dataset("pushdown", &[32, 6, 4]);
        let threshold = 32.0 * 6.0 * 4.0 * 0.9; // top 10 % of linear indices
        let q = StructuralQuery::new(
            "t",
            shape(&[32, 6, 4]),
            shape(&[4, 3, 2]),
            Operator::Filter { threshold },
        )
        .unwrap();
        let mut opts = RunOptions::new(FrameworkMode::Sidr, 3);
        let plain = run_query(&file, &q, &opts).unwrap();
        opts.filter_pushdown = true;
        let pushed = run_query(&file, &q, &opts).unwrap();
        assert_eq!(
            plain.records, pushed.records,
            "push-down must not change output"
        );
        assert!(
            pushed.result.counters.shuffled_records * 5 < plain.result.counters.shuffled_records,
            "push-down shuffled {} vs {}",
            pushed.result.counters.shuffled_records,
            plain.result.counters.shuffled_records
        );
    }

    #[test]
    fn annotation_validation_passes_on_honest_runs() {
        let (file, _) = dataset("annot", &[20, 4, 4]);
        let q = StructuralQuery::new("t", shape(&[20, 4, 4]), shape(&[5, 2, 2]), Operator::Max)
            .unwrap();
        let opts = RunOptions::new(FrameworkMode::Sidr, 3);
        // Max is distributive → a combiner folds pairs; annotations
        // must still tally the raw counts.
        let got = run_query(&file, &q, &opts).unwrap();
        assert!(got.result.counters.combined_records < got.result.counters.map_records_out);
    }
}
