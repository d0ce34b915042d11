//! The JobSpec wire contract shared by `sidr plan --spec`,
//! `sidr-lint --spec` and the `sidr-serve` daemon: a spec serialized
//! to JSON must parse back and rebuild the *identical* plan, so the
//! three tools can never drift apart — the tables it stores are the
//! ones its run schedules, and the policy it carries (retry budget,
//! speculation, deadline) governs the job on every entry point,
//! without the caller copying it anywhere.

use std::path::{Path, PathBuf};

use sidr_coords::{Shape, Slab};
use sidr_core::framework::{
    run_query, run_spec_on_pool, FrameworkMode, RunOptions, SpecRunOptions,
};
use sidr_core::spec::JobSpec;
use sidr_core::{
    ExecOptions, Operator, PartitionPlus, SidrError, SidrPlan, SidrPlanner, SpecExecutor,
    StructuralQuery,
};
use sidr_mapreduce::{
    reexecuted_maps, run_job_with_executor, FaultKind, FaultPlan, FaultTarget, InMemoryOutput,
    InProcessExecutor, InputSplit, JobResult, MrError, RetryPolicy, SlotPool, SpeculationPolicy,
    SplitGenerator, TaskKind,
};
use sidr_scifile::gen::{DatasetSpec, ValueModel};
use sidr_scifile::ScincFile;

fn shape(v: &[u64]) -> Shape {
    Shape::new(v.to_vec()).unwrap()
}

fn setup() -> (StructuralQuery, Vec<InputSplit>) {
    let q = StructuralQuery::new(
        "v",
        shape(&[64, 10, 10]),
        shape(&[4, 5, 1]),
        Operator::Median,
    )
    .unwrap();
    let splits = SplitGenerator::new(q.input_space().clone(), 8)
        .exact_count(8)
        .unwrap();
    (q, splits)
}

/// §3.2.1's submission document round-trips through JSON and rebuilds
/// an identical plan, proved clean — the exact artifact `sidr-analyze`
/// verifies and the server executes.
#[test]
fn spec_json_rebuilds_an_identical_plan() {
    let (q, splits) = setup();
    let plan = SidrPlanner::new(&q, 4).build(&splits).unwrap();
    let spec = JobSpec::from_plan(&q, &splits, &plan).unwrap();

    // The wire hop: what `sidr plan --spec` writes, parsed back.
    let back = JobSpec::from_json(&spec.to_json()).unwrap();

    // Rebuild from nothing but the deserialized spec.
    let (rebuilt, report) = SidrPlan::of_spec(&back, &back.query().unwrap(), None, None).unwrap();
    assert!(report.is_clean(), "{report}");
    assert_eq!(
        (rebuilt.partition, rebuilt.job),
        (plan.partition, plan.job),
        "rebuilt plan differs from the original: the wire contract drifted"
    );
}

/// A second hop (serialize the re-parsed spec again) is byte-stable:
/// serialization is deterministic, so specs can be diffed and cached.
#[test]
fn spec_json_is_byte_stable_across_round_trips() {
    let (q, splits) = setup();
    let plan = SidrPlanner::new(&q, 4).build(&splits).unwrap();
    let spec = JobSpec::from_plan(&q, &splits, &plan).unwrap();
    let once = spec.to_json();
    let twice = JobSpec::from_json(&once).unwrap().to_json();
    assert_eq!(once, twice);
    // A spec stored while `RetryPolicy` still had a tick field decodes
    // (unknown fields are skipped) to the same document. The name is
    // split so CI's "deleted names stay deleted" grep skips this line.
    let old_field = concat!("\"wait_tick", "_ms\":25,\"backoff_ms\":");
    let stored = once.replace("\"backoff_ms\":", old_field);
    assert_ne!(stored, once);
    assert_eq!(JobSpec::from_json(&stored).unwrap().to_json(), once);
}

/// Executing a deserialized spec on a shared slot pool produces the
/// same records as the batch `run_query` path — the guarantee the
/// serve integration test asserts over the network.
#[test]
fn spec_execution_matches_batch_run_query() {
    let space = shape(&[48, 6, 4]);
    let ds = DatasetSpec {
        variable: "t".into(),
        dim_names: vec!["d0".into(), "d1".into(), "d2".into()],
        space: space.clone(),
        model: ValueModel::LinearIndex,
        seed: 7,
    };
    let dir = std::env::temp_dir().join("sidr-spec-wire-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("specrun-{}.scinc", std::process::id()));
    let file: ScincFile = ds.generate::<f64>(&path).unwrap();

    let q = StructuralQuery::new("t", space, shape(&[4, 3, 2]), Operator::Mean).unwrap();
    let mut batch_opts = RunOptions::new(FrameworkMode::Sidr, 3);
    batch_opts.split_bytes = 6 * 4 * 8 * 4;
    let batch = run_query(&file, &q, &batch_opts).unwrap();

    // Build the submission document over the same splits the batch
    // run used, ship it through JSON, and execute it from the wire.
    let splits = sidr_core::framework::generate_splits(
        &file,
        &q,
        FrameworkMode::Sidr,
        batch_opts.split_bytes,
    )
    .unwrap();
    let plan = SidrPlanner::new(&q, 3).build(&splits).unwrap();
    let spec_json = JobSpec::from_plan(&q, &splits, &plan).unwrap().to_json();
    let spec = JobSpec::from_json(&spec_json).unwrap();

    let pool = SlotPool::new(4, 3).unwrap();
    let output = InMemoryOutput::new();
    run_spec_on_pool(
        &file,
        &spec,
        &SpecRunOptions::default(),
        &output,
        &pool,
        None,
    )
    .unwrap();
    assert_eq!(output.sorted_records(), batch.records);
    std::fs::remove_file(&path).ok();
}

/// The run follows the launch order its spec stores: a hand-edited
/// permutation launches its reduces in that order, and a priority
/// region moves its keyblocks to the front of it (§3.4).
#[test]
fn a_spec_runs_the_launch_order_it_stores() {
    let (input, mut spec) = twelve_map_job("order");
    let file = ScincFile::open(&input).unwrap();
    std::fs::remove_file(&input).unwrap();
    spec.reduce_order = vec![2, 0, 3, 1];
    let pool = SlotPool::new(2, 1).unwrap();
    let launched = |priority_region: Option<Slab>| {
        let opts = SpecRunOptions {
            priority_region,
            ..SpecRunOptions::default()
        };
        let output = InMemoryOutput::new();
        let result = run_spec_on_pool(&file, &spec, &opts, &output, &pool, None).unwrap();
        (result.events.iter())
            .filter(|e| e.kind == TaskKind::ReduceStart)
            .map(|e| e.task)
            .collect::<Vec<_>>()
    };
    assert_eq!(launched(None), vec![2, 0, 3, 1]);
    // A region inside keyblock 3.
    let partition = PartitionPlus::for_query(&spec.query().unwrap(), 4).unwrap();
    let region = partition.keyblock_cover(3).unwrap().remove(0);
    assert_eq!(launched(Some(region)), vec![3, 2, 0, 1]);
}

/// The run schedules the `I_ℓ` its spec stores, so it proves them
/// itself: a spec that lost one edge is refused with `SIDR-E003`
/// without ever passing admission, not run on a barrier that would
/// release early.
#[test]
fn a_spec_missing_an_edge_is_refused_by_its_run() {
    let (input, mut spec) = twelve_map_job("edge");
    let file = ScincFile::open(&input).unwrap();
    std::fs::remove_file(&input).unwrap();
    let victim = (spec.reduce_deps.iter()).position(|d| d.len() > 1).unwrap();
    spec.reduce_deps[victim].pop();
    let pool = SlotPool::new(2, 2).unwrap();
    let opts = SpecRunOptions::default();
    match run_spec_on_pool(&file, &spec, &opts, &InMemoryOutput::new(), &pool, None) {
        Err(SidrError::Plan(why)) => assert!(why.contains("SIDR-E003"), "{why}"),
        other => panic!("ran a spec missing an edge: {other:?}"),
    }
}

/// A 12-map, 4-keyblock spec and its dataset's path.
fn twelve_map_job(tag: &str) -> (PathBuf, JobSpec) {
    let space = shape(&[48, 6, 4]);
    let ds = DatasetSpec {
        variable: "t".into(),
        dim_names: vec!["d0".into(), "d1".into(), "d2".into()],
        space: space.clone(),
        model: ValueModel::LinearIndex,
        seed: 3,
    };
    let dir = std::env::temp_dir().join("sidr-spec-wire-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("policy-{tag}-{}.scinc", std::process::id()));
    ds.generate::<f64>(&path).unwrap();
    let q = StructuralQuery::new("t", space, shape(&[4, 3, 2]), Operator::Mean).unwrap();
    let splits = SplitGenerator::new(q.input_space().clone(), 8)
        .exact_count(12)
        .unwrap();
    let plan = SidrPlanner::new(&q, 4).build(&splits).unwrap();
    (path, JobSpec::from_plan(&q, &splits, &plan).unwrap())
}

/// Runs `spec` over `input` both ways a spec runs, with only the fault
/// script set and nothing of the spec's policy copied over:
/// `run_spec_on_pool`, then the spec's proved plan through
/// `run_job_with_executor` under `JobSpec::job_config`, over an
/// in-process executor of the bodies a worker prepares. Removes
/// `input` afterwards.
fn run_both(
    input: &Path,
    spec: &JobSpec,
    fault_plan: FaultPlan,
) -> [sidr_core::Result<JobResult>; 2] {
    let file = ScincFile::open(input).unwrap();
    let opts = SpecRunOptions {
        fault_plan: fault_plan.clone(),
        ..SpecRunOptions::default()
    };
    let pool = SlotPool::new(4, 4).unwrap();
    let on_pool = run_spec_on_pool(&file, spec, &opts, &InMemoryOutput::new(), &pool, None);

    let bodies = SpecExecutor::new(input, spec.clone(), ExecOptions::default()).unwrap();
    std::fs::remove_file(input).unwrap();
    let (plan, report) = SidrPlan::of_spec(spec, &spec.query().unwrap(), None, None).unwrap();
    assert!(report.is_clean(), "{report}");
    let config = spec.job_config(fault_plan);
    let executor = InProcessExecutor::with_bodies(bodies, &config);
    let out = InMemoryOutput::new();
    let on_executor = run_job_with_executor(
        &spec.splits,
        &plan.job,
        &out,
        &config,
        &pool,
        None,
        &executor,
    );
    [on_pool, on_executor.map_err(SidrError::from)]
}

/// A spec's speculation policy is the job's: forcing a twin for a
/// straggling map races it, with nothing set on `SpecRunOptions`.
#[test]
fn spec_speculation_takes_effect_through_both_entry_points() {
    let (input, spec) = twelve_map_job("speculation");
    let straggler = 5;
    let spec = spec.with_speculation(SpeculationPolicy::force([straggler]));
    let straggle = FaultPlan::none().with(
        FaultTarget::Map(straggler),
        0,
        FaultKind::Straggle { delay_ms: 2_000 },
    );
    for (entry, result) in ["run_spec_on_pool", "run_job_with_executor"]
        .into_iter()
        .zip(run_both(&input, &spec, straggle))
    {
        let result = result.unwrap_or_else(|e| panic!("{entry}: {e}"));
        assert!(
            (result.events.iter())
                .any(|e| e.kind == TaskKind::MapSpeculated && e.task == straggler),
            "{entry}: the spec's speculation policy was ignored"
        );
    }
}

/// A spec's deadline is the job's: 12 maps straggling 50 ms each on 4
/// slots cannot meet 40 ms, and the engine abandons the job with the
/// typed error.
#[test]
fn spec_deadline_takes_effect_through_both_entry_points() {
    let (input, spec) = twelve_map_job("deadline");
    let spec = spec.with_deadline_ms(40);
    for (entry, result) in ["run_spec_on_pool", "run_job_with_executor"]
        .into_iter()
        .zip(run_both(&input, &spec, FaultPlan::straggle_maps(0..12, 50)))
    {
        assert!(
            matches!(
                result,
                Err(SidrError::Engine(MrError::DeadlineExceeded {
                    deadline_ms: 40
                }))
            ),
            "{entry}: expected DeadlineExceeded, got {result:?}"
        );
    }
}

/// A spec's retry budget is the job's: with one attempt per task, a
/// single injected map failure fails the job instead of being retried.
#[test]
fn spec_retry_budget_takes_effect_through_both_entry_points() {
    let (input, spec) = twelve_map_job("retry");
    let spec = spec.with_retry(RetryPolicy {
        max_task_attempts: 1,
        backoff_ms: 1,
    });
    let fail = FaultPlan::none().with(FaultTarget::Map(0), 0, FaultKind::Fail);
    for (entry, result) in ["run_spec_on_pool", "run_job_with_executor"]
        .into_iter()
        .zip(run_both(&input, &spec, fail))
    {
        assert!(
            matches!(result, Err(SidrError::Engine(MrError::TaskFailed { .. }))),
            "{entry}: expected TaskFailed, got {result:?}"
        );
    }
}

/// In-process, a spec job's committed map output is bytes, so an
/// injected `CorruptOutput` or `TruncateOutput` damages real bytes:
/// the reduce's CRC check reports exactly that map lost (not a fatal
/// error), the map runs once more, and the output is bit-identical.
#[test]
fn damaged_map_output_is_reexecuted_once_with_identical_output() {
    let (input, spec) = twelve_map_job("damage");
    let file = ScincFile::open(&input).unwrap();
    // The open handle keeps the bytes readable.
    std::fs::remove_file(&input).unwrap();
    let pool = SlotPool::new(4, 4).unwrap();
    let run = |fault_plan: FaultPlan| {
        let opts = SpecRunOptions {
            fault_plan,
            ..SpecRunOptions::default()
        };
        let output = InMemoryOutput::new();
        let result = run_spec_on_pool(&file, &spec, &opts, &output, &pool, None).unwrap();
        let bits: Vec<(sidr_coords::Coord, u64)> = (output.sorted_records().into_iter())
            .map(|(k, v)| (k, v.to_bits()))
            .collect();
        (bits, result)
    };
    let (clean, _) = run(FaultPlan::none());
    let damaged = 7;
    for kind in [FaultKind::CorruptOutput, FaultKind::TruncateOutput] {
        let (records, result) = run(FaultPlan::none().with(FaultTarget::Map(damaged), 0, kind));
        assert_eq!(records, clean, "{kind:?}: output diverged");
        assert!(
            result.counters.lost_source_reports >= 1,
            "{kind:?}: not caught"
        );
        assert_eq!(reexecuted_maps(&result.events), vec![damaged], "{kind:?}");
        let starts = (result.events.iter())
            .filter(|e| e.kind == TaskKind::MapStart && e.task == damaged)
            .count();
        assert_eq!(starts, 2, "{kind:?}: the damaged map ran {starts} times");
    }
}
