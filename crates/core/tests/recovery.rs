//! Dependency-scoped recovery on the full SIDR stack (§6): a Reduce
//! task that fails *after* its dependency barrier under volatile
//! intermediate data must re-execute exactly the Map tasks in its
//! dependency set `I_ℓ` — no more, no fewer — proven from the
//! attempt-stamped task timeline, with count-annotation validation
//! (§3.2.1 approach 2) re-checked on the recovered attempt.

use sidr_coords::Shape;
use sidr_core::framework::{generate_splits, RunOptions};
use sidr_core::{run_query, FrameworkMode, Operator, SidrPlanner, StructuralQuery};
use sidr_mapreduce::{reexecuted_maps, FaultPlan, MapTaskId};
use sidr_scifile::gen::{DatasetSpec, ValueModel};

#[test]
fn reduce_failure_reexecutes_exactly_i_ell() {
    let space = Shape::new(vec![64, 8, 8]).unwrap();
    let spec = DatasetSpec {
        variable: "v".into(),
        dim_names: vec!["t".into(), "y".into(), "x".into()],
        space: space.clone(),
        model: ValueModel::LinearIndex,
        seed: 11,
    };
    let dir = std::env::temp_dir().join("sidr-core-recovery-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("iell-{}.scinc", std::process::id()));
    let file = spec.generate::<f64>(&path).unwrap();
    let query = StructuralQuery::new(
        "v",
        space,
        Shape::new(vec![8, 4, 4]).unwrap(),
        Operator::Mean,
    )
    .unwrap();

    let reducers = 4;
    let failed_reducer = 2usize;
    let mut opts = RunOptions::new(FrameworkMode::Sidr, reducers);
    opts.split_bytes = 8 * 8 * 8 * 8; // 8 leading rows per split -> 8 maps
    opts.volatile_intermediate = true; // recovery must re-run maps

    // Fault-free baseline for byte-identical comparison.
    let baseline = run_query(&file, &query, &opts).unwrap();
    assert!(baseline.num_maps > 1, "need several maps for a scoped test");
    assert!(reexecuted_maps(&baseline.result.events).is_empty());

    // The plan SIDR will build — its dependency table is the oracle.
    let splits = generate_splits(&file, &query, FrameworkMode::Sidr, opts.split_bytes).unwrap();
    let plan = SidrPlanner::new(&query, reducers).build(&splits).unwrap();
    let mut i_ell: Vec<MapTaskId> = plan.dependencies().reduce_deps(failed_reducer).to_vec();
    i_ell.sort_unstable();
    i_ell.dedup();
    assert!(
        !i_ell.is_empty() && i_ell.len() < baseline.num_maps,
        "I_ℓ must be a proper subset of the maps ({} of {})",
        i_ell.len(),
        baseline.num_maps
    );

    opts.fault_plan = FaultPlan::fail_reducers_first_attempt([failed_reducer]);
    let outcome = run_query(&file, &query, &opts).unwrap();

    // The timeline protocol oracle re-derives the same guarantees
    // from the event stream alone: barriers only after every `I_ℓ`
    // commit, the recovered attempt's barrier only after its volatile
    // dependencies recommitted, recovery confined to `I_ℓ`.
    let mut oracle =
        sidr_core::TimelineOracle::new(baseline.num_maps, reducers).volatile_intermediate(true);
    for r in 0..reducers {
        oracle = oracle.with_deps(r, plan.dependencies().reduce_deps(r).to_vec());
    }
    oracle
        .check_complete(&baseline.result.events)
        .unwrap_or_else(|v| panic!("fault-free run broke the protocol: {v}"));
    oracle
        .check_complete(&outcome.result.events)
        .unwrap_or_else(|v| panic!("recovery run broke the protocol: {v}"));

    assert_eq!(
        reexecuted_maps(&outcome.result.events),
        i_ell,
        "recovery must re-execute exactly the failed reduce's I_ℓ"
    );
    assert_eq!(
        outcome.result.counters.maps_reexecuted,
        i_ell.len() as u64,
        "re-execution counter must match |I_ℓ|"
    );
    assert_eq!(outcome.result.counters.reduce_failures, 1);
    assert_eq!(
        outcome.records, baseline.records,
        "recovered output must be identical to the fault-free run"
    );

    std::fs::remove_file(&path).ok();
}
