//! End-to-end integration: SciNC dataset → splits → engine →
//! operators → output, across all three framework modes, checked
//! against independently computed ground truth.

use sidr_repro::coords::{Coord, Shape, Slab};
use sidr_repro::core::framework::{generate_splits, RunOptions};
use sidr_repro::core::output::DenseSlabOutput;
use sidr_repro::core::{
    run_query, FrameworkMode, Operator, PartitionPlus, SidrPlanner, StructuralQuery,
};
use sidr_repro::mapreduce::{FaultPlan, TaskKind};
use sidr_repro::scifile::gen::{DatasetSpec, ValueModel};
use sidr_repro::scifile::ScincFile;

fn shape(v: &[u64]) -> Shape {
    Shape::new(v.to_vec()).unwrap()
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("sidr-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}.scinc", std::process::id()))
}

fn make_dataset(
    name: &str,
    space: &[u64],
    model: ValueModel,
    seed: u64,
) -> (ScincFile, DatasetSpec) {
    let spec = DatasetSpec {
        variable: "v".into(),
        dim_names: (0..space.len()).map(|i| format!("d{i}")).collect(),
        space: shape(space),
        model,
        seed,
    };
    let file = spec.generate::<f64>(temp_path(name)).unwrap();
    (file, spec)
}

/// Ground truth via the extraction preimage, independent of the engine.
fn ground_truth(q: &StructuralQuery, spec: &DatasetSpec) -> Vec<(Coord, f64)> {
    let mut out = Vec::new();
    for kp in q.intermediate_space().iter_coords() {
        let vals: Vec<f64> = q
            .extraction
            .preimage_of_key(&kp)
            .unwrap()
            .iter_coords()
            .map(|k| spec.value_at(&k))
            .collect();
        for v in q.operator.apply(&vals) {
            out.push((kp.clone(), v));
        }
    }
    out
}

#[test]
fn every_operator_agrees_across_all_modes() {
    let (file, spec) = make_dataset(
        "ops",
        &[24, 8, 6],
        ValueModel::Uniform { lo: -5.0, hi: 5.0 },
        9,
    );
    for op in [
        Operator::Mean,
        Operator::Median,
        Operator::Min,
        Operator::Max,
        Operator::Sum,
        Operator::Count,
        Operator::Filter { threshold: 0.0 },
        Operator::SortValues,
        Operator::Variance,
        Operator::Range,
        Operator::Percentile { p: 75.0 },
        Operator::Histogram {
            lo: -5.0,
            hi: 5.0,
            buckets: 4,
        },
    ] {
        let q = StructuralQuery::new("v", shape(&[24, 8, 6]), shape(&[3, 2, 3]), op).unwrap();
        let expect = ground_truth(&q, &spec);
        for mode in [
            FrameworkMode::Hadoop,
            FrameworkMode::SciHadoop,
            FrameworkMode::Sidr,
        ] {
            let mut opts = RunOptions::new(mode, 3);
            opts.split_bytes = 8 * 6 * 8 * 5;
            let got = run_query(&file, &q, &opts).unwrap();
            // Filter/sort emit per-key lists whose intra-key order may
            // legally differ; normalize. Sum/Mean accumulate in
            // shuffle-arrival order, so compare with an ulp-scale
            // tolerance rather than bitwise.
            let norm = |mut v: Vec<(Coord, f64)>| {
                v.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
                v
            };
            let got_n = norm(got.records);
            let expect_n = norm(expect.clone());
            assert_eq!(got_n.len(), expect_n.len(), "{op:?} under {mode}");
            for ((gk, gv), (ek, ev)) in got_n.iter().zip(&expect_n) {
                assert_eq!(gk, ek, "{op:?} under {mode}");
                assert!(
                    (gv - ev).abs() <= 1e-12 * ev.abs().max(1.0),
                    "{op:?} under {mode}: key {gk}: {gv} vs {ev}"
                );
            }
        }
    }
}

#[test]
fn strided_query_end_to_end() {
    let (file, spec) = make_dataset("strided", &[64, 6], ValueModel::LinearIndex, 0);
    let q = StructuralQuery::with_stride(
        "v",
        shape(&[64, 6]),
        shape(&[2, 6]),
        vec![8, 6],
        Operator::Sum,
    )
    .unwrap();
    let expect = ground_truth(&q, &spec);
    let mut opts = RunOptions::new(FrameworkMode::Sidr, 2);
    opts.split_bytes = 6 * 8 * 16;
    let got = run_query(&file, &q, &opts).unwrap();
    assert_eq!(got.records, expect);
}

#[test]
fn sidr_commits_in_keyblock_order_and_results_are_final() {
    let (file, spec) = make_dataset("early", &[48, 6, 6], ValueModel::LinearIndex, 0);
    let q =
        StructuralQuery::new("v", shape(&[48, 6, 6]), shape(&[4, 3, 3]), Operator::Mean).unwrap();
    let mut opts = RunOptions::new(FrameworkMode::Sidr, 4);
    opts.split_bytes = 6 * 6 * 8 * 4;
    let maps = generate_splits(&file, &q, opts.mode, opts.split_bytes)
        .unwrap()
        .len();
    opts.fault_plan = FaultPlan::straggle_maps(0..maps, 2);
    let got = run_query(&file, &q, &opts).unwrap();

    // Early results: some reduce committed before the last map ended.
    let first_reduce = got.result.completions(TaskKind::ReduceEnd)[0];
    let last_map = *got.result.completions(TaskKind::MapEnd).last().unwrap();
    assert!(
        first_reduce < last_map,
        "expected early results: first reduce {first_reduce:?}, last map {last_map:?}"
    );
    // And those early results are *correct* (the whole output matches
    // ground truth — HOP-style estimates would not).
    assert_eq!(got.records, ground_truth(&q, &spec));
}

#[test]
fn dense_output_files_reassemble_the_full_output_space() {
    let (file, spec) = make_dataset("dense", &[32, 8], ValueModel::LinearIndex, 0);
    let q = StructuralQuery::new("v", shape(&[32, 8]), shape(&[4, 2]), Operator::Mean).unwrap();
    let reducers = 3;

    // Run under SIDR, writing dense per-keyblock SciNC files.
    let splits = generate_splits(&file, &q, FrameworkMode::Sidr, 8 * 8 * 8).unwrap();
    let plan = SidrPlanner::new(&q, reducers).build(&splits).unwrap();
    let dir = std::env::temp_dir().join(format!("sidr-e2e-dense-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let collector = DenseSlabOutput::new(&dir, "v", plan.partition()).unwrap();

    let mapper = sidr_repro::core::source::StructuralMapper::new(q.extraction.clone());
    let reducer = sidr_repro::core::operators::OperatorReducer { op: q.operator };
    let factory = sidr_repro::core::source::scinc_source_factory::<f64>(&file, "v");
    sidr_repro::mapreduce::run_job(
        &splits,
        &factory,
        &mapper,
        None,
        &reducer,
        &plan,
        &collector,
        &sidr_repro::mapreduce::JobConfig::default(),
    )
    .unwrap();

    // Reassemble: every K' key appears in exactly one file, at its
    // origin-relative position, with the right value.
    let kspace = q.intermediate_space();
    let mut seen = vec![false; kspace.count() as usize];
    for path in collector.files() {
        let out = ScincFile::open(&path).unwrap();
        let origin = sidr_repro::scifile::sparse::read_origin(out.metadata()).unwrap();
        let local = out.metadata().variable_shape("v").unwrap();
        let data = out.read_slab::<f64>("v", &Slab::whole(&local)).unwrap();
        for (i, rel) in local.iter_coords().enumerate() {
            let abs = rel.checked_add(&origin).unwrap();
            let idx = kspace.linearize(&abs).unwrap() as usize;
            assert!(!seen[idx], "key {abs} written twice");
            seen[idx] = true;
            let expect_vals: Vec<f64> = q
                .extraction
                .preimage_of_key(&abs)
                .unwrap()
                .iter_coords()
                .map(|k| spec.value_at(&k))
                .collect();
            let expect = q.operator.apply(&expect_vals)[0];
            assert!((data[i] - expect).abs() < 1e-9);
        }
    }
    assert!(
        seen.iter().all(|&s| s),
        "some K' keys missing from dense output"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn discarded_partial_region_is_dropped_consistently() {
    // Space {26, 6} with extraction {4, 6}: rows 24..26 fall in the
    // discarded partial instance ("assuming we throw away the data
    // from the 365-th day", §3 Area 3). Every mode must ignore them,
    // and SIDR must neither run useless maps nor mis-tally
    // annotations.
    let (file, spec) = make_dataset("discard", &[26, 6], ValueModel::LinearIndex, 0);
    let q = StructuralQuery::new("v", shape(&[26, 6]), shape(&[4, 6]), Operator::Sum).unwrap();
    let expect = ground_truth(&q, &spec);
    assert_eq!(expect.len(), 6, "6 full instances of 24 values");
    for mode in [
        FrameworkMode::Hadoop,
        FrameworkMode::SciHadoop,
        FrameworkMode::Sidr,
    ] {
        let mut opts = RunOptions::new(mode, 2);
        opts.split_bytes = 6 * 8 * 2; // 2 rows per split -> 13 splits
        let got = run_query(&file, &q, &opts).unwrap();
        assert_eq!(got.records.len(), expect.len(), "{mode}");
        for ((gk, gv), (ek, ev)) in got.records.iter().zip(&expect) {
            assert_eq!(gk, ek, "{mode}");
            assert!((gv - ev).abs() < 1e-9, "{mode}");
        }
        if mode == FrameworkMode::Sidr {
            // The last split covers only discarded rows: no reduce
            // depends on it, so inverted scheduling skips it.
            assert!(
                got.result.counters.maps_skipped >= 1,
                "expected the all-discarded split to be skipped, counters: {:?}",
                got.result.counters
            );
        }
    }
}

#[test]
fn mismatched_query_space_is_rejected() {
    let (file, _) = make_dataset("mismatch", &[16, 4], ValueModel::LinearIndex, 0);
    // The query names a space that is not the variable's.
    let q = StructuralQuery::new("v", shape(&[20, 4]), shape(&[4, 4]), Operator::Mean).unwrap();
    let err = run_query(&file, &q, &RunOptions::new(FrameworkMode::Sidr, 2));
    assert!(err.is_err());
}

#[test]
fn unknown_variable_is_rejected() {
    let (file, _) = make_dataset("novar", &[16, 4], ValueModel::LinearIndex, 0);
    let q = StructuralQuery::new("nope", shape(&[16, 4]), shape(&[4, 4]), Operator::Mean).unwrap();
    let err = run_query(&file, &q, &RunOptions::new(FrameworkMode::Sidr, 2));
    assert!(err.is_err());
}

#[test]
fn partition_plus_balances_what_hash_skews() {
    // §4.3 in miniature on real key streams.
    let q = StructuralQuery::new("v", shape(&[60, 40]), shape(&[2, 4]), Operator::Mean).unwrap();
    let kspace = q.intermediate_space();
    let reducers = 22;
    let pp = PartitionPlus::for_query(&q, reducers).unwrap();
    let mut counts = vec![0u64; reducers];
    for kp in kspace.iter_coords() {
        use sidr_repro::mapreduce::Partitioner;
        counts[Partitioner::partition(&pp, &kp, reducers)] += 1;
    }
    let max = *counts.iter().max().unwrap();
    let min = *counts.iter().min().unwrap();
    assert!(
        max - min <= pp.partition().skew_shape().count(),
        "partition+ skew {max}-{min} exceeds one dealing unit"
    );
}
