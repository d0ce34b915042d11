//! Cross-validation between the two execution stacks: for the same
//! query, mode and split layout, the discrete-event simulator's
//! structural quantities (map counts, shuffle connections, skipped
//! maps) must equal what the real threaded engine actually measures.
//! This pins the simulator — which regenerates the paper-scale
//! figures — to ground truth.

use sidr_repro::coords::Shape;
use sidr_repro::core::framework::RunOptions;
use sidr_repro::core::{run_query, FrameworkMode, Operator, StructuralQuery};
use sidr_repro::scifile::gen::{DatasetSpec, ValueModel};
use sidr_repro::simcluster::{build_sim_job, SimWorkload};

fn shape(v: &[u64]) -> Shape {
    Shape::new(v.to_vec()).unwrap()
}

fn dataset(name: &str, space: &Shape) -> sidr_repro::scifile::ScincFile {
    let spec = DatasetSpec {
        variable: "v".into(),
        dim_names: (0..space.rank()).map(|i| format!("d{i}")).collect(),
        space: space.clone(),
        model: ValueModel::LinearIndex,
        seed: 0,
    };
    let dir = std::env::temp_dir().join("sidr-crossval");
    std::fs::create_dir_all(&dir).unwrap();
    spec.generate::<f64>(dir.join(format!("{name}-{}.scinc", std::process::id())))
        .unwrap()
}

#[test]
fn simulator_structure_matches_real_engine() {
    let space = shape(&[96, 10, 10]);
    let file = dataset("struct", &space);
    let query =
        StructuralQuery::new("v", space.clone(), shape(&[4, 5, 5]), Operator::Mean).unwrap();
    // 8 leading rows per split.
    let split_bytes = 10 * 10 * 8 * 8;

    for mode in [FrameworkMode::SciHadoop, FrameworkMode::Sidr] {
        for reducers in [3usize, 7] {
            // Real engine.
            let mut opts = RunOptions::new(mode, reducers);
            opts.split_bytes = split_bytes;
            let real = run_query(&file, &query, &opts).unwrap();

            // Simulator job from the same planning inputs.
            let mut w = SimWorkload::new(query.clone(), mode, reducers);
            w.element_size = 8; // f64 file
            w.split_bytes = split_bytes;
            let sim = build_sim_job(&w).unwrap();

            assert_eq!(
                sim.maps.len(),
                real.num_maps,
                "{mode}/{reducers}: map counts diverge"
            );
            let sim_connections = match &sim.plan.reduce_deps {
                Some(deps) => deps.iter().map(|d| d.len() as u64).sum(),
                None => (sim.maps.len() * sim.plan.num_reducers()) as u64,
            };
            assert_eq!(
                sim_connections, real.result.counters.shuffle_connections,
                "{mode}/{reducers}: connection counts diverge"
            );
        }
    }
}

#[test]
fn simulator_and_engine_agree_on_skipped_maps() {
    // Trailing discarded region: space {52, 8} with extraction {8, 8}
    // discards rows 48..52; with 4-row splits the last split is
    // entirely discarded.
    let space = shape(&[52, 8]);
    let file = dataset("skip", &space);
    let query = StructuralQuery::new("v", space.clone(), shape(&[8, 8]), Operator::Mean).unwrap();
    // One extraction instance (8 rows x 8 cols of f64) per split: the
    // final 4-row split lies entirely in the discarded region.
    let split_bytes = 8 * 8 * 8;

    let mut opts = RunOptions::new(FrameworkMode::Sidr, 3);
    opts.split_bytes = split_bytes;
    let real = run_query(&file, &query, &opts).unwrap();

    let mut w = SimWorkload::new(query, FrameworkMode::Sidr, 3);
    w.element_size = 8;
    w.split_bytes = split_bytes;
    let sim = build_sim_job(&w).unwrap();
    let sim_skipped = {
        let mut needed = vec![false; sim.maps.len()];
        for &m in sim.plan.reduce_deps.iter().flatten().flatten() {
            needed[m] = true;
        }
        needed.iter().filter(|&&n| !n).count() as u64
    };
    assert_eq!(real.result.counters.maps_skipped, sim_skipped);
    assert!(
        sim_skipped >= 1,
        "the all-discarded split should be skipped"
    );
}
