//! Sub-region queries: the query's input set `T` as a corner+shape
//! slab within the variable (§2.1), end-to-end across all three
//! frameworks.

use sidr_repro::coords::{Coord, Shape, Slab};
use sidr_repro::core::framework::{generate_splits, RunOptions};
use sidr_repro::core::{run_query, FrameworkMode, Operator, StructuralQuery};
use sidr_repro::scifile::gen::{DatasetSpec, ValueModel};

fn shape(v: &[u64]) -> Shape {
    Shape::new(v.to_vec()).unwrap()
}

fn slab(corner: &[u64], sh: &[u64]) -> Slab {
    Slab::new(Coord::from(corner), shape(sh)).unwrap()
}

fn dataset(name: &str, space: &Shape) -> (sidr_repro::scifile::ScincFile, DatasetSpec) {
    let spec = DatasetSpec {
        variable: "v".into(),
        dim_names: (0..space.rank()).map(|i| format!("d{i}")).collect(),
        space: space.clone(),
        model: ValueModel::LinearIndex,
        seed: 0,
    };
    let dir = std::env::temp_dir().join("sidr-region-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let file = spec
        .generate::<f64>(dir.join(format!("{name}-{}.scinc", std::process::id())))
        .unwrap();
    (file, spec)
}

#[test]
fn region_query_reads_only_the_region_and_is_correct() {
    let space = shape(&[40, 12]);
    let (file, spec) = dataset("correct", &space);
    // T = corner {8, 2}, shape {24, 8}; weekly-ish 4x4 units.
    let region = slab(&[8, 2], &[24, 8]);
    let q =
        StructuralQuery::over_region("v", &space, region.clone(), shape(&[4, 4]), Operator::Sum)
            .unwrap();
    assert_eq!(q.intermediate_space(), shape(&[6, 2]));

    // Ground truth from absolute preimages.
    let mut expect = Vec::new();
    for kp in q.intermediate_space().iter_coords() {
        let pre = q.preimage_of_key(&kp).unwrap();
        assert!(region.contains_slab(&pre), "preimage {pre} outside region");
        let sum: f64 = pre.iter_coords().map(|k| spec.value_at(&k)).sum();
        expect.push((kp, sum));
    }

    for mode in [
        FrameworkMode::Hadoop,
        FrameworkMode::SciHadoop,
        FrameworkMode::Sidr,
    ] {
        let mut opts = RunOptions::new(mode, 3);
        opts.split_bytes = 8 * 8 * 8; // 8 region rows x 8 cols of f64
        let got = run_query(&file, &q, &opts).unwrap();
        assert_eq!(got.records.len(), expect.len(), "{mode}");
        for ((gk, gv), (ek, ev)) in got.records.iter().zip(&expect) {
            assert_eq!(gk, ek, "{mode}");
            assert!((gv - ev).abs() < 1e-9, "{mode}: {gk}");
        }
        // Only the region's records were read.
        assert_eq!(got.result.counters.map_records_in, region.count(), "{mode}");
    }
}

#[test]
fn region_splits_stay_inside_the_region() {
    let space = shape(&[64, 10]);
    let (file, _) = dataset("splits", &space);
    let region = slab(&[16, 0], &[32, 10]);
    let q =
        StructuralQuery::over_region("v", &space, region.clone(), shape(&[8, 5]), Operator::Mean)
            .unwrap();
    for mode in [FrameworkMode::Hadoop, FrameworkMode::Sidr] {
        let splits = generate_splits(&file, &q, mode, 10 * 8 * 8).unwrap();
        assert!(splits.len() > 1);
        let total: u64 = splits.iter().map(|s| s.slab.count()).sum();
        assert_eq!(total, region.count(), "{mode}");
        for s in &splits {
            assert!(region.contains_slab(&s.slab), "{mode}: {}", s.slab);
        }
    }
}

#[test]
fn region_exceeding_variable_is_rejected() {
    let space = shape(&[20, 10]);
    let (file, _) = dataset("reject", &space);
    let q = StructuralQuery::over_region(
        "v",
        &shape(&[30, 10]), // claims a larger variable space
        slab(&[16, 0], &[14, 10]),
        shape(&[2, 2]),
        Operator::Mean,
    )
    .unwrap();
    assert!(run_query(&file, &q, &RunOptions::new(FrameworkMode::Sidr, 2)).is_err());
    // And constructing a region outside the claimed space fails early.
    assert!(StructuralQuery::over_region(
        "v",
        &shape(&[20, 10]),
        slab(&[16, 0], &[14, 10]),
        shape(&[2, 2]),
        Operator::Mean,
    )
    .is_err());
}

#[test]
fn whole_space_region_is_equivalent_to_plain_query() {
    let space = shape(&[24, 8]);
    let (file, _) = dataset("whole", &space);
    let plain = StructuralQuery::new("v", space.clone(), shape(&[4, 4]), Operator::Mean).unwrap();
    let region_q = StructuralQuery::over_region(
        "v",
        &space,
        Slab::whole(&space),
        shape(&[4, 4]),
        Operator::Mean,
    )
    .unwrap();
    let opts = RunOptions::new(FrameworkMode::Sidr, 2);
    let a = run_query(&file, &plain, &opts).unwrap();
    let b = run_query(&file, &region_q, &opts).unwrap();
    assert_eq!(a.records, b.records);
}
