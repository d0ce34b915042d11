//! Cross-crate property tests: for randomized spaces, extraction
//! shapes, split layouts and reducer counts, the pillars of SIDR's
//! correctness argument hold:
//!
//! * all three framework modes produce the same output as brute force,
//! * derived dependencies are exact (match brute-force key tracing),
//! * annotation tallies equal the geometric expectation,
//! * partition+ assigns every key exactly once with bounded skew.

use proptest::prelude::*;

use sidr_repro::coords::{Coord, Shape};
use sidr_repro::core::deps;
use sidr_repro::core::framework::RunOptions;
use sidr_repro::core::{run_query, FrameworkMode, Operator, PartitionPlus, StructuralQuery};
use sidr_repro::mapreduce::SplitGenerator;
use sidr_repro::scifile::gen::{DatasetSpec, ValueModel};

/// Random (space, extraction) pair of rank 1-3 with extents 2-16 and
/// a fitting extraction shape.
fn space_and_extraction() -> impl Strategy<Value = (Shape, Shape)> {
    prop::collection::vec((2u64..=16, 1u64..=4), 1..=3).prop_map(|dims| {
        let space: Vec<u64> = dims.iter().map(|&(e, _)| e).collect();
        let ext: Vec<u64> = dims.iter().map(|&(e, t)| t.min(e)).collect();
        (Shape::new(space).unwrap(), Shape::new(ext).unwrap())
    })
}

fn operators() -> impl Strategy<Value = Operator> {
    prop_oneof![
        Just(Operator::Mean),
        Just(Operator::Median),
        Just(Operator::Min),
        Just(Operator::Max),
        Just(Operator::Count),
        Just(Operator::Filter { threshold: 0.5 }),
    ]
}

fn unique_path(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join("sidr-proptests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!(
        "{tag}-{}-{}.scinc",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn modes_agree_with_brute_force(
        (space, ext) in space_and_extraction(),
        op in operators(),
        reducers in 1usize..6,
        seed in 0u64..1000,
    ) {
        let spec = DatasetSpec {
            variable: "v".into(),
            dim_names: (0..space.rank()).map(|i| format!("d{i}")).collect(),
            space: space.clone(),
            model: ValueModel::Uniform { lo: 0.0, hi: 1.0 },
            seed,
        };
        let path = unique_path("modes");
        let file = spec.generate::<f64>(&path).unwrap();
        let Ok(q) = StructuralQuery::new("v", space.clone(), ext, op) else {
            std::fs::remove_file(&path).ok();
            return Ok(());
        };

        // Brute force.
        let mut expect: Vec<(Coord, f64)> = Vec::new();
        for kp in q.intermediate_space().iter_coords() {
            let vals: Vec<f64> = q.extraction.preimage_of_key(&kp).unwrap()
                .iter_coords().map(|k| spec.value_at(&k)).collect();
            for v in q.operator.apply(&vals) {
                expect.push((kp.clone(), v));
            }
        }
        expect.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));

        for mode in [FrameworkMode::Hadoop, FrameworkMode::SciHadoop, FrameworkMode::Sidr] {
            let mut opts = RunOptions::new(mode, reducers);
            opts.split_bytes = (space.extents()[1..].iter().product::<u64>() * 8 * 3).max(8);
            let mut got = run_query(&file, &q, &opts).unwrap().records;
            got.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
            prop_assert_eq!(got.len(), expect.len());
            for ((gk, gv), (ek, ev)) in got.iter().zip(&expect) {
                prop_assert_eq!(gk, ek);
                prop_assert!((gv - ev).abs() <= 1e-12 * ev.abs().max(1.0),
                    "{:?} {:?}: {} vs {}", mode, gk, gv, ev);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn derived_dependencies_are_exact(
        (space, ext) in space_and_extraction(),
        reducers in 1usize..8,
        n_splits in 1u64..10,
    ) {
        let Ok(q) = StructuralQuery::new("v", space.clone(), ext, Operator::Mean) else {
            return Ok(());
        };
        let pp = PartitionPlus::for_query(&q, reducers).unwrap();
        let splits = SplitGenerator::new(space, 8).exact_count(n_splits).unwrap();
        let mut inverted = vec![Vec::new(); reducers];
        for (m, split) in splits.iter().enumerate() {
            // Brute force: trace every key of the split.
            let mut expect: Vec<usize> = split.slab.iter_coords()
                .filter_map(|k| q.map_key(&k))
                .map(|kp| pp.partition().keyblock_of_key(&kp).unwrap())
                .collect();
            expect.sort_unstable();
            expect.dedup();
            let derived = deps::keyblocks_of_split(&q, &pp, &split.slab).unwrap();
            prop_assert_eq!(&derived, &expect, "split {}", m);
            expect.into_iter().for_each(|b| inverted[b].push(m));
        }
        // I_l is the inversion of the forward map.
        prop_assert_eq!(deps::derive(&q, &pp, &splits).unwrap(), inverted);
    }

    #[test]
    fn expected_raw_counts_match_actual_emission(
        (space, ext) in space_and_extraction(),
        reducers in 1usize..6,
    ) {
        use sidr_repro::core::SidrPlanner;
        use sidr_repro::mapreduce::Partitioner;
        let Ok(q) = StructuralQuery::new("v", space.clone(), ext, Operator::Mean) else {
            return Ok(());
        };
        let splits = SplitGenerator::new(space.clone(), 8).exact_count(4).unwrap();
        let plan = SidrPlanner::new(&q, reducers).build(&splits).unwrap();
        // Actual: count keys of the whole space that map into each block.
        let mut actual = vec![0u64; reducers];
        for k in space.iter_coords() {
            if let Some(kp) = q.map_key(&k) {
                actual[Partitioner::partition(&plan.partition, &kp, reducers)] += 1;
            }
        }
        for (r, &count) in actual.iter().enumerate() {
            prop_assert_eq!(plan.job.expected_raw(r), Some(count), "reducer {}", r);
        }
    }

    #[test]
    fn partition_plus_covers_once_with_bounded_skew(
        (space, ext) in space_and_extraction(),
        reducers in 1usize..9,
    ) {
        use sidr_repro::mapreduce::Partitioner;
        let Ok(q) = StructuralQuery::new("v", space, ext, Operator::Mean) else {
            return Ok(());
        };
        let pp = PartitionPlus::for_query(&q, reducers).unwrap();
        let kspace = q.intermediate_space();
        let mut counts = vec![0u64; reducers];
        for kp in kspace.iter_coords() {
            counts[Partitioner::partition(&pp, &kp, reducers)] += 1;
        }
        prop_assert_eq!(counts.iter().sum::<u64>(), kspace.count());
        let nonzero: Vec<u64> = counts.into_iter().filter(|&c| c > 0).collect();
        let max = *nonzero.iter().max().unwrap();
        let min = *nonzero.iter().min().unwrap();
        // Unclipped dealing units differ by at most one unit; clipped
        // edge units can shave at most one more unit's worth.
        prop_assert!(max - min <= 2 * pp.partition().skew_shape().count());
    }
}
