//! §4.3's intermediate-key-skew pathology: corner-coordinate keys
//! under the stock hash starve reducers, while SIDR's `partition+`
//! over normalized keys, run on the real threaded engine, stays
//! balanced (the fig13 binary reproduces it at paper scale on the
//! simulator).

use sidr_coords::{Coord, Shape};
use sidr_core::framework::{run_spec_on_pool, SpecRunOptions};
use sidr_core::spec::JobSpec;
use sidr_core::{Operator, SidrPlanner, StructuralQuery};
use sidr_mapreduce::{CoordHashPartitioner, InMemoryOutput, Partitioner, SlotPool, SplitGenerator};
use sidr_scifile::gen::{DatasetSpec, ValueModel};

const REDUCERS: usize = 22;

fn shape(v: &[u64]) -> Shape {
    Shape::new(v.to_vec()).unwrap()
}

fn per_reducer_records(output: &InMemoryOutput<Coord, f64>) -> Vec<usize> {
    let mut counts = vec![0usize; REDUCERS];
    for c in output.commits() {
        counts[c.reducer] += c.records.len();
    }
    counts
}

/// The key a SciHadoop query author naturally names an output
/// position by: its instance's *corner coordinate* in `K`, `k′ ·
/// stride` — the key pattern ("coordinates at fixed intervals") whose
/// binary representation defeats hash-modulo partitioning (§4.3).
fn corner_key(q: &StructuralQuery, k_prime: &Coord) -> Coord {
    k_prime.component_mul(q.extraction.stride()).unwrap()
}

#[test]
fn corner_keys_starve_reducers_under_hash_but_not_under_partition_plus() {
    // Even-sided extraction {2, 4} → all corner coordinates even.
    let space = shape(&[80, 44]);
    let spec = DatasetSpec {
        variable: "v".into(),
        dim_names: vec!["d0".into(), "d1".into()],
        space: space.clone(),
        model: ValueModel::LinearIndex,
        seed: 0,
    };
    let dir = std::env::temp_dir().join("sidr-skew-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("skew-{}.scinc", std::process::id()));
    let file = spec.generate::<f64>(&path).unwrap();

    let q = StructuralQuery::new("v", space.clone(), shape(&[2, 4]), Operator::Mean).unwrap();
    let splits = SplitGenerator::new(space, 8).exact_count(10).unwrap();

    // Stock: corner keys + hash-modulo. A mean emits one record per
    // key, so each reducer gets as many records as keys.
    let mut stock = vec![0usize; REDUCERS];
    for k_prime in q.intermediate_space().iter_coords() {
        stock[CoordHashPartitioner.partition(&corner_key(&q, &k_prime), REDUCERS)] += 1;
    }
    let starved = stock.iter().filter(|&&c| c == 0).count();
    assert!(
        starved >= REDUCERS / 2,
        "hash over all-even corner keys should starve >= half the reducers: {stock:?}"
    );
    let busiest = *stock.iter().max().unwrap() as f64;
    let mean = stock.iter().sum::<usize>() as f64 / REDUCERS as f64;
    assert!(
        busiest > 1.8 * mean,
        "overloaded reducers should see ~2x the mean: busiest {busiest}, mean {mean}"
    );

    // SIDR: partition+ over normalized keys — balanced.
    let sidr_output = InMemoryOutput::new();
    let sidr_plan = SidrPlanner::new(&q, REDUCERS).build(&splits).unwrap();
    let job = JobSpec::from_plan(&q, &splits, &sidr_plan).unwrap();
    let pool = SlotPool::new(4, 3).unwrap();
    let opts = SpecRunOptions::default();
    run_spec_on_pool(&file, &job, &opts, &sidr_output, &pool, None).unwrap();
    let sidr = per_reducer_records(&sidr_output);
    assert_eq!(sidr.iter().filter(|&&c| c == 0).count(), 0, "{sidr:?}");
    let max = *sidr.iter().max().unwrap();
    let min = *sidr.iter().min().unwrap();
    assert!(
        (max - min) as u64 <= sidr_plan.partition.partition().skew_shape().count(),
        "partition+ skew beyond one dealing unit: {sidr:?}"
    );

    // Both produce the same *number* of output keys (the stock keys
    // are corner-scaled but 1:1 with SIDR's).
    assert_eq!(stock.iter().sum::<usize>(), sidr.iter().sum::<usize>());
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn strided_corner_keys_use_stride_spacing() {
    // With a stride, corner coordinates step by the stride, not the
    // tile.
    let space = shape(&[40]);
    let q =
        StructuralQuery::with_stride("v", space, shape(&[2]), vec![10], Operator::Mean).unwrap();
    let keys: Vec<u64> = (0..40u64)
        .filter_map(|i| q.map_key(&Coord::from([i])))
        .map(|k_prime| corner_key(&q, &k_prime)[0])
        .collect();
    assert_eq!(keys, vec![0, 0, 10, 10, 20, 20, 30, 30]);
}
