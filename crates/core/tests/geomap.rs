//! The geometric map kernel is the per-record map path, byte for byte.
//!
//! For random geometries — rank 1–4, strided and unstrided extractions
//! with discarded partial instances, a query region off the origin,
//! filter push-down, every element type, misaligned splits and any
//! reducer count — and under both routes (SIDR's `partition+` and the
//! stock hash of Hadoop and SciHadoop), `geomap::map_split` must
//! produce exactly the `(reducer, bytes)` that `run_map_attempt` (the
//! per-record map, then `encode_map_output`) over a `StructuralMapper`
//! and the same partition function produces, with the same record
//! tallies and raw-count annotations.

use proptest::prelude::*;
use sidr_coords::{Coord, Shape, Slab};
use sidr_core::geomap::map_split;
use sidr_core::source::{ScincRecordSource, StructuralMapper};
use sidr_core::{Operator, PartitionPlus, StructuralQuery};
use sidr_mapreduce::{
    run_map_attempt, Combiner, CoordHashPartitioner, DefaultPlan, InputSplit, RoutingPlan,
    Smof3View,
};
use sidr_scifile::gen::{DatasetSpec, ValueModel};
use sidr_scifile::{Element, ScincFile};

/// One drawn case: the variable's space, the query, the split and how
/// the map side is configured.
#[derive(Clone, Debug)]
struct Case {
    space: Vec<u64>,
    extraction: Vec<u64>,
    /// Per-dimension gap added to the extraction shape (all zero:
    /// unstrided).
    gap: Vec<u64>,
    /// Query region corner and extent (ignored when strided).
    region: Option<(Vec<u64>, Vec<u64>)>,
    split_corner: Vec<u64>,
    split_shape: Vec<u64>,
    operator: Operator,
    reducers: usize,
    /// Push down `value > threshold`, as a fraction of the value range.
    pushdown: Option<f64>,
    dtype: u8,
    seed: u64,
}

fn case() -> impl Strategy<Value = Case> {
    (1usize..=4, prop::collection::vec(any::<u64>(), 32)).prop_map(|(rank, draws)| {
        let mut draws = draws.into_iter();
        let mut draw = |n: u64| draws.next().expect("enough draws") % n;
        let space: Vec<u64> = (0..rank).map(|_| 2 + draw(8)).collect();
        // Extraction shapes must fit the query's input space.
        let extraction: Vec<u64> = space.iter().map(|&s| (1 + draw(3)).min(s)).collect();
        let (strided, regioned) = (draw(2) == 1, draw(2) == 1);
        let gap = (0..rank)
            .map(|_| if strided { draw(3) } else { 0 })
            .collect();
        let region = (regioned && !strided).then(|| {
            let (mut corner, mut extent) = (Vec::new(), Vec::new());
            for d in 0..rank {
                let c = draw(space[d] - extraction[d] + 1);
                corner.push(c);
                extent.push(extraction[d] + draw(space[d] - c - extraction[d] + 1));
            }
            (corner, extent)
        });
        let (mut split_corner, mut split_shape) = (Vec::new(), Vec::new());
        for &s in &space {
            let c = draw(s);
            split_corner.push(c);
            split_shape.push(1 + draw(s - c));
        }
        let operators = [
            Operator::Min,
            Operator::Max,
            Operator::Sum,
            Operator::Median,
            Operator::Mean,
        ];
        Case {
            space,
            extraction,
            gap,
            region,
            split_corner,
            split_shape,
            operator: operators[draw(5) as usize],
            reducers: 1 + draw(7) as usize,
            pushdown: (draw(3) == 0).then(|| draw(1000) as f64 / 1000.0),
            dtype: draw(4) as u8,
            seed: draw(u64::MAX),
        }
    })
}

fn shape(v: &[u64]) -> Shape {
    Shape::new(v.to_vec()).unwrap()
}

fn query(c: &Case) -> StructuralQuery {
    match &c.region {
        Some((corner, extent)) => StructuralQuery::over_region(
            "v",
            &shape(&c.space),
            Slab::new(Coord::new(corner.clone()), shape(extent)).unwrap(),
            shape(&c.extraction),
            c.operator,
        )
        .unwrap(),
        None => {
            let stride = c.extraction.iter().zip(&c.gap).map(|(e, g)| e + g);
            StructuralQuery::with_stride(
                "v",
                shape(&c.space),
                shape(&c.extraction),
                stride.collect(),
                c.operator,
            )
            .unwrap()
        }
    }
}

/// Values in `[-LO, HI)`: negative and positive, and distinct enough
/// that the order of a floating-point sum shows in its bits.
const LO: f64 = 500.0;
const HI: f64 = 1500.0;

/// Both map paths over one case, under both routes; panics with the
/// case on a mismatch.
fn check<E: Element>(c: &Case, file: &ScincFile) {
    let query = query(c);
    let mut mapper = StructuralMapper::for_query(&query);
    if let Some(fraction) = c.pushdown {
        mapper = mapper.push_down_filter(-LO + fraction * (HI + LO));
    }
    let partition = PartitionPlus::for_query(&query, c.reducers).unwrap();
    let n = c.reducers;
    let sidr = DefaultPlan::new(partition.clone(), n);
    check_route::<E>(
        c,
        file,
        &mapper,
        &sidr,
        &|k| partition.keyblock_of(k),
        "partition+",
    );
    let hash = DefaultPlan::new(CoordHashPartitioner, n);
    let hash_route = |k: &[u64]| CoordHashPartitioner::keyblock_of(k, n);
    check_route::<E>(c, file, &mapper, &hash, &hash_route, "hash");
}

/// Both map paths over one case under one route: `plan` routes the
/// per-record path, `keyblock_of` the kernel.
fn check_route<E: Element>(
    c: &Case,
    file: &ScincFile,
    mapper: &StructuralMapper,
    plan: &dyn RoutingPlan<Coord>,
    keyblock_of: &dyn Fn(&[u64]) -> usize,
    route: &str,
) {
    let combiner = c.operator.combiner();
    let combiner = combiner
        .as_ref()
        .map(|c| c as &dyn Combiner<Key = Coord, Value = f64>);
    let split = InputSplit {
        slab: Slab::new(Coord::new(c.split_corner.clone()), shape(&c.split_shape)).unwrap(),
        byte_range: (0, 0),
        preferred_nodes: Vec::new(),
    };

    let per_record = run_map_attempt(
        0,
        0,
        None,
        || ScincRecordSource::<E>::open(file, "v", &split),
        mapper,
        combiner,
        plan,
        &|_| true,
    )
    .unwrap();

    let kernel = map_split::<E>(
        file,
        "v",
        &split.slab,
        mapper,
        c.reducers,
        keyblock_of,
        combiner,
    )
    .unwrap();
    assert_eq!(
        kernel.records_in, per_record.records_in,
        "{route} records_in: {c:?}"
    );
    assert_eq!(
        kernel.records_out, per_record.records_out,
        "{route} records_out: {c:?}"
    );
    let reducers = |p: &[(usize, Vec<u8>)]| p.iter().map(|(r, _)| *r).collect::<Vec<_>>();
    assert_eq!(
        reducers(&kernel.partitions),
        reducers(&per_record.partitions),
        "{route} non-empty partitions: {c:?}"
    );
    for ((r, got), (_, want)) in kernel.partitions.iter().zip(&per_record.partitions) {
        let raw = |b: &Vec<u8>| {
            Smof3View::<Coord, f64>::parse(std::sync::Arc::new(b.clone()))
                .unwrap()
                .expect("a v3 buffer")
                .raw_count()
        };
        assert_eq!(raw(got), raw(want), "{route} reducer {r} annotation: {c:?}");
        assert!(got == want, "{route} reducer {r} bytes differ: {c:?}");
    }
}

fn run(c: &Case) {
    let spec = DatasetSpec {
        variable: "v".into(),
        dim_names: (0..c.space.len()).map(|d| format!("d{d}")).collect(),
        space: shape(&c.space),
        model: ValueModel::Uniform { lo: -LO, hi: HI },
        seed: c.seed,
    };
    let dir = std::env::temp_dir().join("sidr-geomap-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("case-{}-{}.scinc", std::process::id(), c.seed));
    match c.dtype {
        0 => check::<i32>(c, &spec.generate::<i32>(&path).unwrap()),
        1 => check::<i64>(c, &spec.generate::<i64>(&path).unwrap()),
        2 => check::<f32>(c, &spec.generate::<f32>(&path).unwrap()),
        _ => check::<f64>(c, &spec.generate::<f64>(&path).unwrap()),
    }
    std::fs::remove_file(&path).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn kernel_bytes_equal_the_per_record_path(c in case()) {
        run(&c);
    }
}

/// A split whose longest dimension is not the leading one is read in
/// chunk-major order; a sum over a key whose values span chunks must
/// still add them in that order.
#[test]
fn chunk_major_order_reaches_the_sum() {
    run(&Case {
        space: vec![4, 200],
        extraction: vec![4, 200],
        gap: vec![0, 0],
        region: None,
        split_corner: vec![0, 0],
        split_shape: vec![4, 200],
        operator: Operator::Sum,
        reducers: 1,
        pushdown: None,
        dtype: 3,
        seed: 11,
    });
}
