//! The geometric map kernel is the per-record map, byte for byte.
//!
//! For random geometries — rank 1–4, strided and unstrided extractions
//! with discarded partial instances, a query region off the origin, a
//! `Filter`'s map-side selection, distributive folds, Mean, Median and
//! Percentile finishing the units a split holds whole, every element
//! type, misaligned splits and any reducer count — and under both routes (SIDR's `partition+`
//! and the stock hash of Hadoop and SciHadoop), `geomap::map_split`
//! must produce exactly the `(reducer, bytes)` that [`per_record`] —
//! the structural map record by record, then `encode_map_output` —
//! produces under the same partition function, with the same record
//! tallies and raw-count annotations. `per_record` is the kernel's
//! reference and lives only here.

use proptest::prelude::*;
use sidr_coords::{Coord, Shape, Slab};
use sidr_core::geomap::map_split;
use sidr_core::source::{ScincRecordSource, StructuralMapper};
use sidr_core::{MapAttemptOutput, Operator, PartitionPlus, StructuralQuery};
use sidr_mapreduce::shuffle_file::encode_map_output;
use sidr_mapreduce::{
    CoordHashPartitioner, InputSplit, MapOutputFile, Partitioner, RecordSource, Smof3View,
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
    dtype: u8,
    seed: u64,
}

fn case() -> impl Strategy<Value = Case> {
    (1usize..=4, prop::collection::vec(any::<u64>(), 40)).prop_map(|(rank, draws)| {
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
            Operator::Percentile {
                p: draw(101) as f64,
            },
            filter(draw(1000) as f64 / 1000.0),
        ];
        Case {
            space,
            extraction,
            gap,
            region,
            split_corner,
            split_shape,
            operator: operators[draw(operators.len() as u64) as usize],
            reducers: 1 + draw(7) as usize,
            dtype: draw(4) as u8,
            seed: draw(u64::MAX),
        }
    })
}

/// A filter passing `value > threshold`, the threshold a `fraction` of
/// the way through the value range.
fn filter(fraction: f64) -> Operator {
    Operator::Filter {
        threshold: -LO + fraction * (HI + LO),
    }
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

/// The structural map, record by record: every record of `split`, read
/// through a `ScincRecordSource`, that lies in the query region is
/// translated into the region's frame and mapped through the extraction
/// to its `K′` key; one in a discarded partial instance or a stride gap
/// maps to nothing. Returns the records read and the `(K′ key, value)`
/// pairs mapped, in reader order, before any selection.
fn structural_map<E: Element>(
    file: &ScincFile,
    split: &InputSplit,
    query: &StructuralQuery,
) -> (u64, Vec<(Coord, f64)>) {
    let mut source = ScincRecordSource::<E>::open(file, "v", split).unwrap();
    let corner = query.region().corner().clone();
    let (mut records_in, mut emitted) = (0, Vec::new());
    while let Some((key, value)) = source.next_record().unwrap() {
        records_in += 1;
        let Ok(rel) = key.checked_sub(&corner) else {
            continue; // below the region's corner
        };
        if !query.input_space().contains(&rel) {
            continue; // beyond the region's extent
        }
        if let Ok(Some(k_prime)) = query.extraction.map_key(&rel) {
            emitted.push((k_prime, value));
        }
    }
    (records_in, emitted)
}

/// The kernel's reference: [`structural_map`] routed by `partition`;
/// under a `Filter`, only the values above its threshold kept; each
/// reducer's pairs stably sorted by key; under a distributive operator,
/// each key's run folded with `Operator::reduce_group`, and under Mean,
/// Median or Percentile, each run of a whole unit — all
/// `fold_in_count` of its pairs — finished with it. Each partition that
/// pairs were mapped to is encoded, its raw-pair annotation counting
/// them all, kept or not.
fn per_record<E: Element>(
    file: &ScincFile,
    split: &InputSplit,
    query: &StructuralQuery,
    partition: &dyn Partitioner<Coord>,
    reducers: usize,
) -> MapAttemptOutput {
    let (records_in, emitted) = structural_map::<E>(file, split, query);
    let records_out = emitted.len() as u64;
    let mut parts = vec![Vec::new(); reducers];
    for (k_prime, value) in emitted {
        parts[partition.partition(&k_prime, reducers)].push((k_prime, value));
    }
    let op = query.operator;
    let finishes = matches!(
        op,
        Operator::Mean | Operator::Median | Operator::Percentile { .. }
    );
    let reduced = |run: &[(Coord, f64)]| {
        op.is_distributive() || (finishes && run.len() as u64 == query.fold_in_count())
    };
    let partitions = (parts.into_iter().enumerate())
        .filter(|(_, records)| !records.is_empty())
        .map(|(r, mut records)| {
            let raw_count = records.len() as u64;
            if let Operator::Filter { threshold } = op {
                records.retain(|&(_, v)| v > threshold);
            }
            records.sort_by(|a, b| a.0.cmp(&b.0));
            records = (records.chunk_by(|a, b| a.0 == b.0))
                .flat_map(|run| {
                    if !reduced(run) {
                        return run.to_vec();
                    }
                    let mut values: Vec<f64> = run.iter().map(|&(_, v)| v).collect();
                    let mut out = Vec::new();
                    op.reduce_group(&mut values, &mut |v| out.push(v));
                    assert_eq!(out.len(), 1, "{op:?} reduces a run to one value");
                    vec![(run[0].0.clone(), out[0])]
                })
                .collect();
            let file = MapOutputFile { records, raw_count };
            (r, encode_map_output(&file).unwrap())
        })
        .collect();
    MapAttemptOutput {
        partitions,
        records_in,
        records_out,
    }
}

/// Both map paths over one case, under both routes; panics with the
/// case on a mismatch.
fn check<E: Element>(c: &Case, file: &ScincFile) {
    let query = query(c);
    let mapper = StructuralMapper::for_query(&query);
    let partition = PartitionPlus::for_query(&query, c.reducers).unwrap();
    let n = c.reducers;
    let reference =
        |p: &dyn Partitioner<Coord>, split: &InputSplit| per_record::<E>(file, split, &query, p, n);
    check_route::<E>(
        c,
        file,
        &mapper,
        &|split| reference(&partition, split),
        &|k| partition.keyblock_of(k),
        "partition+",
    );
    let hash_route = |k: &[u64]| CoordHashPartitioner::keyblock_of(k, n);
    check_route::<E>(
        c,
        file,
        &mapper,
        &|split| reference(&CoordHashPartitioner, split),
        &hash_route,
        "hash",
    );
}

/// Both map paths over one case under one route: `reference` maps
/// record by record, routed by the route's `Partitioner`, and
/// `keyblock_of` routes the kernel.
fn check_route<E: Element>(
    c: &Case,
    file: &ScincFile,
    mapper: &StructuralMapper,
    reference: &dyn Fn(&InputSplit) -> MapAttemptOutput,
    keyblock_of: &dyn Fn(&[u64]) -> usize,
    route: &str,
) {
    let split = InputSplit {
        slab: Slab::new(Coord::new(c.split_corner.clone()), shape(&c.split_shape)).unwrap(),
    };

    let per_record = reference(&split);

    let kernel = map_split::<E>(
        file,
        "v",
        &split.slab,
        mapper,
        c.reducers,
        keyblock_of,
        c.operator,
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
        "{route} partitions: {c:?}"
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
        dtype: 3,
        seed: 11,
    });
}

/// The benchmark's geometry in miniature: a fig.-8-shaped split read
/// in 7 chunks of 6 or 5 rows along dimension 1, which cut four of its
/// eight 5-row tile rows, so half the keys' values span two chunks and
/// the count and place passes must agree on reader order across them.
/// With and without a combiner, every key finished whole, and with a
/// filter's selection, under both routes.
#[test]
fn fig8_shaped_split_with_keys_across_chunks() {
    let p90 = Operator::Percentile { p: 90.0 };
    for operator in [
        Operator::Median,
        Operator::Mean,
        p90,
        Operator::Max,
        filter(0.5),
    ] {
        run(&Case {
            space: vec![14, 40, 10],
            extraction: vec![7, 5, 1],
            gap: vec![0, 0, 0],
            region: None,
            split_corner: vec![7, 0, 0],
            split_shape: vec![7, 40, 10],
            operator,
            reducers: 5,
            dtype: 3,
            seed: 48,
        });
    }
}

/// A split that holds the first tile row of its instances whole and
/// cuts the second: each partition finishes the whole keys and places
/// the cut ones' values, key order interleaving the two.
#[test]
fn split_mixing_whole_and_cut_units() {
    for operator in [Operator::Median, Operator::Mean] {
        run(&Case {
            space: vec![14, 40, 10],
            extraction: vec![7, 5, 1],
            gap: vec![0, 0, 0],
            region: None,
            split_corner: vec![0, 0, 0],
            split_shape: vec![10, 40, 10],
            operator,
            reducers: 3,
            dtype: 2,
            seed: 5,
        });
    }
}

/// Splits holding at least 17 whole keys, so the finish step selects a
/// full block of sixteen units and then a partial one: Median at odd
/// (5) and even (6) unit sizes, and Percentile; and a unit of 147
/// values, past the network's cut, finished one unit at a time.
#[test]
fn whole_keys_fill_a_block_and_part_of_the_next() {
    let p75 = Operator::Percentile { p: 75.0 };
    for (space, extraction, operator) in [
        (vec![5, 6, 5], vec![5, 1, 1], Operator::Median),
        (vec![5, 6, 5], vec![2, 3, 1], Operator::Median),
        (vec![5, 6, 5], vec![5, 1, 1], p75),
        (vec![5, 6, 5], vec![2, 3, 1], p75),
        (vec![3, 14, 7], vec![3, 7, 7], Operator::Median),
    ] {
        run(&Case {
            split_shape: space.clone(),
            space,
            extraction,
            gap: vec![0, 0, 0],
            region: None,
            split_corner: vec![0, 0, 0],
            operator,
            reducers: 3,
            dtype: 2,
            seed: 17,
        });
    }
}

/// The structural map translates each key through the extraction and
/// drops the keys of a discarded partial instance.
#[test]
fn structural_map_translates_and_drops() {
    let spec = DatasetSpec {
        variable: "v".into(),
        dim_names: vec!["d0".into()],
        space: shape(&[10]),
        model: ValueModel::LinearIndex,
        seed: 0,
    };
    let dir = std::env::temp_dir().join("sidr-geomap-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("translate-{}.scinc", std::process::id()));
    let file = spec.generate::<f64>(&path).unwrap();
    let query = StructuralQuery::new("v", shape(&[10]), shape(&[4]), Operator::Mean).unwrap();
    let split = InputSplit {
        slab: Slab::whole(&shape(&[10])),
    };
    let (records_in, out) = structural_map::<f64>(&file, &split, &query);
    std::fs::remove_file(&path).ok();
    assert_eq!(records_in, 10);
    // Keys 0..8 map to instances 0 and 1; keys 8..10 discarded.
    assert_eq!(out.len(), 8);
    assert!(out[..4].iter().all(|(k, _)| k == &Coord::from([0])));
    assert!(out[4..].iter().all(|(k, _)| k == &Coord::from([1])));
}
