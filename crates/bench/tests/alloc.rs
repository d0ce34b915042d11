//! Allocation invariants of the wire path, observed with the
//! counting allocator: the binary keyblock encoder makes O(1)
//! allocator calls per keyblock, the streaming merge holds
//! O(sources + one group) live bytes however many records it drains,
//! a SMOF encode is one exactly-sized buffer, the geometric map
//! kernel holds no more than its input and its output partitions, and
//! the admission pre-flight's allocations do not grow with `|K′ᵀ|`.
//!
//! One `#[test]` on purpose: the counters are process-global, so two
//! tests on parallel threads would count each other's allocations.

use std::sync::Arc;

use sidr_analyze::{analyze_spec, AnalyzeOptions};
use sidr_bench::{AllocScope, CountingAlloc};
use sidr_coords::{Coord, Shape, Slab};
use sidr_core::geomap::map_split;
use sidr_core::source::StructuralMapper;
use sidr_core::spec::JobSpec;
use sidr_core::{Operator, PartitionPlus, SidrPlanner, StructuralQuery};
use sidr_mapreduce::shuffle_file::{crc32, encode_map_output};
use sidr_mapreduce::{InputSplit, MapOutputFile, MergeIter, Smof3View};
use sidr_scifile::gen::{DatasetSpec, ValueModel};
use sidr_serve::binframe;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn key(k: usize) -> Coord {
    Coord::from([(k / 53) as u64, (k % 53) as u64])
}

/// `files` key-sorted SMOF v4 partitions where key `k` lands in
/// `overlap` consecutive files — every group spans several sources.
fn partitions(files: usize, keys: usize, overlap: usize) -> Vec<Arc<Vec<u8>>> {
    let mut per_file: Vec<Vec<(Coord, f64)>> = vec![Vec::new(); files];
    for k in 0..keys {
        for j in 0..overlap {
            per_file[(k + j) % files].push((key(k), (k * 31 + j) as f64));
        }
    }
    per_file
        .into_iter()
        .map(|mut records| {
            records.sort_by(|a, b| a.0.cmp(&b.0));
            let file = MapOutputFile {
                raw_count: records.len() as u64,
                records,
            };
            Arc::new(encode_map_output(&file).expect("encodes"))
        })
        .collect()
}

/// Peak live bytes of parsing `parts` and draining the merge over them.
fn merge_peak_live(parts: &[Arc<Vec<u8>>], expect_records: usize) -> u64 {
    let scope = AllocScope::start();
    let mut merge: MergeIter<Coord, f64> = MergeIter::new();
    for bytes in parts {
        let view = Smof3View::parse(Arc::clone(bytes))
            .expect("valid SMOF")
            .expect("v4 frame");
        merge.push_frame(view);
    }
    let mut records = 0;
    while let Some((_, vs)) = merge.next_group() {
        records += vs.len();
    }
    let (_bytes, _calls, peak) = scope.finish();
    assert_eq!(records, expect_records);
    peak
}

#[test]
fn wire_path_allocation_invariants() {
    // (a) One exactly-sized buffer per keyblock, whatever its size.
    let calls: Vec<u64> = [100, 1_000, 8_000, 100_000]
        .into_iter()
        .map(|n| {
            let records: Vec<(Coord, f64)> = (0..n).map(|i| (key(i), i as f64)).collect();
            let scope = AllocScope::start();
            let _frame = binframe::encode_keyblock(7, 3, 1500, &records).expect("uniform rank");
            scope.finish().1
        })
        .collect();
    assert!(
        calls.iter().all(|&c| c == calls[0]),
        "encode_keyblock allocator calls grow with keyblock size: {calls:?}"
    );

    // (b) The merge never materializes the keyspace: 50× the records
    // over the same k sources and group size stay under the same
    // per-source bound (measured: 10,304 bytes for 52 sources).
    let (files, overlap) = (52, 4);
    let small = merge_peak_live(&partitions(files, 2_000, overlap), 2_000 * overlap);
    let large = merge_peak_live(&partitions(files, 100_000, overlap), 100_000 * overlap);
    let bound = (512 * files + 64 * overlap) as u64;
    assert!(
        small <= bound && large <= bound,
        "merge peak live bytes {small} / {large} exceed {bound} for {files} sources"
    );

    // (c) One SMOF encode is one exactly-sized buffer: a single
    // allocator call, and nothing else live beside it at the peak.
    for n in [0, 3, 1_000, 100_000] {
        let file = MapOutputFile {
            records: (0..n).map(|i| (key(i), i as f64)).collect(),
            raw_count: n as u64,
        };
        let scope = AllocScope::start();
        let encoded = encode_map_output(&file).expect("uniform rank");
        let (_bytes, calls, peak) = scope.finish();
        assert_eq!(
            (calls, peak),
            (1, encoded.len() as u64),
            "encode_map_output of {n} records: (allocator calls, peak live bytes)"
        );
    }
    // ... and those bytes are the v4 layout, assembled by hand here:
    // three records in two runs, key (1, 7) holding two values.
    let rows: [(u64, u64, f64); 3] = [(0, 0, 1.5), (1, 7, -2.25), (1, 7, 0.0)];
    let mut body = Vec::new();
    // The run table: packed LE key words, then the cumulative end.
    for (x, y, end) in [(0u64, 0u64, 1u32), (1, 7, 3)] {
        body.extend_from_slice(&x.to_le_bytes());
        body.extend_from_slice(&y.to_le_bytes());
        body.extend_from_slice(&end.to_le_bytes());
    }
    // The values column: one LE f64 per record.
    for (_, _, v) in rows {
        body.extend_from_slice(&v.to_le_bytes());
    }
    let mut expected = b"SMOF".to_vec();
    expected.extend_from_slice(&4u32.to_le_bytes()); // version
    expected.extend_from_slice(&12u64.to_le_bytes()); // raw (§3.2.1 annotation)
    expected.extend_from_slice(&3u64.to_le_bytes()); // records
    expected.extend_from_slice(&2u32.to_le_bytes()); // runs
    expected.extend_from_slice(&16u32.to_le_bytes()); // key width: two u64 words
    expected.extend_from_slice(&8u32.to_le_bytes()); // value width: one f64
                                                     // The CRC covers the 36 header bytes so far, then the body.
    let crc = crc32(&[expected.as_slice(), &body].concat());
    expected.extend_from_slice(&crc.to_le_bytes());
    expected.extend_from_slice(&body);
    let file = MapOutputFile {
        records: rows
            .iter()
            .map(|&(x, y, v)| (Coord::from([x, y]), v))
            .collect(),
        raw_count: 12,
    };
    assert_eq!(encode_map_output(&file).expect("uniform rank"), expected);

    // (d) The map kernel holds the split's input between its count and
    // place passes and writes each value once, straight into its
    // partition: at its peak nothing else of size is live. A
    // fig.-8-shaped split, {7,5,1} keys over 4 reducers, no combiner.
    let space = Shape::new(vec![7, 50, 50]).expect("valid");
    let spec = DatasetSpec {
        variable: "v".into(),
        dim_names: vec!["t".into(), "y".into(), "x".into()],
        space: space.clone(),
        model: ValueModel::Uniform {
            lo: -50.0,
            hi: 50.0,
        },
        seed: 8,
    };
    let path = std::env::temp_dir().join(format!("sidr-alloc-map-{}.scinc", std::process::id()));
    let file = spec.generate::<f64>(&path).expect("generates");
    let extraction = Shape::new(vec![7, 5, 1]).expect("valid");
    let query =
        StructuralQuery::new("v", space.clone(), extraction, Operator::Median).expect("valid");
    let mapper = StructuralMapper::for_query(&query);
    let partition = PartitionPlus::for_query(&query, 4).expect("valid");
    let split = Slab::whole(&space);
    let scope = AllocScope::start();
    let out = map_split::<f64>(
        &file,
        "v",
        &split,
        &mapper,
        4,
        |k| partition.keyblock_of(k),
        None,
    )
    .expect("maps");
    let (_bytes, _calls, peak) = scope.finish();
    std::fs::remove_file(&path).ok();
    assert_eq!(out.partitions.len(), 4);
    let input = split.count() * 8;
    let output: u64 = out.partitions.iter().map(|(_, p)| p.len() as u64).sum();
    let bound = input + output + 64 * 1024;
    assert!(
        peak <= bound,
        "map_split peak live bytes {peak} exceed input {input} + output {output} + 64 KiB"
    );

    // (e) The admission pre-flight proves coverage and dependencies on
    // slabs — cover slabs, split slabs and split images — and visits no
    // key. Four times the keys over the same 8 splits and 4 reducers:
    // the same allocator calls and the same peak live bytes (measured:
    // 386 calls, 2,521 bytes).
    let runs: Vec<(u64, u64, u64)> = [50, 200]
        .into_iter()
        .map(|width| {
            let space = Shape::new(vec![56, 50, width]).expect("valid");
            let extraction = Shape::new(vec![7, 5, 1]).expect("valid");
            let query =
                StructuralQuery::new("v", space, extraction, Operator::Mean).expect("valid");
            let splits: Vec<InputSplit> = (0..8u64)
                .map(|i| InputSplit {
                    slab: Slab::new(
                        Coord::from([7 * i, 0, 0]),
                        Shape::new(vec![7, 50, width]).expect("valid"),
                    )
                    .expect("valid"),
                    byte_range: (0, 0),
                    preferred_nodes: Vec::new(),
                })
                .collect();
            let plan = SidrPlanner::new(&query, 4).build(&splits).expect("plans");
            let spec = JobSpec::from_plan(&query, &splits, &plan).expect("spec");
            let keys = query.intermediate_space().count();
            let scope = AllocScope::start();
            let report = analyze_spec(&spec, &AnalyzeOptions::default()).expect("analyzes");
            let (_bytes, calls, peak) = scope.finish();
            assert!(report.is_clean(), "unexpected findings:\n{report}");
            (keys, calls, peak)
        })
        .collect();
    assert_eq!(
        (runs[0].0, runs[1].0),
        (4_000, 16_000),
        "K′ᵀ keys at the two sizes"
    );
    assert!(
        runs[0].1 == runs[1].1 && runs[0].1 < 1_000,
        "analyze_spec allocator calls {} at {} keys, {} at {} keys",
        runs[0].1,
        runs[0].0,
        runs[1].1,
        runs[1].0
    );
    assert!(
        runs[0].2 == runs[1].2 && runs[0].2 <= 32 * 1024,
        "analyze_spec peak live bytes {} at {} keys, {} at {} keys",
        runs[0].2,
        runs[0].0,
        runs[1].2,
        runs[1].0
    );
}
