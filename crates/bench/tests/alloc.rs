//! Allocation invariants of the wire path, observed with the
//! counting allocator: the binary keyblock encoder makes O(1)
//! allocator calls per keyblock, the streaming merge holds
//! O(sources + one group) live bytes however many records it drains,
//! and a SMOF encode is one exactly-sized buffer.
//!
//! One `#[test]` on purpose: the counters are process-global, so two
//! tests on parallel threads would count each other's allocations.

use std::sync::Arc;

use sidr_bench::{AllocScope, CountingAlloc};
use sidr_coords::Coord;
use sidr_mapreduce::shuffle_file::{crc32, encode_map_output};
use sidr_mapreduce::{MapOutputFile, MergeIter, Smof3View};
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
}
