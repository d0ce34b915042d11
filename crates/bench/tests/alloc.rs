//! Allocation invariants of the wire path, observed with the
//! counting allocator: the binary keyblock encoder makes O(1)
//! allocator calls per keyblock, and the streaming merge holds
//! O(sources + one group) live bytes however many records it drains.
//!
//! One `#[test]` on purpose: the counters are process-global, so two
//! tests on parallel threads would count each other's allocations.

use std::sync::Arc;

use sidr_bench::{AllocScope, CountingAlloc};
use sidr_coords::Coord;
use sidr_mapreduce::shuffle_file::encode_map_output;
use sidr_mapreduce::{MapOutputFile, MergeIter, Smof3View};
use sidr_serve::binframe;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn key(k: usize) -> Coord {
    Coord::from([(k / 53) as u64, (k % 53) as u64])
}

/// `files` key-sorted SMOF v3 partitions where key `k` lands in
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
            .expect("v3 frame");
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
}
