//! Equivalence properties for the streaming k-way merge: over random
//! sets of key-sorted runs — duplicate keys spanning files, runs of
//! duplicates inside one file, empty files, empty inputs — the
//! [`MergeIter`] pipeline produces byte-for-byte the output of the
//! legacy flatten-clone-stable-sort merge it replaced, group ordering
//! included. The merge reads each file as a zero-copy SMOF v3 view.

use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::Arc;

use sidr_mapreduce::shuffle_file::encode_map_output;
use sidr_mapreduce::{GroupBatch, MapOutputFile, MergeIter, Smof3View};

/// The seed implementation `MergeIter` replaced, kept verbatim as the
/// reference: clone everything, stable-sort the concatenation, group.
/// Stability makes equal keys deliver in (file order, record order) —
/// the contract the streaming merge must preserve.
fn legacy_merge(files: &[Arc<MapOutputFile<u64, u32>>]) -> Vec<(u64, Vec<u32>)> {
    let mut all: Vec<(u64, u32)> = files
        .iter()
        .flat_map(|f| f.records.iter().cloned())
        .collect();
    all.sort_by_key(|a| a.0);
    let mut out: Vec<(u64, Vec<u32>)> = Vec::new();
    for (k, v) in all {
        match out.last_mut() {
            Some((lk, vs)) if *lk == k => vs.push(v),
            _ => out.push((k, vec![v])),
        }
    }
    out
}

/// Each file encoded and opened as a zero-copy view, in file order.
fn views(files: &[Arc<MapOutputFile<u64, u32>>]) -> Vec<Smof3View<u64, u32>> {
    (files.iter())
        .map(|f| Smof3View::open(Arc::new(encode_map_output(f).unwrap())).unwrap())
        .collect()
}

/// A merge over `views`, cursors opened in order.
fn merge_of(views: &[Smof3View<u64, u32>]) -> MergeIter<u64, u32> {
    let mut merge = MergeIter::new();
    for view in views {
        merge.push_frame(view.clone());
    }
    merge
}

/// A group's packed `u64` key.
fn key(packed: &[u8]) -> u64 {
    u64::from_le_bytes(packed.try_into().expect("one u64"))
}

/// Every remaining key group, in merge order.
fn drain(merge: &mut MergeIter<u64, u32>) -> Vec<(u64, Vec<u32>)> {
    let mut got = Vec::new();
    while let Some((k, vs)) = merge.next_group() {
        got.push((key(k), vs.to_vec()));
    }
    got
}

/// Builds sorted map-output files from raw (unsorted) record lists.
/// Values carry their (file, position) provenance so any reordering
/// of equal keys is visible in the comparison.
fn make_files(raw: Vec<Vec<u64>>) -> Vec<Arc<MapOutputFile<u64, u32>>> {
    raw.into_iter()
        .enumerate()
        .map(|(f, mut keys)| {
            keys.sort_unstable();
            let records: Vec<(u64, u32)> = keys
                .into_iter()
                .enumerate()
                .map(|(i, k)| (k, (f * 10_000 + i) as u32))
                .collect();
            Arc::new(MapOutputFile {
                raw_count: records.len() as u64,
                records,
            })
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Group-at-a-time streaming == legacy merge, exactly. The key
    /// range (0..12) is far smaller than the record counts, so keys
    /// routinely span several files and repeat within one file.
    #[test]
    fn streaming_groups_equal_legacy_merge(raw in vec(vec(0u64..12, 0..40), 0..8)) {
        let files = make_files(raw);
        let expected = legacy_merge(&files);

        let got = drain(&mut merge_of(&views(&files)));
        prop_assert_eq!(&got, &expected);
    }

    /// Batched streaming (the reduce attempt's path) delivers the same
    /// groups whatever the batch budget.
    #[test]
    fn batched_groups_equal_legacy_merge(
        raw in vec(vec(0u64..12, 0..40), 0..8),
        min_records in 1usize..64,
    ) {
        let files = make_files(raw);
        let mut merge = merge_of(&views(&files));
        let mut batch = GroupBatch::new();
        let mut got: Vec<(u64, Vec<u32>)> = Vec::new();
        while merge.fill_batch(&mut batch, min_records) > 0 {
            got.extend(batch.groups().map(|(k, vs)| (key(k), vs.to_vec())));
        }
        prop_assert_eq!(got, legacy_merge(&files));
    }

    /// Two merges over views of the same bytes (a worker serving one
    /// fetched partition to several readers), drained in lockstep,
    /// each merge identically to the legacy merge: a cursor never
    /// disturbs the shared buffer.
    #[test]
    fn merges_sharing_bytes_are_independent(raw in vec(vec(0u64..12, 0..40), 0..8)) {
        let files = make_files(raw);
        let shared = views(&files);
        let (mut a, mut b) = (merge_of(&shared), merge_of(&shared));
        let (mut got_a, mut got_b) = (Vec::new(), Vec::new());
        loop {
            let next_a = a.next_group().map(|(k, vs)| (key(k), vs.to_vec()));
            let next_b = b.next_group().map(|(k, vs)| (key(k), vs.to_vec()));
            if next_a.is_none() && next_b.is_none() {
                break;
            }
            got_a.extend(next_a);
            got_b.extend(next_b);
        }
        let expected = legacy_merge(&files);
        prop_assert_eq!(&got_a, &expected);
        prop_assert_eq!(got_b, expected);
    }
}
