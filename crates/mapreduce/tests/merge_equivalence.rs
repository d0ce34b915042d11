//! Equivalence properties for the streaming k-way merge: over random
//! sets of key-sorted runs — duplicate keys spanning files, runs of
//! duplicates inside one file, empty files, empty inputs — the
//! [`MergeIter`] pipeline produces byte-for-byte the output of the
//! legacy flatten-clone-stable-sort merge it replaced, group ordering
//! included. The merge reads each file as a zero-copy SMOF v3 view.
//! Sources laid out as a keyblock's are — disjoint ranges, ranges that
//! touch at one key, nested and interleaved ones — check the batched
//! merge's gallop over a source's solo runs, and a counting codec
//! bounds its comparisons on disjoint sources.

use proptest::collection::vec;
use proptest::prelude::*;
use std::cell::Cell;
use std::sync::Arc;

use sidr_mapreduce::shuffle_file::encode_map_output;
use sidr_mapreduce::{FixedCodec, GroupBatch, MapOutputFile, MergeIter, Smof3View, WireFormat};

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

    /// Batched streaming over sources laid out by `layout`, at every
    /// batch budget, equals the legacy merge: the gallop takes each
    /// run below every other head as a group of its own, and a key
    /// two sources share still gathers in push order.
    #[test]
    fn laid_out_sources_merge_as_the_legacy_merge(
        layout in 0u8..4,
        sources in vec((1u64..60, 1usize..4), 0..6),
        reversed in any::<bool>(),
    ) {
        let mut raw = laid_out(layout, &sources);
        if reversed {
            raw.reverse();
        }
        let files = make_files(raw);
        let expected = legacy_merge(&files);
        let views = views(&files);
        prop_assert_eq!(&drain(&mut merge_of(&views)), &expected);
        for min_records in [1, 7, 64, usize::MAX] {
            let mut merge = merge_of(&views);
            let mut batch = GroupBatch::new();
            let mut got: Vec<(u64, Vec<u32>)> = Vec::new();
            while merge.fill_batch(&mut batch, min_records) > 0 {
                let total = expected.iter().map(|(_, vs)| vs.len() as u64).sum::<u64>();
                prop_assert!(
                    batch.records() >= min_records || merge.records_consumed() == total,
                    "a batch short of {} records before the end", min_records
                );
                got.extend(batch.groups().map(|(k, vs)| (key(k), vs.to_vec())));
            }
            prop_assert_eq!(&got, &expected, "min_records {}", min_records);
        }
    }
}

/// Each source's keys, each repeated its count of times, for `sources`
/// of `(distinct keys, repeats)`: layout 0 lays the sources' ranges
/// one after another with gaps, 1 makes each range touch the next at
/// one shared key, 2 nests them about one centre, 3 interleaves them.
fn laid_out(layout: u8, sources: &[(u64, usize)]) -> Vec<Vec<u64>> {
    let k = sources.len() as u64;
    let mut next = 0;
    (sources.iter().enumerate())
        .map(|(i, &(n, repeats))| {
            let i = i as u64;
            let keys: Vec<u64> = match layout {
                0 | 1 => {
                    let start = next;
                    next = start + n + if layout == 0 { i % 3 } else { 0 };
                    if layout == 1 {
                        next -= 1;
                    }
                    (start..start + n).collect()
                }
                2 => (0..n).map(|j| 500 - n + 2 * j).collect(),
                _ => (0..n).map(|j| i + j * k).collect(),
            };
            keys.iter()
                .flat_map(|&key| std::iter::repeat_n(key, repeats))
                .collect()
        })
        .collect()
}

thread_local! {
    /// Comparisons made by [`Counted`]'s codec on this thread.
    static COMPARES: Cell<u64> = const { Cell::new(0) };
}

/// A `u64` key whose codec counts its comparisons.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Counted(u64);

impl WireFormat for Counted {
    fn fixed_codec() -> FixedCodec<Self> {
        fn read(b: &[u8]) -> Counted {
            Counted(u64::from_le_bytes(b.try_into().expect("one u64")))
        }
        FixedCodec {
            width: |_| 8,
            width_ok: |w| w == 8,
            write: |k, out| out.copy_from_slice(&k.0.to_le_bytes()),
            read,
            cmp: |a, b| {
                COMPARES.with(|c| c.set(c.get() + 1));
                read(a).cmp(&read(b))
            },
        }
    }
}

/// Merging `k` disjoint ascending sources of `n` runs each costs a
/// search of each source's run table, not a heap step per key: at most
/// k·(⌈log₂ n⌉ + 4) key comparisons, in either push order.
#[test]
fn disjoint_sources_merge_in_logarithmic_comparisons() {
    for k in 1..=5u64 {
        for n in [1_000u64, 4_099] {
            for reversed in [false, true] {
                let mut sources: Vec<u64> = (0..k).collect();
                if reversed {
                    sources.reverse();
                }
                let views: Vec<Smof3View<Counted, u32>> = (sources.iter())
                    .map(|&i| {
                        let records = (i * n..(i + 1) * n).map(|key| (Counted(key), key as u32));
                        let file = MapOutputFile {
                            records: records.collect(),
                            raw_count: n,
                        };
                        Smof3View::open(Arc::new(encode_map_output(&file).unwrap())).unwrap()
                    })
                    .collect();
                COMPARES.with(|c| c.set(0));
                let mut merge = MergeIter::new();
                for view in views {
                    merge.push_frame(view);
                }
                let (mut batch, mut keys) = (GroupBatch::new(), Vec::new());
                while merge.fill_batch(&mut batch, usize::MAX) > 0 {
                    keys.extend(
                        batch
                            .groups()
                            .map(|(key, _)| (Counted::fixed_codec().read)(key)),
                    );
                }
                let compares = COMPARES.with(Cell::get);
                assert_eq!(keys, (0..k * n).map(Counted).collect::<Vec<_>>());
                let bound = k * (u64::from(n.next_power_of_two().trailing_zeros()) + 4);
                assert!(
                    compares <= bound,
                    "{k} sources of {n} runs (reversed: {reversed}): {compares} comparisons, \
                     bound {bound}"
                );
            }
        }
    }
}
