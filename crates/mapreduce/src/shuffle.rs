//! Shuffle payloads: map-output files, their builder, and sort-merge.
//!
//! Each Map task leaves one output file per reducer it produced data
//! for. A file carries the §3.2.1 *annotation*: "how many ⟨k,v⟩ are
//! represented by the set of all ⟨k′,v′⟩ in that file", which lets a
//! Reduce task tally raw input coverage without parsing the file — the
//! cross-check SIDR uses to validate that starting early never
//! consumes insufficient input.
//!
//! The builder is typed and in memory; a committed file is CRC-framed
//! SMOF v4 bytes ([`crate::shuffle_file`]) in a [`PartitionStore`],
//! whichever executor committed it, and the merge reads those bytes in
//! place, one [`Smof3View`] per source. Where a file lives and how a
//! reducer gets it is behind the [`TaskExecutor`] seam.
//!
//! [`TaskExecutor`]: crate::executor::TaskExecutor
//! [`PartitionStore`]: crate::tier::PartitionStore

use crate::smof3::Smof3View;
use crate::task::{MrKey, MrValue};

/// One map-output file: the intermediate pairs a single Map task
/// produced for a single reducer, sorted by key.
#[derive(Clone, Debug)]
pub struct MapOutputFile<K, V> {
    /// Records sorted by key (Hadoop sorts map output per partition).
    pub records: Vec<(K, V)>,
    /// Annotation: raw ⟨k,v⟩ pairs represented (≥ `records.len()` when
    /// a combiner folded pairs together).
    pub raw_count: u64,
}

impl<K, V> Default for MapOutputFile<K, V> {
    fn default() -> Self {
        MapOutputFile {
            records: Vec::new(),
            raw_count: 0,
        }
    }
}

/// Builds the per-reducer output files of one Map task: partitions,
/// optionally combines, sorts, annotates.
pub struct MapOutputBuilder<K, V> {
    per_reducer: Vec<Vec<(K, V)>>,
}

impl<K: MrKey, V: MrValue> MapOutputBuilder<K, V> {
    pub fn new(num_reducers: usize) -> Self {
        MapOutputBuilder {
            per_reducer: (0..num_reducers).map(|_| Vec::new()).collect(),
        }
    }

    /// Adds one intermediate pair destined for `reducer`.
    #[inline]
    pub fn push(&mut self, reducer: usize, key: K, value: V) {
        self.per_reducer[reducer].push((key, value));
    }

    /// Finalizes into per-reducer files: sorts by key, applies the
    /// combiner per key group, and stamps the raw-count annotation.
    /// Returns `(reducer, file)` for every non-empty partition; empty
    /// ones produce nothing (Hadoop serves an empty response for
    /// those; the executor models that as absence).
    pub fn finish(
        self,
        combiner: Option<&dyn crate::task::Combiner<Key = K, Value = V>>,
    ) -> Vec<(usize, MapOutputFile<K, V>)> {
        let mut out = Vec::new();
        for (reducer, mut records) in self.per_reducer.into_iter().enumerate() {
            if records.is_empty() {
                continue;
            }
            records.sort_by(|a, b| a.0.cmp(&b.0));
            // The annotation: raw pairs pushed for this reducer.
            let raw_count = records.len() as u64;
            if let Some(c) = combiner {
                records = combine_sorted(records, c);
            }
            out.push((reducer, MapOutputFile { records, raw_count }));
        }
        out
    }
}

/// Applies a combiner to a key-sorted run. One group buffer is reused
/// across every key (the combiner rewrites it in place), and the key
/// is moved — not cloned — unless the combiner emits more than one
/// value for it.
fn combine_sorted<K: MrKey, V: MrValue>(
    records: Vec<(K, V)>,
    combiner: &dyn crate::task::Combiner<Key = K, Value = V>,
) -> Vec<(K, V)> {
    let mut out = Vec::with_capacity(records.len());
    let mut iter = records.into_iter();
    let Some((mut key, first)) = iter.next() else {
        return out;
    };
    let mut group: Vec<V> = Vec::new();
    group.push(first);
    let flush = |key: K, group: &mut Vec<V>, out: &mut Vec<(K, V)>| {
        combiner.combine(&key, group);
        match group.len() {
            0 => {}
            1 => out.push((key, group.pop().expect("one value"))),
            _ => {
                let last = group.pop().expect("at least two values");
                out.extend(group.drain(..).map(|v| (key.clone(), v)));
                out.push((key, last));
            }
        }
    };
    for (k, v) in iter {
        if k == key {
            group.push(v);
        } else {
            flush(std::mem::replace(&mut key, k), &mut group, &mut out);
            group.push(v);
        }
    }
    flush(key, &mut group, &mut out);
    out
}

/// Streaming k-way merge over key-sorted map-output files.
///
/// Holds one run cursor per file and a binary min-heap of file indices
/// ordered by `(current run key, file index)`, so records come out in
/// global key order with equal keys delivered in (file order, record
/// order) — exactly the order a flatten-and-stable-sort merge
/// produces, but without cloning every record into a scratch vector,
/// without re-sorting already-sorted runs, and without materializing
/// the whole `Vec<(K, Vec<V>)>` keyspace before the first key group
/// is available.
///
/// Each cursor reads a SMOF v4 [`Smof3View`] in place and steps run by
/// run: a source holds at most one run per key (its open checked that
/// run keys strictly ascend), so a group takes one heap step per
/// source that has the key, not one per record. Ordering decisions
/// compare packed key bytes (via the captured
/// [`FixedCodec`](crate::wire::FixedCodec)), and a value is decoded
/// exactly once, when its group leaves the merge into one reusable
/// buffer ([`next_group`]). Cursors are opened one input at a time
/// with [`push_frame`], in the plan's fetch order.
///
/// [`next_group`]: MergeIter::next_group
/// [`push_frame`]: MergeIter::push_frame
pub struct MergeIter<K, V> {
    sources: Vec<Smof3View<K, V>>,
    /// Per-source index of the next unconsumed run.
    cursors: Vec<usize>,
    /// Min-heap of source indices with runs remaining, ordered by
    /// `(run key at cursor, source index)`. Kept by hand (not
    /// `BinaryHeap`) because the ordering lives in `sources`/`cursors`.
    heap: Vec<usize>,
    /// Reusable buffer holding the current group's values.
    group: Vec<V>,
    /// The current group's key (owned: there is no decoded record to
    /// borrow it from).
    group_key: Option<K>,
    /// Records consumed so far (for the merge throughput metrics).
    consumed: u64,
}

impl<K: MrKey, V: MrValue> Default for MergeIter<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: MrKey, V: MrValue> MergeIter<K, V> {
    /// An empty merge; add inputs with [`MergeIter::push_frame`].
    pub fn new() -> Self {
        MergeIter {
            sources: Vec::new(),
            cursors: Vec::new(),
            heap: Vec::new(),
            group: Vec::new(),
            group_key: None,
            consumed: 0,
        }
    }

    /// Opens a cursor on one more zero-copy v4 frame. Sources must be
    /// pushed in the deterministic file order (the plan's fetch order)
    /// *before* consumption begins; equal keys yield values in push
    /// order. The frame's runs are merged straight out of the
    /// underlying buffer.
    pub fn push_frame(&mut self, view: Smof3View<K, V>) {
        let idx = self.sources.len();
        let empty = view.is_empty();
        self.sources.push(view);
        self.cursors.push(0);
        if !empty {
            self.heap.push(idx);
            self.sift_up(self.heap.len() - 1);
        }
    }

    /// `sources[a]`'s cursor sorts before `sources[b]`'s: packed key
    /// bytes compare in place, and equal keys break by push order.
    fn less(&self, a: usize, b: usize) -> bool {
        let (va, vb) = (&self.sources[a], &self.sources[b]);
        let (ka, kb) = (
            va.run_key_bytes(self.cursors[a]),
            vb.run_key_bytes(self.cursors[b]),
        );
        (va.key_codec().cmp)(ka, kb).then(a.cmp(&b)).is_lt()
    }

    fn sift_up(&mut self, mut pos: usize) {
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if self.less(self.heap[pos], self.heap[parent]) {
                self.heap.swap(pos, parent);
                pos = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut pos: usize) {
        loop {
            let mut best = pos;
            for child in [2 * pos + 1, 2 * pos + 2] {
                if child < self.heap.len() && self.less(self.heap[child], self.heap[best]) {
                    best = child;
                }
            }
            if best == pos {
                return;
            }
            self.heap.swap(pos, best);
            pos = best;
        }
    }

    /// Advances the root source's cursor past the run just consumed
    /// and restores the heap.
    fn advance_root(&mut self) {
        let f = self.heap[0];
        self.cursors[f] += 1;
        if self.cursors[f] < self.sources[f].runs() {
            self.sift_down(0);
        } else {
            let last = self.heap.pop().expect("root exists");
            if !self.heap.is_empty() {
                self.heap[0] = last;
                self.sift_down(0);
            }
        }
    }

    /// Records consumed through this iterator so far.
    pub fn records_consumed(&self) -> u64 {
        self.consumed
    }

    /// Consumes the smallest unconsumed key's whole group: sets
    /// `key_out` and appends every value (in source order, record
    /// order) to `values`. Returns false when the merge is exhausted.
    /// Shared engine of [`MergeIter::next_group`] and
    /// [`MergeIter::fill_batch`].
    fn gather_group(&mut self, key_out: &mut Option<K>, values: &mut Vec<V>) -> bool {
        let Some(&f0) = self.heap.first() else {
            return false;
        };
        // The group key, decoded exactly once per group.
        let gkey: K = self.sources[f0].run_key(self.cursors[f0]);
        while let Some(&f) = self.heap.first() {
            // Each source holds at most one run of `gkey`: take it
            // whole, comparing packed bytes; nothing but its values is
            // decoded.
            let (view, r) = (&self.sources[f], self.cursors[f]);
            if !(view.key_codec().cmp_decoded)(&gkey, view.run_key_bytes(r)).is_eq() {
                break;
            }
            let run = view.run_values(r);
            self.consumed += run.len() as u64;
            values.extend(run);
            self.advance_root();
        }
        *key_out = Some(gkey);
        true
    }

    /// The next key group: the smallest unconsumed key together with
    /// *every* value of that key across all sources, in (source
    /// order, record order) — MapReduce guarantee 2 (§2.3). The
    /// values borrow the iterator's reusable buffer and are valid
    /// until the next call; only the group's values are decoded, never
    /// the whole keyspace.
    pub fn next_group(&mut self) -> Option<(&K, &[V])> {
        // Detach the buffer so `gather_group` can borrow self mutably.
        let mut group = std::mem::take(&mut self.group);
        group.clear();
        let mut key = None;
        let found = self.gather_group(&mut key, &mut group);
        self.group = group;
        if !found {
            return None;
        }
        self.group_key = key;
        Some((self.group_key.as_ref().expect("gathered"), &self.group))
    }

    /// Fills `batch` with consecutive key groups until at least
    /// `min_records` records are batched (always completing the group
    /// in progress) or the merge is exhausted. Returns the number of
    /// groups added; 0 means the merge is done. Batching amortizes
    /// per-group heap restoration and cursor bookkeeping over a
    /// cache-sized chunk of records instead of paying it per call.
    pub fn fill_batch(&mut self, batch: &mut GroupBatch<K, V>, min_records: usize) -> usize {
        batch.clear();
        loop {
            let mut key = None;
            if !self.gather_group(&mut key, &mut batch.values) {
                break;
            }
            batch.keys.push(key.expect("gathered"));
            batch.ends.push(batch.values.len());
            if batch.values.len() >= min_records {
                break;
            }
        }
        batch.keys.len()
    }
}

/// A reusable batch of key groups drained from a [`MergeIter`]: flat
/// value storage plus per-group end offsets, so refilling it does at
/// most three buffer writes and zero per-group allocations once the
/// buffers have grown to steady state.
pub struct GroupBatch<K, V> {
    keys: Vec<K>,
    values: Vec<V>,
    /// `values` offset one past each group's last value; group `i`
    /// spans `ends[i-1]..ends[i]` (from 0 for the first).
    ends: Vec<usize>,
}

impl<K, V> Default for GroupBatch<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> GroupBatch<K, V> {
    pub fn new() -> Self {
        GroupBatch {
            keys: Vec::new(),
            values: Vec::new(),
            ends: Vec::new(),
        }
    }

    pub fn clear(&mut self) {
        self.keys.clear();
        self.values.clear();
        self.ends.clear();
    }

    /// Number of key groups in the batch.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Total records across all groups in the batch.
    pub fn records(&self) -> usize {
        self.values.len()
    }

    /// The batched groups, in merge order.
    pub fn groups(&self) -> impl Iterator<Item = (&K, &[V])> {
        self.keys.iter().enumerate().map(|(i, k)| {
            let start = if i == 0 { 0 } else { self.ends[i - 1] };
            (k, &self.values[start..self.ends[i]])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::Combiner;

    struct SumCombiner;
    impl Combiner for SumCombiner {
        type Key = u64;
        type Value = u64;
        fn combine(&self, _key: &u64, values: &mut Vec<u64>) {
            let sum = values.iter().sum();
            values.clear();
            values.push(sum);
        }
    }

    #[test]
    fn builder_partitions_and_sorts() {
        let mut b = MapOutputBuilder::<u64, u64>::new(2);
        b.push(0, 5, 50);
        b.push(0, 1, 10);
        b.push(1, 2, 20);
        let files = b.finish(None);
        assert_eq!(files.len(), 2);
        let f0 = &files.iter().find(|(r, _)| *r == 0).unwrap().1;
        assert_eq!(f0.records, vec![(1, 10), (5, 50)]);
        assert_eq!(f0.raw_count, 2);
    }

    #[test]
    fn combiner_folds_but_annotation_keeps_raw_count() {
        let mut b = MapOutputBuilder::<u64, u64>::new(1);
        b.push(0, 7, 1);
        b.push(0, 7, 2);
        b.push(0, 7, 3);
        b.push(0, 9, 4);
        let files = b.finish(Some(&SumCombiner));
        let f = &files[0].1;
        assert_eq!(f.records, vec![(7, 6), (9, 4)]);
        assert_eq!(f.raw_count, 4, "annotation counts raw pairs, not combined");
    }

    #[test]
    fn empty_partitions_produce_no_file() {
        let mut b = MapOutputBuilder::<u64, u64>::new(3);
        b.push(1, 1, 1);
        let files = b.finish(None);
        assert_eq!(files.len(), 1);
        assert_eq!(files[0].0, 1);
    }

    fn file(records: Vec<(u64, u64)>) -> MapOutputFile<u64, u64> {
        MapOutputFile {
            raw_count: records.len() as u64,
            records,
        }
    }

    /// Every remaining key group, in merge order.
    fn drain(merge: &mut MergeIter<u64, u64>) -> Vec<(u64, Vec<u64>)> {
        let mut groups = Vec::new();
        while let Some((k, vs)) = merge.next_group() {
            groups.push((*k, vs.to_vec()));
        }
        groups
    }

    #[test]
    fn merge_of_nothing_is_empty() {
        assert!(MergeIter::<u64, u64>::new().next_group().is_none());
    }

    /// Encodes a file and reopens it as a zero-copy v4 frame.
    fn as_frame(f: &MapOutputFile<u64, u64>) -> Smof3View<u64, u64> {
        let bytes = crate::shuffle_file::encode_map_output(f).unwrap();
        Smof3View::open(std::sync::Arc::new(bytes)).unwrap()
    }

    /// A merge over `files`' frames, pushed in order.
    fn merge_of(files: &[MapOutputFile<u64, u64>]) -> MergeIter<u64, u64> {
        let mut merge = MergeIter::new();
        for f in files {
            merge.push_frame(as_frame(f));
        }
        merge
    }

    #[test]
    fn merge_delivers_equal_keys_in_file_then_record_order() {
        let f1 = file(vec![(1, 10), (1, 11), (3, 30)]);
        let f2 = file(vec![(1, 12), (2, 20)]);
        let mut m = merge_of(&[f1, f2]);
        assert_eq!(
            drain(&mut m),
            vec![(1, vec![10, 11, 12]), (2, vec![20]), (3, vec![30])]
        );
        assert!(m.next_group().is_none());
        assert_eq!(m.records_consumed(), 5);
    }

    #[test]
    fn frame_merge_equals_stable_sort_of_the_files() {
        let files = vec![
            file(vec![(1, 10), (1, 11), (3, 30)]),
            file(vec![(1, 12), (2, 20)]),
            file(Vec::new()),
        ];
        let mut all: Vec<(u64, u64)> = files.iter().flat_map(|f| f.records.clone()).collect();
        all.sort_by_key(|r| r.0);
        let mut expected: Vec<(u64, Vec<u64>)> = Vec::new();
        for (k, v) in all {
            match expected.last_mut() {
                Some((lk, vs)) if *lk == k => vs.push(v),
                _ => expected.push((k, vec![v])),
            }
        }
        assert_eq!(drain(&mut merge_of(&files)), expected);
    }

    #[test]
    fn equal_keys_resolve_in_push_order() {
        let f1 = file(vec![(1, 10), (2, 20)]);
        let f2 = file(vec![(1, 11), (2, 21)]);
        let mut m = merge_of(&[f1.clone(), f2.clone()]);
        assert_eq!(drain(&mut m), vec![(1, vec![10, 11]), (2, vec![20, 21])]);
        // In the opposite push order, the second file's values lead.
        let mut m = merge_of(&[f2, f1]);
        assert_eq!(drain(&mut m), vec![(1, vec![11, 10]), (2, vec![21, 20])]);
    }

    #[test]
    fn fill_batch_drains_same_groups_as_next_group() {
        let files: Vec<MapOutputFile<u64, u64>> = (0..4)
            .map(|f| file((0..50u64).map(|i| (i * 2 + f % 2, i + f)).collect()))
            .collect();
        let expected = drain(&mut merge_of(&files));
        for min_records in [1, 7, 64, 100_000] {
            let mut merge = merge_of(&files);
            let mut batch = GroupBatch::new();
            let mut got = Vec::new();
            while merge.fill_batch(&mut batch, min_records) > 0 {
                assert!(batch.records() >= min_records || merge.records_consumed() == 200);
                for (k, vs) in batch.groups() {
                    got.push((*k, vs.to_vec()));
                }
            }
            assert_eq!(got, expected, "min_records {min_records}");
            assert_eq!(merge.fill_batch(&mut batch, 1), 0, "exhausted");
        }
    }

    #[test]
    fn empty_frames_open_no_cursor() {
        let files = [
            file(vec![(2, 1), (4, 2)]),
            file(Vec::new()),
            file(vec![(1, 3), (2, 4)]),
        ];
        assert_eq!(
            drain(&mut merge_of(&files)),
            vec![(1, vec![3]), (2, vec![1, 4]), (4, vec![2])]
        );
    }
}
