//! Shuffle payloads: map-output files and their sort-merge.
//!
//! Each Map task leaves one output file per reducer it produced data
//! for. A file carries the §3.2.1 *annotation*: "how many ⟨k,v⟩ are
//! represented by the set of all ⟨k′,v′⟩ in that file", which lets a
//! Reduce task tally raw input coverage without parsing the file — the
//! cross-check SIDR uses to validate that starting early never
//! consumes insufficient input.
//!
//! A [`MapOutputFile`] is the typed, in-memory form that
//! [`encode_map_output`] and [`decode_map_output`] translate; a
//! committed file is CRC-framed SMOF v4 bytes ([`crate::shuffle_file`])
//! in a [`PartitionStore`], whichever executor committed it, and the
//! merge reads those bytes in place, one [`Smof3View`] per source.
//! Where a file lives and how a reducer gets it is behind the
//! [`TaskExecutor`] seam.
//!
//! [`TaskExecutor`]: crate::executor::TaskExecutor
//! [`encode_map_output`]: crate::shuffle_file::encode_map_output
//! [`decode_map_output`]: crate::shuffle_file::decode_map_output
//! [`PartitionStore`]: crate::tier::PartitionStore

use std::marker::PhantomData;

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
/// source that has the key, not one per record. A run that sorts below
/// every other source's head is a group of its own: [`fill_batch`]
/// finds the root source's stretch of them by a gallop over its run
/// table and takes them with no heap step, so a keyblock whose sources
/// hold disjoint key ranges merges as their concatenation, restoring
/// the heap once per stretch. Keys stay packed:
/// ordering decisions compare key bytes (via the captured
/// [`FixedCodec`](crate::wire::FixedCodec)), a group's key is copied
/// as bytes from its first run and the other sources' runs join it on
/// byte equality, and no key is ever decoded. A value is decoded
/// exactly once, when its group leaves the merge into one reusable
/// buffer ([`next_group`]). Cursors are opened one input at a time
/// with [`push_frame`], in the plan's fetch order.
///
/// [`next_group`]: MergeIter::next_group
/// [`fill_batch`]: MergeIter::fill_batch
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
    /// Reusable buffer holding the current group's packed key.
    group_key: Vec<u8>,
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
            group_key: Vec::new(),
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

    /// Moves the root source's cursor to run `to`, past the runs just
    /// consumed, and restores the heap.
    fn advance_root(&mut self, to: usize) {
        let f = self.heap[0];
        self.cursors[f] = to;
        if to < self.sources[f].runs() {
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

    /// Consumes the smallest unconsumed key's whole group: appends its
    /// packed key to `keys` and every value (in source order, record
    /// order) to `values`. Returns false when the merge is exhausted.
    /// Shared engine of [`MergeIter::next_group`] and
    /// [`MergeIter::fill_batch`].
    fn gather_group(&mut self, keys: &mut Vec<u8>, values: &mut Vec<V>) -> bool {
        let Some(&f0) = self.heap.first() else {
            return false;
        };
        // The group key, copied as bytes from its first run.
        let start = keys.len();
        keys.extend_from_slice(self.sources[f0].run_key_bytes(self.cursors[f0]));
        while let Some(&f) = self.heap.first() {
            // Each source holds at most one run of the key: take it
            // whole. Byte equality is key equality (the codec's
            // contract); nothing but the values is decoded.
            let (view, r) = (&self.sources[f], self.cursors[f]);
            if view.run_key_bytes(r) != &keys[start..] {
                break;
            }
            let run = view.run_values(r);
            self.consumed += run.len() as u64;
            values.extend(run);
            self.advance_root(r + 1);
        }
        true
    }

    /// The next key group: the smallest unconsumed key, packed,
    /// together with *every* value of that key across all sources, in
    /// (source order, record order) — MapReduce guarantee 2 (§2.3).
    /// Key and values borrow the iterator's reusable buffers and are
    /// valid until the next call; only the group's values are decoded,
    /// never the whole keyspace.
    pub fn next_group(&mut self) -> Option<(&[u8], &[V])> {
        // Detach the buffers so `gather_group` can borrow self mutably.
        let (mut key, mut group) = (
            std::mem::take(&mut self.group_key),
            std::mem::take(&mut self.group),
        );
        key.clear();
        group.clear();
        let found = self.gather_group(&mut key, &mut group);
        (self.group_key, self.group) = (key, group);
        found.then_some((&self.group_key[..], &self.group[..]))
    }

    /// The end of the root source's *solo* runs from its cursor: those
    /// whose key sorts strictly below every other source's head, so
    /// each is a whole key group. The search looks at most `limit`
    /// runs ahead (`limit ≥ 1`). It compares with the runner-up head,
    /// the smaller of the root's children; a lone source's runs are all
    /// solo. A run that ties the runner-up is not solo: its group
    /// spans sources.
    fn solo_end(&self, limit: usize) -> usize {
        let f = self.heap[0];
        let (view, r) = (&self.sources[f], self.cursors[f]);
        let end = view.runs().min(r.saturating_add(limit));
        let g = match self.heap.len() {
            1 => return end,
            2 => self.heap[1],
            _ if self.less(self.heap[2], self.heap[1]) => self.heap[2],
            _ => self.heap[1],
        };
        let (head, cmp) = (
            self.sources[g].run_key_bytes(self.cursors[g]),
            view.key_codec().cmp,
        );
        let below = |run: usize| cmp(view.run_key_bytes(run), head).is_lt();
        // Interleaved sources stop within the first two runs, disjoint
        // ones run to the end; between, gallop (r + 2, r + 4, r + 8, …)
        // to bracket the first run not below, then bisect.
        if !below(r) {
            return r;
        }
        if r + 1 == end || !below(r + 1) {
            return r + 1;
        }
        if below(end - 1) {
            return end;
        }
        // Run `lo` is below the head; run `hi` is not.
        let (mut lo, mut hi, mut gap) = (r + 1, end - 1, 1);
        while lo + gap < hi && below(lo + gap) {
            lo += gap;
            gap *= 2;
        }
        hi = hi.min(lo + gap);
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if below(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        hi
    }

    /// Fills `batch` with consecutive key groups until at least
    /// `min_records` records are batched (always completing the group
    /// in progress) or the merge is exhausted. Returns the number of
    /// groups added; 0 means the merge is done. Batching amortizes
    /// per-group heap restoration and cursor bookkeeping over a
    /// cache-sized chunk of records instead of paying it per call.
    ///
    /// The root source's solo runs — each below every other source's
    /// head — are taken as groups with no heap step and no key compare,
    /// and the heap is restored once after them: a disjoint source is a
    /// concatenation. Equal keys go through the heap, so they keep push
    /// order.
    pub fn fill_batch(&mut self, batch: &mut GroupBatch<K, V>, min_records: usize) -> usize {
        batch.clear();
        while let Some(&f) = self.heap.first() {
            // Each run holds a value, so `need` runs reach `min_records`.
            let need = min_records.saturating_sub(batch.values.len()).max(1);
            let (r, end) = (self.cursors[f], self.solo_end(need));
            if end > r {
                let view = &self.sources[f];
                let mut next = r;
                loop {
                    batch.keys.extend_from_slice(view.run_key_bytes(next));
                    let run = view.run_values(next);
                    self.consumed += run.len() as u64;
                    batch.values.extend(run);
                    batch.ends.push((batch.keys.len(), batch.values.len()));
                    next += 1;
                    if next == end || batch.values.len() >= min_records {
                        break;
                    }
                }
                self.advance_root(next);
            } else {
                self.gather_group(&mut batch.keys, &mut batch.values);
                batch.ends.push((batch.keys.len(), batch.values.len()));
            }
            if batch.values.len() >= min_records {
                break;
            }
        }
        batch.ends.len()
    }
}

/// A reusable batch of key groups drained from a [`MergeIter`]: flat
/// packed-key and value storage plus per-group end offsets, so
/// refilling it does at most three buffer writes and zero per-group
/// allocations once the buffers have grown to steady state.
pub struct GroupBatch<K, V> {
    /// Each group's packed key, back to back.
    keys: Vec<u8>,
    values: Vec<V>,
    /// `(keys, values)` offsets one past each group's key bytes and
    /// last value; group `i` spans from group `i-1`'s ends (from 0 for
    /// the first).
    ends: Vec<(usize, usize)>,
    /// The keys are `K`s, packed.
    key: PhantomData<fn() -> K>,
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
            key: PhantomData,
        }
    }

    pub fn clear(&mut self) {
        self.keys.clear();
        self.values.clear();
        self.ends.clear();
    }

    /// Number of key groups in the batch.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Total records across all groups in the batch.
    pub fn records(&self) -> usize {
        self.values.len()
    }

    /// The batched groups, in merge order: each packed key and its
    /// values.
    pub fn groups(&self) -> impl Iterator<Item = (&[u8], &[V])> {
        let starts = std::iter::once((0, 0)).chain(self.ends.iter().copied());
        (starts.zip(&self.ends))
            .map(|((k0, v0), &(k1, v1))| (&self.keys[k0..k1], &self.values[v0..v1]))
    }

    /// The batched groups, in merge order, each value slice handed out
    /// mutably: the batch owns them, and a reducer may reorder a group
    /// in place (see [`run_reduce_attempt`](crate::run_reduce_attempt)).
    pub fn groups_mut(&mut self) -> impl Iterator<Item = (&[u8], &mut [V])> {
        let (keys, mut rest) = (&self.keys[..], self.values.as_mut_slice());
        let (mut k0, mut v0) = (0, 0);
        self.ends.iter().map(move |&(k1, v1)| {
            let (group, tail) = std::mem::take(&mut rest).split_at_mut(v1 - v0);
            rest = tail;
            let key = &keys[k0..k1];
            (k0, v0) = (k1, v1);
            (key, group)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(records: Vec<(u64, u64)>) -> MapOutputFile<u64, u64> {
        MapOutputFile {
            raw_count: records.len() as u64,
            records,
        }
    }

    /// A packed `u64` key.
    fn key(packed: &[u8]) -> u64 {
        u64::from_le_bytes(packed.try_into().expect("one u64"))
    }

    /// Every remaining key group, in merge order.
    fn drain(merge: &mut MergeIter<u64, u64>) -> Vec<(u64, Vec<u64>)> {
        let mut groups = Vec::new();
        while let Some((k, vs)) = merge.next_group() {
            groups.push((key(k), vs.to_vec()));
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
                    got.push((key(k), vs.to_vec()));
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
