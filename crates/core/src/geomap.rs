//! Map by geometry: the map attempt of every structural query, in
//! every framework mode, computed from the split's slab, the extraction
//! tiling and the mode's partition function instead of record by
//! record.
//!
//! A split *is* its key set `K_Tᵢ` (§2.4.1) and `K → K′` is a fixed
//! extraction (§3 Area 2), so which `K′` key each record of a map
//! attempt feeds follows from geometry; the partition function then
//! needs only that key (`partition+` deals contiguous runs of a `K′ᵀ`
//! known before any map runs, §3.1; the stock hash reads its
//! components). Where each record goes — which key, which reducer,
//! which row of which partition — is decided per key, and only the
//! values are data.
//! [`map_split`]:
//!
//! 1. reads the split one [`read_chunks`] slab at a time, as its
//!    values' little-endian bytes, into one byte buffer that each chunk
//!    overwrites ([`ScincFile::read_slab_bytes`]), decoding each value
//!    as a pass steps over it, and gives each record its row-major
//!    index in the split's *image*, the slab of `K′` keys the split
//!    touches ([`Tiling::instances_touched_by`]). The index is a sum of
//!    per-dimension table entries: no per-record `Coord`, division or
//!    allocation. Partial instances, stride gaps, records outside the
//!    query region get none, and a `Filter` query keeps only the values
//!    its predicate passes;
//! 2. takes each image key's record count from geometry: the product,
//!    over dimensions, of how many split positions map to its
//!    coordinate along that dimension, O(Σ extents + keys) and no pass
//!    over the records. These are the pairs the map *represents*: its
//!    `records_out`, and each partition's §3.2.1 `raw` annotation. A
//!    key whose count is the query's `fold_in_count` lies *whole* in
//!    the split: partial instances have no image key and stride gaps
//!    no index, so no other map feeds it. A `Filter` keeps a subset
//!    that depends on the values, so its jobs hold the split's chunks
//!    and count the kept records in one pass over them;
//! 3. routes once per image key, not once per record: `partition+`
//!    under SIDR, the stock hash-modulo under Hadoop and SciHadoop;
//!    then lays out the partition of each reducer whose represented
//!    count is non-zero — one with no kept row included — through the
//!    one SMOF v4 writer ([`SmofWriter`]), exactly sized: its header,
//!    one run-table entry per key with a kept record (packed from the
//!    odometer that stepped the route), and a byte cursor per key into
//!    its values region;
//! 4. places: one pass over the kept records, in reader order, writes
//!    each value's 8 bytes once, at its key's cursor, so a key's values
//!    keep reader order. A distributive operator streams its fold
//!    instead: the pass steps each value into its key's accumulator
//!    with the operator's `Fold` — the identity and step
//!    [`Operator::reduce_group`] folds a run with — and each non-empty
//!    key's one value is copied into its partition. Where a chunk's
//!    row maps to consecutive keys (an innermost extraction of 1 that
//!    no stride or region breaks there), the row steps as one slice
//!    into consecutive accumulators, lane by lane; its keys are
//!    distinct, so each still takes its values in reader order, and
//!    the bits are the per-value loop's. Any other operator
//!    whose reduce gives its own one value back (Mean, Median,
//!    Percentile) *finishes* each whole key: the pass gathers the whole
//!    keys' values into one `f64` scratch in blocks of the finisher's
//!    lanes (`operators::Finisher`), and each block is reduced to one
//!    value per key, a run of one row. A Median or Percentile of a
//!    small unit has sixteen lanes: a block interleaves sixteen keys'
//!    values, each key's in reader order down its lane, and one
//!    comparator network selects the rank of all sixteen at once. Any
//!    other has one lane: each key's values lie together, in reader
//!    order, and [`Operator::reduce_group`] reduces them. Keys that
//!    straddle splits are placed. Each partition is then sealed with
//!    its CRC.
//!
//! The bytes are exactly those of a per-record map — each record
//! through the structural map, routed by the same partition function,
//! each reducer's pairs stably sorted by key, each run folded and each
//! whole run finished, then `encode_map_output` under the count of
//! pairs mapped before any selection — which `tests/geomap.rs` keeps as
//! the kernel's reference and pins for both routes. Finishing leaves a
//! job's output as it was: a whole key has one source, so the merge
//! would have handed the reduce this same reader order, a network
//! selects the value the reduce would, and the reduce of the one
//! finished value returns it bit for bit. Transient memory is one read
//! buffer, the bytes of the largest chunk, and 16 bytes per image key —
//! count, reducer, and a byte cursor or a fold's accumulator — beside
//! the output partitions themselves; finishing adds the scratch of the
//! whole keys' values, with no padding however the lanes fall, and the
//! finisher's copy of one block (the unit size × 16 values, for a
//! network), and a filter, whose represented and kept counts differ,
//! holds the split's input from the read to the place pass and 4 bytes
//! more per key. `tests/alloc.rs` in `sidr-bench` pins the bounds. A per-record
//! map holds a `(Coord, f64)` row and a heap-allocated key per record
//! (≈ 56 bytes at rank 3).
//!
//! [`Tiling::instances_touched_by`]: sidr_coords::Tiling::instances_touched_by

use sidr_coords::{Coord, Slab};
use sidr_mapreduce::shuffle_file::SmofWriter;
use sidr_mapreduce::MrError;
use sidr_scifile::{read_chunks, Element, ScincFile};

use crate::exec::MapAttemptOutput;
use crate::operators::{Finisher, Fold, Operator};
use crate::source::StructuralMapper;

/// Table entry of a split position that maps to no image key. Any sum
/// containing one is at least this, and every real index is below
/// `u32::MAX`.
const NONE: u64 = 1 << 48;

/// Packed width of an `f64` value.
const VALUE_WIDTH: usize = 8;

/// Runs the map side of one split: what `mapper` makes of the records
/// of `split` (absolute coordinates in `variable`'s space), routed to
/// one of `num_reducers` by `keyblock_of` (a `K′` key's components →
/// its reducer), as one encoded SMOF v4 partition per reducer the
/// split represents pairs for. `operator` is the query's: a
/// distributive one folds each key's run map-side to one value, and
/// one whose reduce gives its own value back finishes each key the
/// split holds whole.
pub fn map_split<E: Element>(
    file: &ScincFile,
    variable: &str,
    split: &Slab,
    mapper: &StructuralMapper,
    num_reducers: usize,
    keyblock_of: impl Fn(&[u64]) -> usize,
    operator: Operator,
) -> crate::Result<MapAttemptOutput> {
    let records_in = split.count();
    let mut out = MapAttemptOutput {
        partitions: Vec::new(),
        records_in,
        records_out: 0,
    };
    let Some(image) = Image::of(split, mapper)? else {
        return Ok(out); // the split feeds no K' key
    };
    let predicate_gt = mapper.predicate_gt;

    // Count: each image key's represented records, from geometry alone.
    let represented = image.geometric_counts();
    out.records_out = represented.iter().map(|&n| u64::from(n)).sum();

    // Route once per represented image key; its records are its
    // reducer's annotation.
    let mut route = vec![0u32; represented.len()];
    let mut raw = vec![0u64; num_reducers];
    image.for_each_key(|i, key| {
        if represented[i] > 0 {
            let r = keyblock_of(key);
            route[i] = r as u32;
            raw[r] += u64::from(represented[i]);
        }
    });

    // Each image key's kept records: all it represents, unless a
    // filter's selection makes them depend on the values, which takes
    // a counting pass over the held input.
    let (input, counts) = match predicate_gt {
        None => (Input::Streamed { file, variable }, represented),
        Some(_) => {
            let input = Input::held::<E>(file, variable, split)?;
            let counts = image.counted::<E>(&input, split, predicate_gt)?;
            (input, counts)
        }
    };
    let reduce = Reduce::of(operator, mapper);

    // Fold: each value taken into its key's accumulator as it is read,
    // before the partitions are laid out.
    let folded = match reduce {
        Reduce::Fold(fold) => Some(image.fold_kept::<E>(&input, split, fold)?),
        _ => None,
    };

    // Lay out each reducer's partition: header, then one run-table
    // entry per key, packed from the odometer.
    let (mut records, mut runs) = (vec![0usize; num_reducers], vec![0usize; num_reducers]);
    for (&n, &r) in counts.iter().zip(&route) {
        if n > 0 {
            records[r as usize] += reduce.rows(n);
            runs[r as usize] += 1;
        }
    }
    let key_width = 8 * image.corner.len();
    let mut writers: Vec<Option<SmofWriter>> = (0..num_reducers)
        .map(|r| {
            let (raw, records, runs) = (raw[r], records[r], runs[r]);
            (raw > 0).then(|| SmofWriter::new(raw, records, runs, key_width, VALUE_WIDTH))
        })
        .collect();
    image.for_each_key(|i, key| {
        if counts[i] > 0 {
            let writer = writers[route[i] as usize].as_mut();
            let writer = writer.expect("a reducer with runs has a writer");
            writer.push_run(reduce.rows(counts[i]), |slot| Coord::pack_words(key, slot));
        }
    });

    // Place: each value's bytes written once, into its partition's
    // values region. `next` is each reducer's fill, in key order.
    let mut regions: Vec<&mut [u8]> = writers
        .iter_mut()
        .map(|w| w.as_mut().map_or(&mut [][..], SmofWriter::values_mut))
        .collect();
    let mut next = vec![0usize; num_reducers];
    if let Some(acc) = folded {
        for ((&v, &n), &r) in acc.iter().zip(&counts).zip(&route) {
            if n > 0 {
                let (r, at) = (r as usize, next[r as usize]);
                regions[r][at..at + VALUE_WIDTH].copy_from_slice(&v.to_le_bytes());
                next[r] = at + VALUE_WIDTH;
            }
        }
    } else {
        // Each key's cursor — a placed key's byte offset into its
        // partition's values, a whole key's slot in the scratch that
        // gathers its unit — then the values in reader order. The
        // whole keys, numbered `w` in key order, fill the scratch in
        // blocks of the finisher's `lanes` units, the last block
        // perhaps fewer: unit `w` is lane `w % lanes` of block
        // `w / lanes`, and its value `j` lies `j × width + lane` past
        // the block's start, `width` being the block's unit count.
        // With one lane, the units lie one after another.
        let whole = reduce.whole();
        let n = whole.unwrap_or(0) as usize;
        let units = whole.map_or(0, |whole| counts.iter().filter(|&&k| k == whole).count());
        let mut finisher = (units > 0).then(|| Finisher::new(operator, n));
        let lanes = finisher.as_ref().map_or(1, Finisher::lanes);
        let block = lanes * n;
        // Slots below `full` lie in full blocks; the rest in the
        // partial one, whose units step by its width.
        let (full, tail) = (units / lanes * block, units % lanes);
        let slot = |w: usize| w / lanes * block + w % lanes;
        let mut cursor = vec![0usize; counts.len()];
        let mut w = 0;
        for ((c, &k), &r) in cursor.iter_mut().zip(&counts).zip(&route) {
            let rows = if whole == Some(k) {
                *c = slot(w);
                w += 1;
                1
            } else {
                *c = next[r as usize];
                k as usize
            };
            next[r as usize] += rows * VALUE_WIDTH;
        }
        let mut scratch = vec![0f64; units * n];
        // The pass owns the cursors and the step's operands, so that
        // it does not reload them through a reference after each store:
        // where a row's values all feed one key, each step waits on the
        // one before. For the same reason the step is a branch, not a
        // select, which would put its operands on that chain.
        image.for_each_kept::<E>(&input, split, predicate_gt, {
            let (scratch, regions, counts, route) = (&mut scratch, &mut regions, &counts, &route);
            move |i, v| {
                let at = cursor[i];
                if whole == Some(counts[i]) {
                    scratch[at] = v;
                    cursor[i] = if at < full {
                        at + lanes
                    } else {
                        past(at, tail)
                    };
                } else {
                    let region = &mut regions[route[i] as usize];
                    region[at..at + VALUE_WIDTH].copy_from_slice(&v.to_le_bytes());
                    cursor[i] = at + VALUE_WIDTH;
                }
            }
        })?;
        // Finish: each block's units reduced, unit `l`'s value left
        // in its block's slot `l`, then copied to its row in key order.
        if let Some(finisher) = &mut finisher {
            for units in scratch.chunks_mut(block) {
                finisher.finish(units, units.len() / n);
            }
            next.fill(0);
            let mut w = 0;
            for (&k, &r) in counts.iter().zip(&route) {
                let (r, at) = (r as usize, next[r as usize]);
                if whole == Some(k) {
                    let value = scratch[slot(w)];
                    w += 1;
                    regions[r][at..at + VALUE_WIDTH].copy_from_slice(&value.to_le_bytes());
                    next[r] = at + VALUE_WIDTH;
                } else {
                    next[r] = at + k as usize * VALUE_WIDTH;
                }
            }
        }
    }
    out.partitions = writers
        .into_iter()
        .enumerate()
        .filter_map(|(r, w)| Some((r, w?.seal())))
        .collect();
    Ok(out)
}

/// `at + width`: a cursor's step in the partial block, out of line so
/// that the full blocks' step is a predicted branch.
#[cold]
#[inline(never)]
fn past(at: usize, width: usize) -> usize {
    at + width
}

/// How the map reduces each image key's kept values before they ship.
#[derive(Clone, Copy)]
enum Reduce {
    /// A distributive operator: every key's run folds to one value as
    /// it is read.
    Fold(Fold),
    /// An operator whose reduce gives its own one value back: each key
    /// holding all `whole` records of its unit is finished to one
    /// value; the keys that straddle splits are placed.
    Finish { whole: u32 },
    /// Every kept value is placed.
    Place,
}

impl Reduce {
    fn of(operator: Operator, mapper: &StructuralMapper) -> Self {
        if let Some(fold) = operator.fold() {
            return Reduce::Fold(fold);
        }
        match u32::try_from(mapper.extraction.shape().count()) {
            Ok(whole) if operator.idempotent() => Reduce::Finish { whole },
            _ => Reduce::Place,
        }
    }

    /// The unit size a key must hold to be finished, if any.
    fn whole(self) -> Option<u32> {
        match self {
            Reduce::Finish { whole } => Some(whole),
            _ => None,
        }
    }

    /// The rows a key with `kept` records ships.
    fn rows(self, kept: u32) -> usize {
        match self {
            Reduce::Fold(_) => kept.min(1) as usize,
            Reduce::Finish { whole } if kept == whole => 1,
            _ => kept as usize,
        }
    }
}

/// The split's records in [`read_chunks`] order, as their
/// little-endian bytes: every pass decodes each value as it steps.
enum Input<'a> {
    /// Read, passed and overwritten one chunk at a time, in one
    /// buffer.
    Streamed {
        file: &'a ScincFile,
        variable: &'a str,
    },
    /// Read once and held: a filter passes its records twice.
    Held(Vec<(Slab, Vec<u8>)>),
}

impl Input<'_> {
    /// Every chunk of `split` read and held.
    fn held<E: Element>(file: &ScincFile, variable: &str, split: &Slab) -> crate::Result<Self> {
        let chunks = read_chunks(split)
            .into_iter()
            .map(|chunk| {
                let mut data = Vec::new();
                file.read_slab_bytes::<E>(variable, &chunk, &mut data)?;
                Ok((chunk, data))
            })
            .collect::<crate::Result<Vec<_>>>()?;
        Ok(Input::Held(chunks))
    }

    /// Calls `f(chunk, bytes)` for each [`read_chunks`] slab of `split`
    /// and its records' bytes, in order. A streamed input reads every
    /// chunk into one buffer.
    fn for_each_chunk<E: Element>(
        &self,
        split: &Slab,
        mut f: impl FnMut(&Slab, &[u8]),
    ) -> crate::Result<()> {
        match self {
            Input::Streamed { file, variable } => {
                let mut buf = Vec::new();
                for chunk in read_chunks(split) {
                    file.read_slab_bytes::<E>(variable, &chunk, &mut buf)?;
                    f(&chunk, &buf);
                }
            }
            Input::Held(chunks) => chunks.iter().for_each(|(chunk, data)| f(chunk, data)),
        }
        Ok(())
    }
}

/// The split's image in `K′` and the per-dimension tables that index
/// it.
struct Image {
    /// The image's low corner in `K′`.
    corner: Vec<u64>,
    /// The image's extents.
    extents: Vec<u64>,
    /// Per split dimension, per position along it: the position's
    /// share of the image index (`(j − corner) × stride`), or [`NONE`].
    tables: Vec<Vec<u64>>,
}

impl Image {
    /// The image of `split` under `mapper`'s region and extraction, or
    /// `None` when the split feeds no `K′` key.
    fn of(split: &Slab, mapper: &StructuralMapper) -> crate::Result<Option<Image>> {
        let tiling = mapper.extraction.tiling();
        let rank = split.rank();
        let region = tiling.space();
        let origin = |d: usize| mapper.region_corner.as_ref().map_or(0, |c| c[d]);
        // The split's part inside the query region, in region terms.
        let (mut corner, mut extents) = (Vec::with_capacity(rank), Vec::with_capacity(rank));
        for d in 0..rank {
            let lo = split.corner()[d].max(origin(d));
            let hi = (split.corner()[d] + split.shape()[d]).min(origin(d) + region[d]);
            if lo >= hi {
                return Ok(None);
            }
            corner.push(lo - origin(d));
            extents.push(hi - lo);
        }
        let inside = Slab::new(Coord::new(corner), sidr_coords::Shape::new(extents)?)?;
        let Some(image) = tiling.instances_touched_by(&inside)? else {
            return Ok(None);
        };
        let too_big = || MrError::BadConfig(format!("split {split} is too large to map"));
        if image.count() >= u64::from(u32::MAX) || split.count() >= u64::from(u32::MAX) {
            return Err(too_big().into());
        }
        let corner = image.corner().components().to_vec();
        let extents = image.shape().extents().to_vec();
        let mut strides = vec![1u64; rank];
        for d in (0..rank.saturating_sub(1)).rev() {
            strides[d] = strides[d + 1] * extents[d + 1];
        }
        let (stride, tile, grid) = (tiling.stride(), tiling.tile(), tiling.grid());
        let tables = (0..rank)
            .map(|d| {
                (0..split.shape()[d])
                    .map(|x| {
                        let abs = split.corner()[d] + x;
                        let Some(c) = abs.checked_sub(origin(d)).filter(|&c| c < region[d]) else {
                            return NONE; // outside the query region
                        };
                        let j = c / stride[d];
                        if j >= grid[d] || c - j * stride[d] >= tile[d] {
                            return NONE; // a discarded partial or a stride gap
                        }
                        (j - corner[d]) * strides[d]
                    })
                    .collect()
            })
            .collect();
        Ok(Some(Image {
            corner,
            extents,
            tables,
        }))
    }

    /// Image keys: the image's row-major size.
    fn keys(&self) -> usize {
        self.extents.iter().product::<u64>() as usize
    }

    /// Calls `f(last, consecutive, base, row)` for each row of each
    /// read chunk of `split`, in reader order, whose outer positions all
    /// map into the image: `last` is the innermost table over the
    /// chunk's row, `consecutive` whether it maps the row to
    /// consecutive image keys, `base` the row's outer share of the
    /// index and `row` its values' little-endian bytes.
    fn for_each_row<E: Element>(
        &self,
        input: &Input,
        split: &Slab,
        mut f: impl FnMut(&[u64], bool, u64, &[u8]),
    ) -> crate::Result<()> {
        let rank = self.corner.len();
        let (mut offset, mut pos) = (vec![0usize; rank], vec![0usize; rank - 1]);
        input.for_each_chunk::<E>(split, |chunk, data| {
            for (d, o) in offset.iter_mut().enumerate() {
                *o = (chunk.corner()[d] - split.corner()[d]) as usize;
            }
            let shape = chunk.shape().extents();
            let inner = shape[rank - 1] as usize;
            let last = &self.tables[rank - 1][offset[rank - 1]..offset[rank - 1] + inner];
            // The first position maps to a key, and each next one to
            // the key after it. Without the first half, a one-wide
            // chunk at a stride gap would pass.
            let consecutive = last[0] < NONE && (last.iter().zip(last[0]..)).all(|(&t, k)| t == k);
            // Odometer over the chunk's outer dimensions, row by row.
            pos.fill(0);
            for row in data.chunks_exact(inner * E::SIZE) {
                let base: u64 = (0..rank - 1)
                    .map(|d| self.tables[d][offset[d] + pos[d]])
                    .sum();
                if base < NONE {
                    f(last, consecutive, base, row);
                }
                for d in (0..rank - 1).rev() {
                    pos[d] += 1;
                    if (pos[d] as u64) < shape[d] {
                        break;
                    }
                    pos[d] = 0;
                }
            }
        })
    }

    /// Calls `f(index, value)` for each kept record of `split`, read
    /// from `input`, in reader order: its image index and its value. A
    /// record that maps to no image key, or that a filter's
    /// `value > predicate_gt` drops, is not kept.
    fn for_each_kept<E: Element>(
        &self,
        input: &Input,
        split: &Slab,
        predicate_gt: Option<f64>,
        mut f: impl FnMut(usize, f64),
    ) -> crate::Result<()> {
        self.for_each_row::<E>(input, split, |last, _, base, row| {
            for (v, &t) in row.chunks_exact(E::SIZE).zip(last) {
                let idx = base + t;
                if idx >= NONE {
                    continue;
                }
                let v = E::read_le(v).to_f64();
                if predicate_gt.is_some_and(|threshold| v <= threshold) {
                    continue;
                }
                f(idx as usize, v);
            }
        })
    }

    /// Each image key's record count from geometry alone: the product,
    /// over dimensions, of how many split positions map to the key's
    /// coordinate along that dimension: the records the key
    /// represents, all of them kept unless a filter drops some.
    fn geometric_counts(&self) -> Vec<u32> {
        let mut counts = vec![1u32];
        let mut stride = self.keys() as u64;
        for (table, &extent) in self.tables.iter().zip(&self.extents) {
            stride /= extent;
            let mut along = vec![0u32; extent as usize];
            for &t in table.iter().filter(|&&t| t < NONE) {
                along[(t / stride) as usize] += 1;
            }
            let mut next = Vec::with_capacity(counts.len() * along.len());
            for &c in &counts {
                next.extend(along.iter().map(|&a| c * a));
            }
            counts = next;
        }
        counts
    }

    /// Each image key's kept records, counted one by one.
    fn counted<E: Element>(
        &self,
        input: &Input,
        split: &Slab,
        predicate_gt: Option<f64>,
    ) -> crate::Result<Vec<u32>> {
        let mut counts = vec![0u32; self.keys()];
        self.for_each_kept::<E>(input, split, predicate_gt, |i, _| counts[i] += 1)?;
        Ok(counts)
    }

    /// Each image key's values folded in reader order, from `fold`'s
    /// identity: one accumulator per key. One record loop per operator,
    /// so the step inlines into it.
    fn fold_kept<E: Element>(
        &self,
        input: &Input,
        split: &Slab,
        fold: Fold,
    ) -> crate::Result<Vec<f64>> {
        let mut acc = vec![fold.identity(); self.keys()];
        match fold {
            Fold::Min => self.fold_rows::<E>(input, split, &mut acc, |a, v| Fold::Min.step(a, v)),
            Fold::Max => self.fold_rows::<E>(input, split, &mut acc, |a, v| Fold::Max.step(a, v)),
            Fold::Sum => self.fold_rows::<E>(input, split, &mut acc, |a, v| Fold::Sum.step(a, v)),
        }?;
        Ok(acc)
    }

    /// Steps each value of `split` into its key's accumulator in `acc`,
    /// in reader order. A row whose keys are consecutive steps as one
    /// slice, lane by lane: its keys are distinct, so each key still
    /// takes its values in reader order. A fold keeps every value, so
    /// neither loop tests a predicate, and the closure owns `acc`.
    fn fold_rows<E: Element>(
        &self,
        input: &Input,
        split: &Slab,
        acc: &mut [f64],
        step: impl Fn(f64, f64) -> f64,
    ) -> crate::Result<()> {
        self.for_each_row::<E>(input, split, move |last, consecutive, base, row| {
            let values = row.chunks_exact(E::SIZE).map(|v| E::read_le(v).to_f64());
            if consecutive {
                let at = (base + last[0]) as usize;
                for (a, v) in acc[at..at + last.len()].iter_mut().zip(values) {
                    *a = step(*a, v);
                }
            } else {
                for (v, &t) in values.zip(last) {
                    let idx = base + t;
                    if idx < NONE {
                        acc[idx as usize] = step(acc[idx as usize], v);
                    }
                }
            }
        })
    }

    /// Calls `f(index, key)` for each image key in row-major order,
    /// which is `K′` key order: its index and its `K′` components,
    /// stepped by an odometer.
    fn for_each_key(&self, mut f: impl FnMut(usize, &[u64])) {
        let mut key = self.corner.clone();
        for i in 0..self.keys() {
            f(i, &key);
            for d in (0..key.len()).rev() {
                key[d] += 1;
                if key[d] < self.corner[d] + self.extents[d] {
                    break;
                }
                key[d] = self.corner[d];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use sidr_coords::Shape;

    use super::*;
    use crate::StructuralQuery;

    fn shape(v: &[u64]) -> Shape {
        Shape::new(v.to_vec()).unwrap()
    }

    /// A split, a query over a space holding it and the mapper: rank
    /// 1–4, an extraction that may leave a discarded partial instance,
    /// stride gaps or a region clipping the split, and a misaligned
    /// split.
    fn geometry() -> impl Strategy<Value = (Slab, StructuralMapper)> {
        (1usize..=4, prop::collection::vec(any::<u64>(), 32)).prop_map(|(rank, draws)| {
            let mut draws = draws.into_iter();
            let mut draw = |n: u64| draws.next().expect("enough draws") % n;
            let space: Vec<u64> = (0..rank).map(|_| 2 + draw(8)).collect();
            let extraction: Vec<u64> = space.iter().map(|&s| (1 + draw(3)).min(s)).collect();
            let query = match draw(3) {
                0 => StructuralQuery::new("v", shape(&space), shape(&extraction), Operator::Sum),
                1 => {
                    let stride = extraction.iter().map(|&e| e + draw(3)).collect();
                    let (space, extraction) = (shape(&space), shape(&extraction));
                    StructuralQuery::with_stride("v", space, extraction, stride, Operator::Sum)
                }
                _ => {
                    let (mut corner, mut extent) = (Vec::new(), Vec::new());
                    for d in 0..rank {
                        let c = draw(space[d] - extraction[d] + 1);
                        corner.push(c);
                        extent.push(extraction[d] + draw(space[d] - c - extraction[d] + 1));
                    }
                    let region = Slab::new(Coord::new(corner), shape(&extent)).unwrap();
                    let extraction = shape(&extraction);
                    StructuralQuery::over_region(
                        "v",
                        &shape(&space),
                        region,
                        extraction,
                        Operator::Sum,
                    )
                }
            }
            .unwrap();
            let (mut corner, mut extent) = (Vec::new(), Vec::new());
            for &s in &space {
                let c = draw(s);
                corner.push(c);
                extent.push(1 + draw(s - c));
            }
            let split = Slab::new(Coord::new(corner), shape(&extent)).unwrap();
            (split, StructuralMapper::for_query(&query))
        })
    }

    /// The split's [`read_chunks`], held, each holding `value(i)` for
    /// its `i`-th record in reader order.
    fn chunks(split: &Slab, value: impl Fn(usize) -> f64) -> Input<'static> {
        let mut i = 0;
        Input::Held(
            read_chunks(split)
                .into_iter()
                .map(|chunk| {
                    let range = i..i + chunk.count() as usize;
                    let data = range.flat_map(|i| value(i).to_le_bytes()).collect();
                    i += chunk.count() as usize;
                    (chunk, data)
                })
                .collect(),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn geometric_counts_equal_the_counting_pass((split, mapper) in geometry()) {
            if let Some(image) = Image::of(&split, &mapper).unwrap() {
                let chunks = chunks(&split, |_| 0.0);
                let counted = image.counted::<f64>(&chunks, &split, None).unwrap();
                prop_assert_eq!(image.geometric_counts(), counted);
            }
        }
    }

    /// Keys whose coordinate no split position maps to count zero: a
    /// hand-built image of 2 × 3 keys where position 1 of dimension 0
    /// is a stride gap and key column 1 is fed by no position.
    #[test]
    fn geometric_counts_keep_zero_count_keys() {
        let image = Image {
            corner: vec![4, 0],
            extents: vec![2, 3],
            tables: vec![vec![0, NONE, 3, 3], vec![0, 0, 2, NONE, 0]],
        };
        let split = Slab::new(Coord::from([0, 0]), shape(&[4, 5])).unwrap();
        let chunks = chunks(&split, |_| 0.0);
        assert_eq!(image.geometric_counts(), vec![3, 0, 1, 6, 0, 2]);
        assert_eq!(
            image.geometric_counts(),
            image.counted::<f64>(&chunks, &split, None).unwrap()
        );
    }

    /// Each row's `consecutive` flag, in reader order.
    fn consecutive_rows(image: &Image, input: &Input, split: &Slab) -> Vec<bool> {
        let mut rows = Vec::new();
        (image.for_each_row::<f64>(input, split, |_, consecutive, _, _| rows.push(consecutive)))
            .unwrap();
        rows
    }

    /// Each fold of `input` is `reduce_group` over each key's run in
    /// reader order, bit for bit.
    fn assert_folds_equal_reduce_group(image: &Image, input: &Input, split: &Slab) {
        let mut runs = vec![Vec::new(); image.keys()];
        (image.for_each_kept::<f64>(input, split, None, |i, v| runs[i].push(v))).unwrap();
        for op in [Operator::Min, Operator::Max, Operator::Sum] {
            let folded = image.fold_kept::<f64>(input, split, op.fold().unwrap());
            for (run, acc) in runs.iter().zip(&folded.unwrap()) {
                let want = op.apply(run);
                assert_eq!(acc.to_bits(), want[0].to_bits(), "{op:?} over {run:?}");
            }
        }
    }

    /// The streamed fold is `reduce_group` over each key's run in
    /// reader order, bit for bit: both zeros, opposite signs and sums
    /// whose order shows in their bits, keys spanning read chunks. An
    /// innermost extraction of 1 maps each row to consecutive keys, so
    /// its rows take the row step; one of 10 steps value by value.
    #[test]
    fn streamed_fold_equals_reduce_group_on_the_run() {
        const VALUES: [f64; 8] = [-0.0, 0.0, 1e16, -1e16, 1.0, -1.0, 0.1, -0.0];
        let split = Slab::whole(&shape(&[6, 130]));
        for extraction in [[3, 10], [3, 1], [2, 1], [1, 1]] {
            let query =
                StructuralQuery::new("v", shape(&[6, 130]), shape(&extraction), Operator::Sum);
            let mapper = StructuralMapper::for_query(&query.unwrap());
            let image = Image::of(&split, &mapper).unwrap().unwrap();
            for seed in 0..4 {
                let chunks = chunks(&split, |i| VALUES[(i * 7 + seed + i / 13) % VALUES.len()]);
                let rows = consecutive_rows(&image, &chunks, &split);
                assert!(
                    rows.iter().all(|&c| c == (extraction[1] == 1)),
                    "{extraction:?}"
                );
                assert_folds_equal_reduce_group(&image, &chunks, &split);
            }
        }
    }

    /// A one-wide chunk whose only position maps to no key is not a
    /// row of consecutive keys: it takes the per-value loop, which
    /// skips it. A hand-built image of 2 × 3 keys over a 4 × 5 split,
    /// read in chunks 2, 1, 1 and 1 positions wide, where positions 2
    /// and 4 of the inner dimension are stride gaps.
    #[test]
    fn a_one_wide_chunk_at_a_gap_folds_value_by_value() {
        let image = Image {
            corner: vec![0, 0],
            extents: vec![2, 3],
            tables: vec![vec![0, 0, 3, 3], vec![0, 1, NONE, 2, NONE]],
        };
        let split = Slab::new(Coord::from([0, 0]), shape(&[4, 5])).unwrap();
        let widths: Vec<u64> = read_chunks(&split).iter().map(|c| c.shape()[1]).collect();
        assert_eq!(widths, [2, 1, 1, 1]);
        let chunks = chunks(&split, |i| [-0.0, 1e16, 0.0, -1e16, 0.1][i % 5]);
        let rows = consecutive_rows(&image, &chunks, &split);
        let by_chunk: Vec<&[bool]> = rows.chunks(4).collect();
        assert_eq!(by_chunk, [[true; 4], [false; 4], [true; 4], [false; 4]]);
        assert_folds_equal_reduce_group(&image, &chunks, &split);
    }
}
