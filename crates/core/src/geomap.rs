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
//! 1. reads the split in [`read_chunks`] order and gives each record
//!    its row-major index in the split's *image*, the slab of `K′` keys
//!    the split touches ([`Tiling::instances_touched_by`]). The index is
//!    a sum of per-dimension table entries: no per-record `Coord`,
//!    division or allocation. Partial instances, stride gaps, records
//!    outside the query region and push-down filter misses get none;
//! 2. counts each image key's kept records in one pass over them;
//! 3. routes once per image key, not once per record: `partition+`
//!    under SIDR, the stock hash-modulo under Hadoop and SciHadoop;
//!    then lays out each reducer's partition through the one SMOF v4
//!    writer ([`SmofWriter`]), exactly sized: its header, one run-table
//!    entry per key (packed from the odometer that stepped the route),
//!    and a byte cursor per key into its values region;
//! 4. places: a second pass over the same kept records, in reader
//!    order, writes each value's 8 bytes once, at its key's cursor, so
//!    a key's values keep reader order. A distributive operator fills
//!    one key-ordered `f64` column instead; each run is folded there in
//!    place with [`Operator::reduce_group`] to its one value, which is
//!    copied into its partition. Each partition is then sealed with its
//!    CRC.
//!
//! The bytes are exactly those of a per-record map — each record
//! through the structural map, routed by the same partition function,
//! each reducer's pairs stably sorted by key and each run folded, then
//! `encode_map_output` — which `tests/geomap.rs` keeps as the kernel's
//! reference and pins for both routes. Transient memory is the split's
//! input (held between the passes) and 16 bytes per image key, beside
//! the output partitions themselves; a fold adds the 8-byte column,
//! after which the input is dropped. `tests/alloc.rs` in `sidr-bench`
//! pins the bound. A per-record map holds a `(Coord, f64)` row and a
//! heap-allocated key per record (≈ 56 bytes at rank 3).
//!
//! [`Tiling::instances_touched_by`]: sidr_coords::Tiling::instances_touched_by

use sidr_coords::{Coord, Slab};
use sidr_mapreduce::shuffle_file::SmofWriter;
use sidr_mapreduce::MrError;
use sidr_scifile::{read_chunks, Element, ScincFile};

use crate::exec::MapAttemptOutput;
use crate::operators::Operator;
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
/// its reducer), as one encoded SMOF v4 partition per non-empty
/// reducer. `fold` is the query's operator when it is distributive:
/// each key's run is then folded map-side to one value.
pub fn map_split<E: Element>(
    file: &ScincFile,
    variable: &str,
    split: &Slab,
    mapper: &StructuralMapper,
    num_reducers: usize,
    keyblock_of: impl Fn(&[u64]) -> usize,
    fold: Option<Operator>,
) -> crate::Result<MapAttemptOutput> {
    debug_assert!(fold.is_none_or(|op| op.is_distributive()));
    let records_in = split.count();
    let mut out = MapAttemptOutput {
        partitions: Vec::new(),
        records_in,
        records_out: 0,
    };
    let Some(image) = Image::of(split, mapper)? else {
        return Ok(out); // the split feeds no K' key
    };
    let mut chunks = read_chunks(split)
        .into_iter()
        .map(|chunk| {
            let data = file.read_slab::<E>(variable, &chunk)?;
            Ok((chunk, data))
        })
        .collect::<crate::Result<Vec<_>>>()?;
    let predicate_gt = mapper.predicate_gt;

    // Count: each image key's kept records.
    let mut counts = vec![0u32; image.keys()];
    image.for_each_kept(&chunks, split, predicate_gt, |i, _| counts[i] += 1);
    out.records_out = counts.iter().map(|&n| u64::from(n)).sum();

    // Route once per image key.
    let mut route = vec![0u32; counts.len()];
    let mut raw = vec![0u64; num_reducers];
    image.for_each_key(|i, key| {
        if counts[i] > 0 {
            let r = keyblock_of(key);
            route[i] = r as u32;
            raw[r] += u64::from(counts[i]);
        }
    });

    // Per image key, where its next value goes: with a fold, its place
    // in one key-ordered column, where each run is then folded to one
    // value (`cursor` is left at the folded run's start and `counts`
    // at 1).
    let mut cursor = vec![0usize; counts.len()];
    let mut column = Vec::new();
    if let Some(op) = fold {
        let mut next = 0;
        for (c, &n) in cursor.iter_mut().zip(&counts) {
            *c = next;
            next += n as usize;
        }
        column = vec![0.0; next];
        image.for_each_kept(&chunks, split, predicate_gt, |i, v| {
            column[cursor[i]] = v;
            cursor[i] += 1;
        });
        chunks = Vec::new(); // every kept value is in the column now
        for (c, n) in cursor.iter_mut().zip(counts.iter_mut()) {
            if *n > 0 {
                let at = *c - *n as usize;
                let mut folded = None;
                op.reduce_group(&mut column[at..*c], &mut |v| folded = Some(v));
                column[at] = folded.expect("a distributive operator folds a run to one value");
                (*c, *n) = (at, 1);
            }
        }
    }

    // Lay out each reducer's partition: header, then one run-table
    // entry per key, packed from the odometer.
    let (mut records, mut runs) = (vec![0usize; num_reducers], vec![0usize; num_reducers]);
    for (&n, &r) in counts.iter().zip(&route) {
        if n > 0 {
            records[r as usize] += n as usize;
            runs[r as usize] += 1;
        }
    }
    let key_width = 8 * image.corner.len();
    let mut writers: Vec<Option<SmofWriter>> = (0..num_reducers)
        .map(|r| {
            let (raw, records, runs) = (raw[r], records[r], runs[r]);
            (runs > 0).then(|| SmofWriter::new(raw, records, runs, key_width, VALUE_WIDTH))
        })
        .collect();
    image.for_each_key(|i, key| {
        if counts[i] > 0 {
            let writer = writers[route[i] as usize].as_mut();
            let writer = writer.expect("a reducer with runs has a writer");
            writer.push_run(counts[i] as usize, |slot| Coord::pack_words(key, slot));
        }
    });

    // Place: each value's bytes written once, into its partition's
    // values region. `next` is each reducer's fill, in key order.
    let mut regions: Vec<&mut [u8]> = writers
        .iter_mut()
        .map(|w| w.as_mut().map_or(&mut [][..], SmofWriter::values_mut))
        .collect();
    let mut next = vec![0usize; num_reducers];
    if fold.is_none() {
        // Each key's byte cursor, then the values in reader order.
        for ((c, &n), &r) in cursor.iter_mut().zip(&counts).zip(&route) {
            *c = next[r as usize];
            next[r as usize] += n as usize * VALUE_WIDTH;
        }
        image.for_each_kept(&chunks, split, predicate_gt, |i, v| {
            let at = cursor[i];
            regions[route[i] as usize][at..at + VALUE_WIDTH].copy_from_slice(&v.to_le_bytes());
            cursor[i] = at + VALUE_WIDTH;
        });
    } else {
        for ((&at, &n), &r) in cursor.iter().zip(&counts).zip(&route) {
            let (r, n) = (r as usize, n as usize);
            let slots =
                regions[r][next[r]..next[r] + n * VALUE_WIDTH].chunks_exact_mut(VALUE_WIDTH);
            for (slot, v) in slots.zip(&column[at..at + n]) {
                slot.copy_from_slice(&v.to_le_bytes());
            }
            next[r] += n * VALUE_WIDTH;
        }
    }
    out.partitions = writers
        .into_iter()
        .enumerate()
        .filter_map(|(r, w)| Some((r, w?.seal())))
        .collect();
    Ok(out)
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

    /// Calls `f(index, value)` for each kept record of `chunks` (the
    /// split's [`read_chunks`] and their data), in reader order: its
    /// image index and its value. A record that maps to no image key,
    /// or that the push-down filter `value > predicate_gt` drops, is
    /// not kept.
    fn for_each_kept<E: Element>(
        &self,
        chunks: &[(Slab, Vec<E>)],
        split: &Slab,
        predicate_gt: Option<f64>,
        mut f: impl FnMut(usize, f64),
    ) {
        let rank = self.corner.len();
        for (chunk, data) in chunks {
            let offset: Vec<usize> = (0..rank)
                .map(|d| (chunk.corner()[d] - split.corner()[d]) as usize)
                .collect();
            let shape = chunk.shape().extents();
            let inner = shape[rank - 1] as usize;
            let last = &self.tables[rank - 1][offset[rank - 1]..offset[rank - 1] + inner];
            // Odometer over the chunk's outer dimensions, row by row.
            let mut pos = vec![0usize; rank - 1];
            for row in data.chunks_exact(inner) {
                let base: u64 = (0..rank - 1)
                    .map(|d| self.tables[d][offset[d] + pos[d]])
                    .sum();
                if base < NONE {
                    for (v, &t) in row.iter().zip(last) {
                        let idx = base + t;
                        if idx >= NONE {
                            continue;
                        }
                        let v = v.to_f64();
                        if predicate_gt.is_some_and(|threshold| v <= threshold) {
                            continue;
                        }
                        f(idx as usize, v);
                    }
                }
                for d in (0..rank - 1).rev() {
                    pos[d] += 1;
                    if (pos[d] as u64) < shape[d] {
                        break;
                    }
                    pos[d] = 0;
                }
            }
        }
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
