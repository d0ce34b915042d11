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
//! 2. counting-sorts the values by image index, in place and stably
//!    (a key's values keep reader order);
//! 3. routes once per image key, not once per record: `partition+`
//!    under SIDR, the stock hash-modulo under Hadoop and SciHadoop;
//! 4. folds each key run through the combiner, if any, and writes each
//!    reducer's partition through the one SMOF v4 writer
//!    ([`write_v4`]): one run-table entry per key, then its values.
//!
//! The bytes are exactly those of the per-record path —
//! `run_map_attempt` over a [`StructuralMapper`] and the same partition
//! function, then `encode_map_output` — which `tests/geomap.rs` pins
//! for both routes. Transient memory
//! is 12 bytes per kept record (a `u32` image index and the `f64`
//! value) and 12 per image key, where the per-record path holds a
//! `(Coord, f64)` row and a heap-allocated key per record (≈ 56 bytes
//! at rank 3).
//!
//! [`Tiling::instances_touched_by`]: sidr_coords::Tiling::instances_touched_by

use sidr_coords::{Coord, Slab};
use sidr_mapreduce::shuffle_file::write_v4;
use sidr_mapreduce::{Combiner, MrError};
use sidr_scifile::{read_chunks, Element, ScincFile};

use crate::exec::MapAttemptOutput;
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
/// reducer.
pub fn map_split<E: Element>(
    file: &ScincFile,
    variable: &str,
    split: &Slab,
    mapper: &StructuralMapper,
    num_reducers: usize,
    keyblock_of: impl Fn(&[u64]) -> usize,
    combiner: Option<&dyn Combiner<Key = Coord, Value = f64>>,
) -> crate::Result<MapAttemptOutput> {
    debug_assert!(!mapper.corner_keys, "the kernel routes normalized K' keys");
    let records_in = split.count();
    let mut out = MapAttemptOutput {
        partitions: Vec::new(),
        records_in,
        records_out: 0,
    };
    let Some(image) = Image::of(split, mapper)? else {
        return Ok(out); // the split feeds no K' key
    };
    let sorted = image.scan::<E>(file, variable, split, mapper.predicate_gt)?;
    out.records_out = sorted.values.len() as u64;

    // Route once per image key: each reducer's keys, in key order.
    let mut raw = vec![0u64; num_reducers];
    let mut keys_of: Vec<Vec<u32>> = vec![Vec::new(); num_reducers];
    let mut key = image.corner.clone();
    for (i, &count) in sorted.counts.iter().enumerate() {
        if count > 0 {
            let r = keyblock_of(&key);
            raw[r] += u64::from(count);
            keys_of[r].push(i as u32);
        }
        image.step(&mut key);
    }

    let key_width = 8 * image.corner.len();
    let mut group = Vec::new();
    for (reducer, keys) in keys_of.iter().enumerate() {
        if keys.is_empty() {
            continue;
        }
        let bytes = match combiner {
            None => write_v4(
                raw[reducer],
                raw[reducer] as usize,
                keys.len(),
                key_width,
                VALUE_WIDTH,
                |table| {
                    for &i in keys {
                        let len = sorted.run(i).len();
                        table.push(len, |buf| image.key(i).write_packed(buf));
                    }
                },
                |buf| {
                    for &i in keys {
                        for v in sorted.run(i) {
                            buf.extend_from_slice(&v.to_le_bytes());
                        }
                    }
                },
            ),
            Some(combiner) => {
                // Fold first: the header carries the row and run
                // counts. A key the combiner folds to nothing has no
                // run.
                let mut runs: Vec<(u32, usize)> = Vec::with_capacity(keys.len());
                let mut values: Vec<f64> = Vec::with_capacity(keys.len());
                for &i in keys {
                    group.clear();
                    group.extend_from_slice(sorted.run(i));
                    combiner.combine(&image.key(i), &mut group);
                    if !group.is_empty() {
                        runs.push((i, group.len()));
                        values.extend_from_slice(&group);
                    }
                }
                write_v4(
                    raw[reducer],
                    values.len(),
                    runs.len(),
                    key_width,
                    VALUE_WIDTH,
                    |table| {
                        for &(i, len) in &runs {
                            table.push(len, |buf| image.key(i).write_packed(buf));
                        }
                    },
                    |buf| {
                        for v in &values {
                            buf.extend_from_slice(&v.to_le_bytes());
                        }
                    },
                )
            }
        };
        out.partitions.push((reducer, bytes));
    }
    Ok(out)
}

/// The split's image in `K′` and the per-dimension tables that index
/// it.
struct Image {
    /// The image's low corner in `K′`.
    corner: Vec<u64>,
    /// The image's extents.
    extents: Vec<u64>,
    /// Row-major strides of the image.
    strides: Vec<u64>,
    /// Per split dimension, per position along it: the position's
    /// share of the image index (`(j − corner) × stride`), or [`NONE`].
    tables: Vec<Vec<u64>>,
}

/// The kept values in key order, and where each key's run ends.
struct Sorted {
    values: Vec<f64>,
    counts: Vec<u32>,
    ends: Vec<u32>,
}

impl Sorted {
    /// Image key `i`'s values, in reader order.
    fn run(&self, i: u32) -> &[f64] {
        let end = self.ends[i as usize] as usize;
        &self.values[end - self.counts[i as usize] as usize..end]
    }
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
            strides,
            tables,
        }))
    }

    /// Reads the split and sorts the kept values by image index.
    fn scan<E: Element>(
        &self,
        file: &ScincFile,
        variable: &str,
        split: &Slab,
        predicate_gt: Option<f64>,
    ) -> crate::Result<Sorted> {
        let rank = self.corner.len();
        let image_keys = self.extents.iter().product::<u64>() as usize;
        let mut counts = vec![0u32; image_keys];
        let mut keys: Vec<u32> = Vec::new();
        let mut values: Vec<f64> = Vec::new();
        for chunk in read_chunks(split) {
            let data = file.read_slab::<E>(variable, &chunk)?;
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
                        keys.push(idx as u32);
                        values.push(v);
                        counts[idx as usize] += 1;
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
        // Counting sort: each record's destination row, in reader
        // order (stable), then the values permuted there in place.
        // `ends` starts as each key's first row and, once every record
        // has taken its row, is one past its last.
        let mut ends: Vec<u32> = Vec::with_capacity(image_keys);
        let mut next = 0u32;
        for &c in &counts {
            ends.push(next);
            next += c;
        }
        for k in keys.iter_mut() {
            let dest = &mut ends[*k as usize];
            *k = *dest;
            *dest += 1;
        }
        for i in 0..keys.len() {
            while keys[i] as usize != i {
                let dest = keys[i] as usize;
                values.swap(i, dest);
                keys.swap(i, dest);
            }
        }
        Ok(Sorted {
            values,
            counts,
            ends,
        })
    }

    /// Advances a `K′` coordinate to the next image key, row-major.
    fn step(&self, key: &mut [u64]) {
        for d in (0..key.len()).rev() {
            key[d] += 1;
            if key[d] < self.corner[d] + self.extents[d] {
                return;
            }
            key[d] = self.corner[d];
        }
    }

    /// Image key `i` as a `K′` coordinate.
    fn key(&self, i: u32) -> Coord {
        let mut rest = u64::from(i);
        Coord::new(
            self.corner
                .iter()
                .zip(&self.strides)
                .map(|(&corner, &stride)| {
                    let j = rest / stride;
                    rest %= stride;
                    corner + j
                })
                .collect::<Vec<_>>(),
        )
    }
}
