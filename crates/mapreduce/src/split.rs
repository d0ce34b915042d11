//! Input splits and split generation.
//!
//! Hadoop defines an InputSplit as byte-ranges in a file; SciHadoop
//! defines it as a corner+shape slab in logical coordinates, making
//! the split and the key set it produces the same object (`Iᵢ ≡ K_Tᵢ`,
//! §2.4.1). A split here is only its slab — that is what the
//! RecordReader consumes; where a map's bytes live matters only to the
//! cluster simulator, which derives them itself. The generation style
//! stays visible because split *alignment* is what separates stock
//! Hadoop from SciHadoop in the evaluation:
//!
//! * [`SplitGenerator::naive_linear`] — byte-range-style: the
//!   row-major linearized space is chopped into equal runs with no
//!   regard for array or extraction-shape boundaries (stock Hadoop
//!   over scientific files).
//! * [`SplitGenerator::aligned`] — SciHadoop: split boundaries snap to
//!   extraction-shape instance boundaries along the leading dimension,
//!   so a `k′` key's inputs rarely straddle splits.

use serde::{Deserialize, Serialize};

use sidr_coords::{Coord, Shape, Slab};

use crate::error::MrError;
use crate::Result;

/// Identifier of a Map task (also indexes its input split: Hadoop
/// assigns each split to exactly one Map task, §2.3).
pub type MapTaskId = usize;

/// One unit of Map input: a slab of the input space, the same object
/// as the keys it produces (`Iᵢ ≡ K_Tᵢ`).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct InputSplit {
    /// The split's extent in logical coordinates (`Iᵢ`).
    pub slab: Slab,
}

impl InputSplit {
    /// Number of records this split produces (`|K_Tᵢ|`).
    pub fn record_count(&self) -> u64 {
        self.slab.count()
    }
}

/// Generates input splits for a variable of a dataset.
pub struct SplitGenerator {
    space: Shape,
    /// The query's input region `T` — a sub-slab of `space` (§2.1:
    /// units of work are corner+shape pairs "in the input data set").
    /// Defaults to the whole space.
    region: Slab,
    element_size: u64,
}

impl SplitGenerator {
    /// A generator over `space` with `element_size`-byte elements.
    pub fn new(space: Shape, element_size: u64) -> Self {
        SplitGenerator {
            region: Slab::whole(&space),
            space,
            element_size,
        }
    }

    /// Restricts split generation to a sub-region of the space (the
    /// query's input set `T`).
    pub fn for_region(mut self, region: Slab) -> Result<Self> {
        if !Slab::whole(&self.space).contains_slab(&region) {
            return Err(MrError::BadConfig(format!(
                "region {region} exceeds the variable space {}",
                self.space
            )));
        }
        self.region = region;
        Ok(self)
    }

    /// Target elements per split for a byte budget (e.g. one 128 MB
    /// HDFS block).
    pub fn elements_per_split(&self, split_bytes: u64) -> u64 {
        (split_bytes / self.element_size).max(1)
    }

    /// Stock-Hadoop-style naive splits: equal row-major runs of the
    /// region, boundaries wherever the byte budget lands. Returns
    /// rectangular slabs; runs that would not be rectangular are
    /// rounded to whole rows of the trailing dimensions, mirroring how
    /// byte-range splits land on arbitrary record boundaries.
    pub fn naive_linear(&self, split_bytes: u64) -> Result<Vec<InputSplit>> {
        self.rows_splits(self.rows_per_split(split_bytes, 1))
    }

    /// SciHadoop-style splits: like [`SplitGenerator::naive_linear`]
    /// but boundaries snap to multiples of `align` rows (the leading
    /// extent of the query's extraction shape), so extraction
    /// instances do not straddle splits. "SciHadoop... leveraging
    /// scientific metadata to make more informed decisions during
    /// input split generation" (§2.4).
    pub fn aligned(&self, split_bytes: u64, align: u64) -> Result<Vec<InputSplit>> {
        if align == 0 {
            return Err(MrError::BadConfig("alignment must be > 0".into()));
        }
        self.rows_splits(self.rows_per_split(split_bytes, align))
    }

    /// Rows of the region per split for a byte budget, snapped down to
    /// `align` (but at least `align`).
    fn rows_per_split(&self, split_bytes: u64, align: u64) -> u64 {
        let per_split = self.elements_per_split(split_bytes);
        let row_elems: u64 = self.region.shape().extents()[1..].iter().product();
        let rows = (per_split / row_elems.max(1)).max(1);
        (rows / align).max(1) * align
    }

    /// Chops the region along its leading dimension in runs of
    /// `rows_per_split` rows.
    fn rows_splits(&self, rows_per_split: u64) -> Result<Vec<InputSplit>> {
        let lead = self.region.shape()[0];
        let mut out = Vec::with_capacity(lead.div_ceil(rows_per_split) as usize);
        let mut row = 0u64;
        while row < lead {
            let take = rows_per_split.min(lead - row);
            let mut corner = self.region.corner().components().to_vec();
            corner[0] += row;
            let mut extents = self.region.shape().extents().to_vec();
            extents[0] = take;
            let slab = Slab::new(Coord::new(corner), Shape::new(extents)?)?;
            debug_assert!(self.region.contains_slab(&slab));
            out.push(InputSplit { slab });
            row += take;
        }
        Ok(out)
    }

    /// Exactly `n` splits of near-equal size along the region's
    /// longest dimension (used by tests and the simulator, where a
    /// precise task count matters more than a byte budget).
    pub fn exact_count(&self, n: u64) -> Result<Vec<InputSplit>> {
        if n == 0 {
            return Err(MrError::BadConfig("split count must be > 0".into()));
        }
        let slabs = self.region.split_along_longest(n).into_iter();
        Ok(slabs.map(|slab| InputSplit { slab }).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(v: &[u64]) -> Shape {
        Shape::new(v.to_vec()).unwrap()
    }

    #[test]
    fn naive_splits_cover_space_disjointly() {
        let g = SplitGenerator::new(shape(&[100, 10, 10]), 8);
        let splits = g.naive_linear(10 * 10 * 8 * 7).unwrap();
        let total: u64 = splits.iter().map(InputSplit::record_count).sum();
        assert_eq!(total, 100 * 10 * 10);
        for (i, a) in splits.iter().enumerate() {
            for b in &splits[i + 1..] {
                assert!(!a.slab.intersects(&b.slab));
            }
        }
        // 7 rows per split over 100 rows → 15 splits.
        assert_eq!(splits.len(), 15);
    }

    #[test]
    fn aligned_splits_snap_to_extraction_boundary() {
        let g = SplitGenerator::new(shape(&[100, 10, 10]), 8);
        // Budget of 7 rows, alignment 2 → 6 rows per split.
        let splits = g.aligned(10 * 10 * 8 * 7, 2).unwrap();
        for s in &splits[..splits.len() - 1] {
            assert_eq!(s.slab.corner()[0] % 2, 0);
            assert_eq!(s.slab.shape()[0] % 2, 0);
        }
        let total: u64 = splits.iter().map(InputSplit::record_count).sum();
        assert_eq!(total, 100 * 10 * 10);
    }

    #[test]
    fn exact_count_produces_n() {
        let g = SplitGenerator::new(shape(&[40, 4]), 8);
        let splits = g.exact_count(8).unwrap();
        assert_eq!(splits.len(), 8);
        let total: u64 = splits.iter().map(InputSplit::record_count).sum();
        assert_eq!(total, 160);
    }

    #[test]
    fn zero_alignment_rejected() {
        let g = SplitGenerator::new(shape(&[10, 4]), 8);
        assert!(g.aligned(64, 0).is_err());
    }
}
