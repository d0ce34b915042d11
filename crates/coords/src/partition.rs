//! Contiguous, skew-bounded partition geometry — the heart of
//! `partition+` (§3.1, Fig. 7).
//!
//! Given the exact intermediate keyspace `K′ᵀ` of a structural query,
//! `partition+`:
//!
//! 1. picks an n-dimensional *skew shape* whose element count is below
//!    the permissible skew bound,
//! 2. tiles `K′ᵀ` with it, counting the instances (`IntShapes`),
//! 3. deals contiguous row-major runs of `⌈IntShapes / r⌉` instances to
//!    each of the `r` keyblocks — the final partition is allowed to be
//!    smaller "so that the other partitions consist of simpler shapes
//!    (making routing logic simpler) while also reducing the load on
//!    the last Reduce task".
//!
//! Keyblocks therefore differ by at most one skew-shape instance, and
//! every keyblock is a contiguous row-major range of `K′` — which is
//! what makes Reduce output dense and contiguous (§4.4).

use serde::{Deserialize, Serialize};

use crate::coord::Coord;
use crate::error::CoordError;
use crate::shape::Shape;
use crate::slab::Slab;
use crate::tiling::{PartialPolicy, Tiling};
use crate::Result;

/// Identifier of a keyblock (and of the Reduce task that owns it).
pub type KeyblockId = usize;

/// A contiguous partition of an intermediate keyspace into `r`
/// keyblocks.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ContiguousPartition {
    space: Shape,
    tiling: Tiling,
    num_blocks: usize,
    /// `⌊IntShapes / r⌋` — every block gets at least this many
    /// instances.
    base_instances: u64,
    /// `IntShapes mod r` — the first `remainder` blocks get one extra
    /// instance, so blocks differ by at most one instance and later
    /// blocks (including the final one) are never larger (§3.1).
    remainder: u64,
}

impl ContiguousPartition {
    /// Partitions `space` (= `K′ᵀ`) into `num_blocks` keyblocks using
    /// `skew_shape` as the dealing unit. The skew shape is clipped at
    /// the space boundary so every key belongs to exactly one block.
    pub fn new(space: Shape, skew_shape: Shape, num_blocks: usize) -> Result<Self> {
        if num_blocks == 0 {
            return Err(CoordError::ZeroPartitions);
        }
        let tiling = Tiling::new(space.clone(), skew_shape, PartialPolicy::Clip)?;
        let instances = tiling.instance_count();
        let base_instances = instances / num_blocks as u64;
        let remainder = instances % num_blocks as u64;
        Ok(ContiguousPartition {
            space,
            tiling,
            num_blocks,
            base_instances,
            remainder,
        })
    }

    /// Builds a partition with a skew shape chosen automatically for a
    /// permissible skew of at most `skew_bound` keys (§3.1: the system
    /// "creates an n-dimensional shape whose total size is smaller
    /// than that upper bound").
    pub fn with_skew_bound(space: Shape, num_blocks: usize, skew_bound: u64) -> Result<Self> {
        let skew_shape = choose_skew_shape(&space, skew_bound)?;
        Self::new(space, skew_shape, num_blocks)
    }

    /// The partitioned space `K′ᵀ`.
    pub fn space(&self) -> &Shape {
        &self.space
    }

    /// The skew shape used as the dealing unit.
    pub fn skew_shape(&self) -> &Shape {
        self.tiling.tile()
    }

    /// The skew-shape tiling of `K′ᵀ` (dealing-unit geometry).
    pub fn tiling(&self) -> &Tiling {
        &self.tiling
    }

    /// Number of keyblocks (`r`, the Reduce task count).
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    /// Total skew-shape instances (`IntShapes` in Fig. 7).
    pub fn instance_count(&self) -> u64 {
        self.tiling.instance_count()
    }

    /// `⌊IntShapes / r⌋`: instances every block receives.
    pub fn base_instances(&self) -> u64 {
        self.base_instances
    }

    /// `IntShapes mod r`: blocks receiving one extra instance.
    pub fn remainder_blocks(&self) -> u64 {
        self.remainder
    }

    /// The keyblock owning intermediate key `k′`.
    pub fn keyblock_of_key(&self, k_prime: &Coord) -> Result<KeyblockId> {
        let idx = self
            .tiling
            .instance_index_of(k_prime)?
            .expect("Clip policy covers every key");
        Ok(self.keyblock_of_instance(idx))
    }

    /// The keyblock owning skew-shape instance `idx`.
    pub fn keyblock_of_instance(&self, idx: u64) -> KeyblockId {
        // First `remainder` blocks hold base+1 instances each, the
        // rest hold base.
        let threshold = self.remainder * (self.base_instances + 1);
        if idx < threshold {
            (idx / (self.base_instances + 1)) as usize
        } else {
            debug_assert!(self.base_instances > 0, "index beyond dealt instances");
            (self.remainder + (idx - threshold) / self.base_instances) as usize
        }
    }

    /// The row-major instance run `[start, end)` of keyblock `id`.
    /// When there are more blocks than instances, trailing blocks get
    /// an empty run.
    pub fn block_run(&self, id: KeyblockId) -> (u64, u64) {
        let id = id as u64;
        let (start, end) = if id < self.remainder {
            let s = id * (self.base_instances + 1);
            (s, s + self.base_instances + 1)
        } else {
            let s = self.remainder * (self.base_instances + 1)
                + (id - self.remainder) * self.base_instances;
            (s, s + self.base_instances)
        };
        (start, end)
    }

    /// Minimal slab cover of keyblock `id` in `K′`.
    pub fn block_cover(&self, id: KeyblockId) -> Result<Vec<Slab>> {
        let (start, end) = self.block_run(id);
        self.tiling.run_cover(start, end)
    }

    /// Exact number of `K′` keys in keyblock `id`.
    pub fn block_key_count(&self, id: KeyblockId) -> Result<u64> {
        Ok(self.block_cover(id)?.iter().map(Slab::count).sum())
    }

    /// Observed skew: `max - min` key count across *non-empty*
    /// keyblocks. The partition guarantees this is at most one
    /// skew-shape instance (§3.1).
    pub fn max_skew(&self) -> Result<u64> {
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        for id in 0..self.num_blocks {
            let c = self.block_key_count(id)?;
            if c == 0 {
                continue;
            }
            lo = lo.min(c);
            hi = hi.max(c);
        }
        if hi == 0 {
            return Ok(0);
        }
        Ok(hi - lo)
    }
}

/// Chooses a row-major-contiguous skew shape of at most `bound`
/// elements: full extents are taken from the innermost (fastest-
/// varying) dimensions while they fit, then the next dimension is
/// truncated to use the remaining budget. The result tiles `K′` in
/// simple contiguous runs, which is exactly the "simpler shapes"
/// trade-off footnote 1 of §3.1 describes.
pub fn choose_skew_shape(space: &Shape, bound: u64) -> Result<Shape> {
    if bound == 0 {
        return Err(CoordError::SkewBoundTooSmall { bound });
    }
    let rank = space.rank();
    let mut extents = vec![1u64; rank];
    let mut budget = bound;
    for dim in (0..rank).rev() {
        let e = space[dim];
        if budget == 1 {
            break;
        }
        let take = e.min(budget);
        extents[dim] = take;
        if take < e {
            // Partial dimension: outer dims stay at 1.
            break;
        }
        budget /= e;
    }
    Shape::new(extents)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(v: &[u64]) -> Shape {
        Shape::new(v.to_vec()).unwrap()
    }

    #[test]
    fn choose_skew_shape_row_major_greedy() {
        let s = choose_skew_shape(&shape(&[52, 50, 200]), 1000).unwrap();
        assert_eq!(s, shape(&[1, 5, 200]));
        assert!(s.count() <= 1000);
    }

    #[test]
    fn choose_skew_shape_tiny_bound() {
        let s = choose_skew_shape(&shape(&[10, 10]), 1).unwrap();
        assert_eq!(s, shape(&[1, 1]));
    }

    #[test]
    fn choose_skew_shape_huge_bound_is_whole_space() {
        let s = choose_skew_shape(&shape(&[4, 5]), 1_000_000).unwrap();
        assert_eq!(s, shape(&[4, 5]));
    }

    #[test]
    fn zero_bound_rejected() {
        assert!(matches!(
            choose_skew_shape(&shape(&[4]), 0),
            Err(CoordError::SkewBoundTooSmall { .. })
        ));
    }

    #[test]
    fn every_key_in_exactly_one_block() {
        let p = ContiguousPartition::with_skew_bound(shape(&[13, 7]), 4, 5).unwrap();
        let mut counts = [0u64; 4];
        for k in shape(&[13, 7]).iter_coords() {
            counts[p.keyblock_of_key(&k).unwrap()] += 1;
        }
        for (id, &c) in counts.iter().enumerate() {
            assert_eq!(c, p.block_key_count(id).unwrap(), "block {id}");
        }
        assert_eq!(counts.iter().sum::<u64>(), 13 * 7);
    }

    #[test]
    fn blocks_are_contiguous_in_row_major_order() {
        // Keys in block order must be non-decreasing in linear index:
        // walking K' row-major, the block id never decreases.
        let space = shape(&[6, 8]);
        let p = ContiguousPartition::with_skew_bound(space.clone(), 3, 8).unwrap();
        let mut last_block = 0;
        for k in space.iter_coords() {
            let b = p.keyblock_of_key(&k).unwrap();
            assert!(b >= last_block, "block id decreased at {k}");
            last_block = b;
        }
    }

    #[test]
    fn skew_bounded_by_one_instance() {
        let p = ContiguousPartition::with_skew_bound(shape(&[52, 50, 200]), 22, 1000).unwrap();
        let skew = p.max_skew().unwrap();
        assert!(
            skew <= p.skew_shape().count(),
            "skew {skew} exceeds one instance ({})",
            p.skew_shape().count()
        );
    }

    #[test]
    fn final_block_is_smaller_not_larger() {
        // 10 instances over 4 blocks: 3,3,2,2 — blocks differ by at
        // most one instance and the final block is never the largest.
        let p = ContiguousPartition::new(shape(&[10]), shape(&[1]), 4).unwrap();
        let runs: Vec<(u64, u64)> = (0..4).map(|i| p.block_run(i)).collect();
        assert_eq!(runs, vec![(0, 3), (3, 6), (6, 8), (8, 10)]);
        let sizes: Vec<u64> = runs.iter().map(|(s, e)| e - s).collect();
        assert!(sizes.windows(2).all(|w| w[0] >= w[1]));
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn keyblock_of_instance_matches_block_run() {
        for (instances, blocks) in [(10u64, 4usize), (520, 22), (7, 7), (3, 5), (100, 1)] {
            let p = ContiguousPartition::new(shape(&[instances]), shape(&[1]), blocks).unwrap();
            for idx in 0..instances {
                let b = p.keyblock_of_instance(idx);
                let (s, e) = p.block_run(b);
                assert!(
                    idx >= s && idx < e,
                    "instance {idx} not in run of block {b}"
                );
            }
        }
    }

    #[test]
    fn more_blocks_than_instances_leaves_empties() {
        let p = ContiguousPartition::new(shape(&[3]), shape(&[1]), 5).unwrap();
        let counts: Vec<u64> = (0..5).map(|i| p.block_key_count(i).unwrap()).collect();
        assert_eq!(counts, vec![1, 1, 1, 0, 0]);
    }

    #[test]
    fn block_cover_partitions_space() {
        let space = shape(&[9, 4]);
        let p = ContiguousPartition::with_skew_bound(space.clone(), 3, 4).unwrap();
        let mut total = 0u64;
        for id in 0..3 {
            for s in p.block_cover(id).unwrap() {
                total += s.count();
                // Cover slabs of different blocks must not overlap.
                for other in 0..3 {
                    if other == id {
                        continue;
                    }
                    for os in p.block_cover(other).unwrap() {
                        assert!(!s.intersects(&os));
                    }
                }
            }
        }
        assert_eq!(total, space.count());
    }

    #[test]
    fn paper_scale_partition_query1() {
        // Query 1 intermediate space {3600,10,20,5} with 22, 528 blocks.
        let space = shape(&[3600, 10, 20, 5]);
        for r in [22usize, 66, 176, 528] {
            let p = ContiguousPartition::with_skew_bound(space.clone(), r, 1000).unwrap();
            assert!(p.max_skew().unwrap() <= p.skew_shape().count());
            let total: u64 = (0..r).map(|i| p.block_key_count(i).unwrap()).sum();
            assert_eq!(total, space.count());
        }
    }
}
