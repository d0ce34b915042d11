//! `partition+` — SIDR's structure-aware partition function (§3.1).
//!
//! Hadoop's default partitioner takes the key's binary representation
//! modulo the reducer count, so keyblock sizes depend on which keys
//! happen to exist and how the key type hashes — the source of the
//! skew pathology of §4.3. `partition+` instead computes the exact
//! intermediate keyspace `K′ᵀ` from the query and deals *contiguous*
//! row-major runs of a skew-bounded shape to the keyblocks (Fig. 7):
//! balanced by construction, and contiguous so Reduce output is a
//! dense slab (§4.4).

use sidr_coords::{choose_skew_shape, ContiguousPartition, Coord, Shape, Slab};
use sidr_mapreduce::sync::chaos::{self, Mutation};
use sidr_mapreduce::Partitioner;

use crate::query::StructuralQuery;
use crate::Result;

/// The `partition+` function for one query: an immutable, cheap-to-
/// share assignment of `K′` to keyblocks.
///
/// Partitioning runs once per intermediate pair, in-line with Map
/// execution (§4.5), so the per-key path is allocation-free and uses
/// strength-reduced division (invariant multiplication) instead of
/// hardware divides.
///
/// ```
/// use sidr_core::{Operator, PartitionPlus, StructuralQuery};
/// use sidr_coords::{Coord, Shape};
/// use sidr_mapreduce::Partitioner;
///
/// let q = StructuralQuery::new(
///     "temperature",
///     Shape::new(vec![364, 250, 200]).unwrap(),
///     Shape::new(vec![7, 5, 1]).unwrap(),
///     Operator::Mean,
/// ).unwrap();
/// let pp = PartitionPlus::for_query(&q, 22).unwrap();
/// // Keyblocks are balanced to within one dealing unit...
/// assert!(pp.max_skew().unwrap() <= pp.partition().skew_shape().count());
/// // ...and contiguous: the first key of K' belongs to keyblock 0.
/// let first = Coord::from([0, 0, 0]);
/// assert_eq!(Partitioner::partition(&pp, &first, 22), 0);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionPlus {
    partition: ContiguousPartition,
    /// Per-dimension divisor by the skew-shape stride.
    dim_div: Vec<MagicDiv>,
    /// Grid extents, colocated for the hot loop.
    grid: Vec<u64>,
    /// Instance → block: first `remainder` blocks hold `base+1`
    /// instances each, so instances below `threshold` divide by
    /// `base+1` and the rest by `base`.
    threshold: u64,
    remainder: u64,
    div_base_plus_1: MagicDiv,
    div_base: MagicDiv,
}

/// Division by a fixed divisor via the Granlund–Montgomery round-up
/// method: `m = ⌊2⁶⁴/d⌋ + 1`, `n/d = (n·m) >> 64`, exact for all
/// `n·d < 2⁶⁴` — always true here because `n` is a coordinate and `d`
/// a stride of the same space, whose element count fits `u64` by
/// `Shape`'s construction invariant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct MagicDiv {
    d: u64,
    m: u64,
}

impl MagicDiv {
    /// Builds a divisor valid for all dividends up to `max_n`. When
    /// the exactness precondition (`max_n · d < 2⁶⁴`) cannot be
    /// guaranteed, falls back to hardware division (`m == 0`).
    fn new(d: u64, max_n: u64) -> Self {
        debug_assert!(d > 0);
        let m = if d == 1 || (max_n as u128) * (d as u128) >= (1u128 << 64) {
            0
        } else {
            ((1u128 << 64) / d as u128 + 1) as u64
        };
        MagicDiv { d, m }
    }

    #[inline(always)]
    fn div(&self, n: u64) -> u64 {
        if self.m == 0 {
            n / self.d
        } else {
            ((n as u128 * self.m as u128) >> 64) as u64
        }
    }
}

impl PartitionPlus {
    /// Builds `partition+` for a query and reducer count, with a skew
    /// bound "chosen by the system based on the query" (§3.1): one
    /// row-major row of `K′ᵀ`, capped so at least `4·r` dealing units
    /// exist — small enough that blocks differ by a sliver, large
    /// enough that keyblock shapes stay simple.
    pub fn for_query(query: &StructuralQuery, num_reducers: usize) -> Result<Self> {
        let kspace = query.intermediate_space();
        let bound = default_skew_bound(&kspace, num_reducers);
        Self::with_skew_bound(kspace, num_reducers, bound)
    }

    /// Builds `partition+` with a user-supplied skew bound (§3.1:
    /// "either user-defined as part of the query or chosen by the
    /// system").
    pub fn with_skew_bound(kspace: Shape, num_reducers: usize, skew_bound: u64) -> Result<Self> {
        let skew_shape = choose_skew_shape(&kspace, skew_bound)?;
        let partition = ContiguousPartition::new(kspace, skew_shape, num_reducers)?;

        // Strength-reduce the per-key arithmetic.
        let tiling = partition.tiling();
        let dim_div = tiling
            .stride()
            .iter()
            .zip(partition.space().extents())
            .map(|(&s, &extent)| MagicDiv::new(s, extent.saturating_sub(1)))
            .collect();
        let grid = tiling.grid().to_vec();
        let base = partition.base_instances();
        let remainder = partition.remainder_blocks();
        let max_idx = partition.instance_count().saturating_sub(1);
        Ok(PartitionPlus {
            dim_div,
            grid,
            threshold: remainder * (base + 1),
            remainder,
            div_base_plus_1: MagicDiv::new(base + 1, max_idx),
            div_base: MagicDiv::new(base.max(1), max_idx),
            partition,
        })
    }

    /// The underlying contiguous partition (keyblock geometry).
    pub fn partition(&self) -> &ContiguousPartition {
        &self.partition
    }

    /// Number of keyblocks (= Reduce tasks).
    pub fn num_reducers(&self) -> usize {
        self.partition.num_blocks()
    }

    /// The dense slab cover of one keyblock in `K′` — what its Reduce
    /// task writes as contiguous output (§4.4).
    pub fn keyblock_cover(&self, reducer: usize) -> Result<Vec<Slab>> {
        if chaos::on(Mutation::ShortLastCover) && reducer + 1 == self.num_reducers() {
            let (start, end) = self.partition.block_run(reducer);
            return Ok(self
                .partition
                .tiling()
                .run_cover(start, end.saturating_sub(1).max(start))?);
        }
        Ok(self.partition.block_cover(reducer)?)
    }

    /// Exact number of `K′` keys owned by one keyblock.
    pub fn keyblock_key_count(&self, reducer: usize) -> Result<u64> {
        Ok(self.partition.block_key_count(reducer)?)
    }

    /// Observed skew across non-empty keyblocks (≤ one skew-shape
    /// instance by construction when instances are unclipped).
    pub fn max_skew(&self) -> Result<u64> {
        Ok(self.partition.max_skew()?)
    }
}

impl PartitionPlus {
    /// The allocation- and division-free per-key path (§4.5): compute
    /// the skew-shape instance index, then map index → keyblock. `key`
    /// is a `K′` coordinate's components.
    #[inline]
    pub fn keyblock_of(&self, key: &[u64]) -> usize {
        debug_assert_eq!(key.len(), self.grid.len());
        let mut idx = 0u64;
        for (dim, &g) in self.grid.iter().enumerate() {
            let j = self.dim_div[dim].div(key[dim]);
            debug_assert!(j < g, "key outside K'^T");
            idx = idx * g + j;
        }
        if idx < self.threshold {
            self.div_base_plus_1.div(idx) as usize
        } else {
            (self.remainder + self.div_base.div(idx - self.threshold)) as usize
        }
    }
}

impl Partitioner<Coord> for PartitionPlus {
    fn partition(&self, key: &Coord, num_reducers: usize) -> usize {
        debug_assert_eq!(num_reducers, self.partition.num_blocks());
        self.keyblock_of(key.components())
    }
}

/// One row of `K′ᵀ`, shrunk until at least `4·r` dealing units exist.
fn default_skew_bound(kspace: &Shape, num_reducers: usize) -> u64 {
    let total = kspace.count();
    let row: u64 = kspace.extents()[1..].iter().product::<u64>().max(1);
    let target_units = (num_reducers as u64) * 4;
    let mut bound = row;
    while bound > 1 && total / bound < target_units {
        bound /= 2;
    }
    bound.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::Operator;

    fn shape(v: &[u64]) -> Shape {
        Shape::new(v.to_vec()).unwrap()
    }

    fn weekly_query() -> StructuralQuery {
        StructuralQuery::new(
            "temperature",
            shape(&[364, 250, 200]),
            shape(&[7, 5, 1]),
            Operator::Mean,
        )
        .unwrap()
    }

    #[test]
    fn covers_every_key_exactly_once() {
        let q = weekly_query();
        let pp = PartitionPlus::for_query(&q, 22).unwrap();
        let kspace = q.intermediate_space();
        let mut counts = [0u64; 22];
        for k in kspace.iter_coords() {
            counts[Partitioner::partition(&pp, &k, 22)] += 1;
        }
        for (r, &c) in counts.iter().enumerate() {
            assert_eq!(c, pp.keyblock_key_count(r).unwrap(), "reducer {r}");
        }
        assert_eq!(counts.iter().sum::<u64>(), kspace.count());
    }

    #[test]
    fn balanced_within_one_dealing_unit() {
        let q = weekly_query();
        let pp = PartitionPlus::for_query(&q, 22).unwrap();
        let skew = pp.max_skew().unwrap();
        let unit = pp.partition().skew_shape().count();
        assert!(skew <= unit, "skew {skew} > unit {unit}");
    }

    #[test]
    fn keyblocks_are_contiguous_runs() {
        let q = weekly_query();
        let pp = PartitionPlus::for_query(&q, 8).unwrap();
        let kspace = q.intermediate_space();
        let mut last = 0usize;
        for k in kspace.iter_coords() {
            let b = Partitioner::partition(&pp, &k, 8);
            assert!(b >= last, "block decreased at {k}");
            last = b;
        }
    }

    #[test]
    fn default_bound_gives_enough_units() {
        let kspace = shape(&[3600, 10, 20, 5]); // Query 1 K'^T
        for r in [22usize, 66, 176, 528, 1024] {
            let pp =
                PartitionPlus::with_skew_bound(kspace.clone(), r, default_skew_bound(&kspace, r))
                    .unwrap();
            // Dealing units comfortably exceed reducers → every
            // reducer gets work.
            for block in 0..r {
                assert!(
                    pp.keyblock_key_count(block).unwrap() > 0,
                    "reducer {block} of {r} starved"
                );
            }
        }
    }

    #[test]
    fn fast_path_matches_reference_partition() {
        // The strength-reduced hot path must agree with the reference
        // geometric computation for every key, across shapes that
        // exercise remainders, clipped instances and rank variety.
        for (space, r, bound) in [
            (shape(&[52, 50, 20]), 22usize, 1000u64),
            (shape(&[13, 7]), 4, 5),
            (shape(&[100]), 7, 3),
            (shape(&[9, 9, 9, 9]), 5, 81),
        ] {
            let pp = PartitionPlus::with_skew_bound(space.clone(), r, bound).unwrap();
            for k in space.iter_coords() {
                assert_eq!(
                    pp.keyblock_of(k.components()),
                    pp.partition().keyblock_of_key(&k).unwrap(),
                    "key {k} in space {space}"
                );
            }
        }
    }

    #[test]
    fn patterned_keys_do_not_skew() {
        // The §4.3 pathology: all-even intermediate keys. partition+
        // is oblivious to the binary representation.
        let pp = PartitionPlus::with_skew_bound(shape(&[60, 60]), 22, 60).unwrap();
        let mut counts = [0u64; 22];
        for k in shape(&[60, 60]).iter_coords() {
            // Only consider the patterned (all-even) subset.
            if k[0] % 2 == 0 && k[1] % 2 == 0 {
                counts[Partitioner::partition(&pp, &k, 22)] += 1;
            }
        }
        let nonzero = counts.iter().filter(|&&c| c > 0).count();
        assert!(
            nonzero >= 20,
            "patterned keys starve reducers under partition+: {counts:?}"
        );
    }
}
