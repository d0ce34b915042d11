//! Dependency derivation: which input splits feed which keyblocks
//! (§3.2).
//!
//! "`I_ℓ` is the set of `Iᵢ` that, when processed by a RecordReader
//! and associated Map task, will produce at least one intermediate
//! key/value pair that will be assigned to `keyblock_ℓ`." SIDR
//! computes the keyblocks each split generates data for and inverts
//! the relationship (§3.2.1), so every Reduce task can use its actual
//! dependencies as its barrier — the precise communication model of
//! Fig. 5(b).

use sidr_coords::Slab;
use sidr_mapreduce::sync::chaos::{self, Mutation};
use sidr_mapreduce::{InputSplit, MapTaskId};

use crate::partition_plus::PartitionPlus;
use crate::query::StructuralQuery;
use crate::Result;

/// `I_ℓ` per keyblock for `splits` under `query` and the `partition+`
/// keyblock assignment: the Map tasks each reducer depends on, in id
/// order.
///
/// For each split, the extraction shape maps the split's slab to the
/// slab of intermediate keys it can produce (§3 Area 2); the partition
/// geometry then yields the keyblocks those keys land in. The result
/// is exact for disjoint extractions and a safe superset under strides
/// (a superset only delays a reduce start, never corrupts it).
pub fn derive(
    query: &StructuralQuery,
    partition: &PartitionPlus,
    splits: &[InputSplit],
) -> Result<Vec<Vec<MapTaskId>>> {
    let mut reduce_deps: Vec<Vec<MapTaskId>> = vec![Vec::new(); partition.num_reducers()];
    let mut last = None;
    for (map_id, split) in splits.iter().enumerate() {
        for b in keyblocks_of_split(query, partition, &split.slab)? {
            reduce_deps[b].push(map_id);
            last = Some(b);
        }
    }
    if chaos::on(Mutation::DeriveDropsEdge) {
        // The last edge derived: the last map's last keyblock.
        if let Some(b) = last {
            reduce_deps[b].pop();
        }
    }
    Ok(reduce_deps)
}

/// The keyblocks a single split produces data for, in id order.
pub fn keyblocks_of_split(
    query: &StructuralQuery,
    partition: &PartitionPlus,
    split: &Slab,
) -> Result<Vec<usize>> {
    let Some(image) = query.image_of_split(split)? else {
        return Ok(Vec::new()); // split lies in a discarded region
    };
    // The image is a slab of K'. The partition's skew-shape tiling
    // turns it into a grid slab of dealing-unit instances; within
    // that grid slab, instances along the last dimension are
    // consecutive in row-major index order, and keyblocks are
    // contiguous index runs — so each grid row contributes the
    // whole range [block(first), block(last)].
    let cp = partition.partition();
    let tiling = cp.tiling();
    let Some(grid_slab) = tiling.instances_touched_by(&image)? else {
        return Ok(Vec::new());
    };
    let rank = grid_slab.rank();
    let last_len = grid_slab.shape()[rank - 1];
    let mut blocks = std::collections::BTreeSet::new();
    let mut add_run = |start_coord: &sidr_coords::Coord| -> Result<()> {
        let start = tiling.linearize_grid(start_coord)?;
        let first = cp.keyblock_of_instance(start);
        let last = cp.keyblock_of_instance(start + last_len - 1);
        blocks.extend(first..=last);
        Ok(())
    };
    if rank == 1 {
        add_run(grid_slab.corner())?;
    } else {
        let outer = sidr_coords::Shape::new(grid_slab.shape().extents()[..rank - 1].to_vec())?;
        for rel in outer.iter_coords() {
            let mut comps: Vec<u64> = rel
                .components()
                .iter()
                .zip(grid_slab.corner().components())
                .map(|(&a, &b)| a + b)
                .collect();
            comps.push(grid_slab.corner()[rank - 1]);
            add_run(&sidr_coords::Coord::new(comps))?;
        }
    }
    Ok(blocks.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::Operator;
    use sidr_coords::{Coord, Shape};
    use sidr_mapreduce::SplitGenerator;

    fn shape(v: &[u64]) -> Shape {
        Shape::new(v.to_vec()).unwrap()
    }

    fn weekly_query() -> StructuralQuery {
        StructuralQuery::new(
            "temperature",
            shape(&[364, 10, 10]),
            shape(&[7, 5, 1]),
            Operator::Mean,
        )
        .unwrap()
    }

    /// Brute-force ground truth: which keyblocks a split feeds.
    fn brute_keyblocks(q: &StructuralQuery, pp: &PartitionPlus, split: &Slab) -> Vec<usize> {
        let mut blocks: Vec<usize> = split
            .iter_coords()
            .filter_map(|k| q.map_key(&k))
            .map(|kp| pp.partition().keyblock_of_key(&kp).unwrap())
            .collect();
        blocks.sort_unstable();
        blocks.dedup();
        blocks
    }

    #[test]
    fn derived_deps_match_brute_force() {
        let q = weekly_query();
        let pp = PartitionPlus::for_query(&q, 6).unwrap();
        let gen = SplitGenerator::new(q.input_space().clone(), 8);
        let splits = gen.exact_count(13).unwrap();
        let mut expect = vec![Vec::new(); 6];
        for (m, split) in splits.iter().enumerate() {
            let blocks = brute_keyblocks(&q, &pp, &split.slab);
            let derived = keyblocks_of_split(&q, &pp, &split.slab).unwrap();
            assert_eq!(derived, blocks, "split {m}");
            blocks.into_iter().for_each(|b| expect[b].push(m));
        }
        assert_eq!(derive(&q, &pp, &splits).unwrap(), expect);
    }

    #[test]
    fn aligned_splits_feed_few_blocks() {
        // Extraction-aligned contiguous splits + contiguous keyblocks
        // → each split feeds one or two adjacent blocks (§3.4).
        let q = weekly_query();
        let pp = PartitionPlus::for_query(&q, 4).unwrap();
        let gen = SplitGenerator::new(q.input_space().clone(), 8);
        let splits = gen.aligned(7 * 10 * 10 * 8 * 4, 7).unwrap();
        for (m, split) in splits.iter().enumerate() {
            let blocks = keyblocks_of_split(&q, &pp, &split.slab).unwrap();
            assert!(blocks.len() <= 2, "split {m} feeds {blocks:?}");
        }
    }

    #[test]
    fn discarded_region_split_feeds_nothing() {
        let q = StructuralQuery::new("v", shape(&[10, 4]), shape(&[4, 4]), Operator::Mean).unwrap();
        let pp = PartitionPlus::for_query(&q, 2).unwrap();
        // Rows 8..10 are in the discarded partial instance.
        let split = Slab::new(Coord::from([8, 0]), shape(&[2, 4])).unwrap();
        assert!(keyblocks_of_split(&q, &pp, &split).unwrap().is_empty());
    }
}
