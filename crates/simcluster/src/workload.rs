//! Builds simulated jobs from *real* planning artifacts: the actual
//! split generators, the actual `partition+` geometry, the actual
//! dependency derivation and the actual hash partitioner — only task
//! *durations* are modeled.

use sidr_coords::{Coord, Slab};
use sidr_core::{FrameworkMode, SidrPlanner, StructuralQuery};
use sidr_mapreduce::{CoordHashPartitioner, JobPlan, Partitioner, SplitGenerator};

use crate::sim::{SimJob, SimMapTask};

/// How intermediate keys look to the hash partitioner under the
/// stock-Hadoop modes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HashKeyModel {
    /// Dense, unpatterned keys: hash-modulo spreads them evenly (the
    /// Query 1 / Query 2 behavior of Figs. 9–11).
    Uniform,
    /// Keys are the *corner coordinates* of extraction instances —
    /// "coordinates at fixed intervals" (§4.3). With an even-sided
    /// extraction shape every key component is even, the binary
    /// representation is patterned, and modulo assignment starves a
    /// subset of the reducers (Fig. 13).
    CornerCoords,
}

/// Everything needed to synthesize one simulated job.
#[derive(Clone, Debug)]
pub struct SimWorkload {
    pub query: StructuralQuery,
    /// Bytes per input element in the backing file.
    pub element_size: u64,
    /// Intermediate bytes as a fraction of input bytes. Structural
    /// queries shuffle the raw values (1.0, compressed keys); the
    /// fetch itself overlaps the map phase, so the reduce-side cost
    /// model charges only the post-barrier merge+operate+write pass.
    pub shuffle_ratio: f64,
    /// Fraction of shuffled pairs that survive map-side selection —
    /// Query 2's 3σ filter passes 0.1 % of the data (§4.1).
    pub selectivity: f64,
    pub mode: FrameworkMode,
    pub num_reducers: usize,
    /// Split byte budget (one HDFS block in the paper).
    pub split_bytes: u64,
    /// Key pattern under the hash partitioner (ignored for SIDR).
    pub hash_keys: HashKeyModel,
    /// SIDR keyblock prioritization (§3.4).
    pub priority_region: Option<Slab>,
}

impl SimWorkload {
    /// A workload with the paper's defaults: f32 elements, 128 MB
    /// splits, uniform hash keys, full shuffle.
    pub fn new(query: StructuralQuery, mode: FrameworkMode, num_reducers: usize) -> Self {
        SimWorkload {
            query,
            element_size: 4,
            shuffle_ratio: 1.0,
            selectivity: 1.0,
            mode,
            num_reducers,
            split_bytes: 128 << 20,
            hash_keys: HashKeyModel::Uniform,
            priority_region: None,
        }
    }

    /// Total input bytes of the dataset.
    pub fn input_bytes(&self) -> u64 {
        self.query.input_space().count() * self.element_size
    }

    /// Total intermediate bytes crossing the shuffle.
    pub fn intermediate_bytes(&self) -> u64 {
        (self.input_bytes() as f64 * self.shuffle_ratio * self.selectivity) as u64
    }
}

/// The simulated input file's path, which seeds its block placement.
const SIM_INPUT: &str = "/sim/input.scinc";

/// Derives the [`SimJob`] for a workload: real splits with the paper's
/// HDFS placement, real keyblock sizes, real dependency sets.
pub fn build_sim_job(w: &SimWorkload) -> sidr_core::Result<SimJob> {
    let space = w.query.input_space();
    let generator = SplitGenerator::new(space.clone(), w.element_size);
    let splits = match w.mode {
        FrameworkMode::Hadoop => generator.naive_linear(w.split_bytes)?,
        FrameworkMode::SciHadoop | FrameworkMode::Sidr => {
            generator.aligned(w.split_bytes, w.query.extraction.shape()[0])?
        }
    };

    let oblivious = w.mode == FrameworkMode::Hadoop;
    // Splits are whole rows of the leading dimension, so each is one
    // row-major run of the file's bytes; the top replicas of that run
    // host the bulk of it.
    let maps = (splits.iter())
        .map(|s| {
            let start = space.linearize(s.slab.corner())? * w.element_size;
            let input_bytes = s.slab.count() * w.element_size;
            let hosts = sidr_dfs::hosts(SIM_INPUT, w.input_bytes(), start, start + input_bytes);
            Ok(SimMapTask {
                input_bytes,
                preferred_nodes: (hosts.into_iter().take(sidr_dfs::REPLICAS))
                    .map(|(node, _)| node)
                    .collect(),
                oblivious,
            })
        })
        .collect::<sidr_core::Result<Vec<_>>>()?;

    let total_intermediate = w.intermediate_bytes();

    let (reduce_bytes, plan) = match w.mode {
        FrameworkMode::Hadoop | FrameworkMode::SciHadoop => {
            let weights = hash_key_weights(&w.query, w.num_reducers, w.hash_keys);
            let total_w: u64 = weights.iter().sum();
            let reduce_bytes = weights
                .iter()
                .map(|&kw| match total_w {
                    0 => 0,
                    _ => (total_intermediate as u128 * kw as u128 / total_w as u128) as u64,
                })
                .collect();
            // Global barrier (§2.3.1).
            (reduce_bytes, JobPlan::global(w.num_reducers))
        }
        FrameworkMode::Sidr => {
            let mut planner = SidrPlanner::new(&w.query, w.num_reducers);
            if let Some(region) = &w.priority_region {
                planner = planner.prioritize_region(region.clone());
            }
            let plan = planner.build(&splits)?;
            let total_keys = w.query.intermediate_space().count();
            let reduce_bytes = (0..w.num_reducers)
                .map(|r| {
                    let kw = plan.partition.keyblock_key_count(r)?;
                    Ok((total_intermediate as u128 * kw as u128 / total_keys as u128) as u64)
                })
                .collect::<sidr_core::Result<Vec<_>>>()?;
            (reduce_bytes, plan.job)
        }
    };

    Ok(SimJob {
        maps,
        reduce_bytes,
        plan,
    })
}

/// Exact per-reducer key counts under the hash-modulo partitioner:
/// walks `K′ᵀ`, encoding keys per the [`HashKeyModel`], and applies
/// the real `CoordHashPartitioner`.
pub fn hash_key_weights(
    query: &StructuralQuery,
    num_reducers: usize,
    model: HashKeyModel,
) -> Vec<u64> {
    let p = CoordHashPartitioner;
    let mut weights = vec![0u64; num_reducers];
    let kspace = query.intermediate_space();
    let ext = query.extraction.shape().extents().to_vec();
    for kp in kspace.iter_coords() {
        let key = match model {
            HashKeyModel::Uniform => kp,
            HashKeyModel::CornerCoords => Coord::new(
                kp.components()
                    .iter()
                    .zip(&ext)
                    .map(|(&c, &e)| c * e)
                    .collect::<Vec<u64>>(),
            ),
        };
        weights[p.partition(&key, num_reducers)] += 1;
    }
    weights
}

/// Total shuffle connections a workload incurs: Hadoop contacts every
/// map from every reducer; SIDR contacts only dependencies (Table 3).
pub fn connection_count(w: &SimWorkload) -> sidr_core::Result<u64> {
    let job = build_sim_job(w)?;
    Ok(match &job.plan.reduce_deps {
        Some(deps) => deps.iter().map(|d| d.len() as u64).sum(),
        None => (job.maps.len() * job.plan.num_reducers()) as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sidr_coords::Shape;
    use sidr_core::Operator;

    fn shape(v: &[u64]) -> Shape {
        Shape::new(v.to_vec()).unwrap()
    }

    fn small_query() -> StructuralQuery {
        StructuralQuery::new(
            "v",
            shape(&[240, 12, 12]),
            shape(&[2, 4, 4]),
            Operator::Median,
        )
        .unwrap()
    }

    #[test]
    fn sidr_job_has_deps_and_inversion() {
        let w = SimWorkload {
            split_bytes: 12 * 12 * 4 * 8, // 8 leading rows per split
            ..SimWorkload::new(small_query(), FrameworkMode::Sidr, 6)
        };
        let job = build_sim_job(&w).unwrap();
        for deps in job.plan.reduce_deps.as_ref().unwrap() {
            assert!(!deps.is_empty());
            assert!(
                deps.len() < job.maps.len(),
                "deps should be a strict subset"
            );
        }
        // Reduce input bytes sum to ~total intermediate bytes.
        let total: u64 = job.reduce_bytes.iter().sum();
        let expect = w.intermediate_bytes();
        assert!(
            (total as i64 - expect as i64).unsigned_abs() <= w.num_reducers as u64 * 64,
            "{total} vs {expect}"
        );
    }

    #[test]
    fn maps_tile_the_input_bytes_and_their_nodes_host_them() {
        // Large elements spread the 240 rows over five 128 MB blocks.
        let element_size = 16 << 10;
        for mode in [FrameworkMode::Hadoop, FrameworkMode::Sidr] {
            let w = SimWorkload {
                element_size,
                split_bytes: 12 * 12 * element_size * 8,
                ..SimWorkload::new(small_query(), mode, 4)
            };
            let job = build_sim_job(&w).unwrap();
            let mut start = 0;
            for m in &job.maps {
                let end = start + m.input_bytes;
                let hosts = sidr_dfs::hosts(SIM_INPUT, w.input_bytes(), start, end);
                assert!(!m.preferred_nodes.is_empty());
                for node in &m.preferred_nodes {
                    assert!(hosts.iter().any(|(n, b)| n == node && *b > 0), "{mode:?}");
                }
                start = end;
            }
            assert_eq!(start, w.input_bytes());
            let placements: std::collections::HashSet<_> =
                job.maps.iter().map(|m| &m.preferred_nodes).collect();
            assert!(placements.len() >= 5, "{mode:?}: {placements:?}");
        }
    }

    #[test]
    fn hadoop_job_is_global_barrier() {
        let w = SimWorkload {
            split_bytes: 12 * 12 * 4 * 8,
            ..SimWorkload::new(small_query(), FrameworkMode::Hadoop, 4)
        };
        let job = build_sim_job(&w).unwrap();
        assert!(job.plan.reduce_deps.is_none());
        assert!(job.maps.iter().all(|m| m.oblivious));
    }

    #[test]
    fn uniform_hash_weights_are_balanced() {
        let weights = hash_key_weights(&small_query(), 7, HashKeyModel::Uniform);
        let total: u64 = weights.iter().sum();
        assert_eq!(total, small_query().intermediate_space().count());
        let expect = total as f64 / 7.0;
        for &w in &weights {
            assert!((w as f64) > 0.5 * expect && (w as f64) < 1.5 * expect);
        }
    }

    #[test]
    fn corner_coord_weights_starve_reducers() {
        // Extraction {2,4,4}: every corner coordinate is even → the
        // §4.3 pathology with an even reducer count.
        let weights = hash_key_weights(&small_query(), 22, HashKeyModel::CornerCoords);
        let starved = weights.iter().filter(|&&w| w == 0).count();
        assert!(
            starved >= 11,
            "expected >= half the reducers starved, weights {weights:?}"
        );
    }

    #[test]
    fn connection_counts_match_table3_shape() {
        let q = small_query();
        for r in [4usize, 8, 16] {
            let hadoop = connection_count(&SimWorkload {
                split_bytes: 12 * 12 * 4 * 8,
                ..SimWorkload::new(q.clone(), FrameworkMode::Hadoop, r)
            })
            .unwrap();
            let sidr = connection_count(&SimWorkload {
                split_bytes: 12 * 12 * 4 * 8,
                ..SimWorkload::new(q.clone(), FrameworkMode::Sidr, r)
            })
            .unwrap();
            assert!(sidr < hadoop / 2, "r={r}: sidr {sidr} vs hadoop {hadoop}");
        }
    }
}
