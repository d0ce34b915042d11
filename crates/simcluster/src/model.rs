//! Cluster shape and wall-clock cost model.

use serde::{Deserialize, Serialize};

/// The simulated cluster's shape — defaults are the paper's testbed
/// (§4): 24 worker nodes, 4 map + 3 reduce slots each.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimClusterConfig {
    pub num_nodes: usize,
    pub map_slots_per_node: usize,
    pub reduce_slots_per_node: usize,
}

impl Default for SimClusterConfig {
    fn default() -> Self {
        SimClusterConfig {
            num_nodes: 24,
            map_slots_per_node: 4,
            reduce_slots_per_node: 3,
        }
    }
}

impl SimClusterConfig {
    pub fn total_reduce_slots(&self) -> usize {
        self.num_nodes * self.reduce_slots_per_node
    }
}

/// Wall-clock cost model.
///
/// Calibrated so SciHadoop's Query 1 curve lands near the paper's
/// (maps complete ≈1 100 s, job ≈1 250 s with 22 reducers); all
/// comparisons between frameworks then follow from structure, not
/// tuning. The sources of each constant:
///
/// * `local_read_bps` — HDFS local short-circuit read off 3 SATA
///   disks, shared by 4 concurrent map slots.
/// * `remote_read_bps` — one GbE link shared by the node's tasks.
/// * `map_cpu_bps` — NetCDF decode + key translation + partition +
///   map-side sort; the dominant map-task cost in SciHadoop.
/// * `hadoop_overread` — stock Hadoop's byte-range splits ignore array
///   and record structure, so its RecordReader reads data it then
///   discards and takes the remote path more often (§2.4.1, Fig. 9's
///   Hadoop-vs-SciHadoop slope gap).
/// * `reduce_bps` — fetch-tail + merge + apply operator + write, per
///   reduce task.
/// * `task_overhead_s` — JVM/task setup ("the time taken for Hadoop to
///   schedule a task", §3.3).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    pub local_read_bps: f64,
    pub remote_read_bps: f64,
    pub map_cpu_bps: f64,
    /// Multiplier (>1) on map input bytes for structure-oblivious
    /// (stock Hadoop) splits.
    pub hadoop_overread: f64,
    /// Probability a structure-oblivious map reads remotely even when
    /// the scheduler found a "local" byte range (coordinate → byte
    /// translation misses, §2.4.1).
    pub hadoop_remote_penalty: f64,
    pub reduce_bps: f64,
    pub task_overhead_s: f64,
    /// Multiplicative jitter half-width (0.05 = ±5 %) applied per
    /// task, seeded — Fig. 12 measures run-to-run variance.
    pub jitter_frac: f64,
    /// Probability a task becomes an "abnormally long-running"
    /// straggler (§4.2: a reduce's variance comes from "the
    /// probability of a Reduce task depending on several abnormally
    /// long-running Map tasks").
    pub straggler_prob: f64,
    /// Duration multiplier applied to stragglers.
    pub straggler_factor: f64,
    pub seed: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            local_read_bps: 60.0e6,
            remote_read_bps: 35.0e6,
            map_cpu_bps: 3.5e6,
            hadoop_overread: 2.2,
            hadoop_remote_penalty: 0.7,
            reduce_bps: 160.0e6,
            task_overhead_s: 1.5,
            jitter_frac: 0.05,
            straggler_prob: 0.0,
            straggler_factor: 3.0,
            seed: 0x51D8_CAFE,
        }
    }
}

impl CostModel {
    /// Deterministic per-task jitter factor in `[1-j, 1+j]`, times the
    /// straggler multiplier when the task drew the short straw.
    pub fn jitter(&self, salt: u64) -> f64 {
        let h = splitmix64(self.seed ^ splitmix64(salt));
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
        let base = 1.0 + self.jitter_frac * (2.0 * unit - 1.0);
        let s = splitmix64(h ^ 0x57A6);
        let s_unit = (s >> 11) as f64 / (1u64 << 53) as f64;
        if s_unit < self.straggler_prob {
            base * self.straggler_factor
        } else {
            base
        }
    }

    /// Map task duration in seconds: read + CPU, with the
    /// structure-oblivious penalty when `oblivious`.
    pub fn map_duration_s(&self, input_bytes: u64, local: bool, oblivious: bool, salt: u64) -> f64 {
        let mut bytes = input_bytes as f64;
        let mut read_bps = if local {
            self.local_read_bps
        } else {
            self.remote_read_bps
        };
        if oblivious {
            bytes *= self.hadoop_overread;
            // Coordinate→byte mismatch sends a fraction of reads over
            // the network regardless of placement.
            let h = splitmix64(self.seed ^ splitmix64(salt ^ 0xB0B));
            let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
            if unit < self.hadoop_remote_penalty {
                read_bps = self.remote_read_bps;
            }
        }
        let t = bytes / read_bps + bytes / self.map_cpu_bps + self.task_overhead_s;
        t * self.jitter(salt)
    }

    /// Post-barrier reduce duration in seconds (fetch tail + merge +
    /// operator + write).
    pub fn reduce_duration_s(&self, input_bytes: u64, salt: u64) -> f64 {
        let t = input_bytes as f64 / self.reduce_bps + self.task_overhead_s;
        t * self.jitter(salt ^ 0x5EED)
    }
}

#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cluster_slot_counts() {
        let c = SimClusterConfig::default();
        assert_eq!(c.num_nodes * c.map_slots_per_node, 96);
        assert_eq!(c.total_reduce_slots(), 72);
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        let m = CostModel::default();
        for salt in 0..100 {
            let j = m.jitter(salt);
            assert!((1.0 - m.jitter_frac..=1.0 + m.jitter_frac).contains(&j));
            assert_eq!(j, m.jitter(salt));
        }
    }

    #[test]
    fn stragglers_multiply_duration_deterministically() {
        let m = CostModel {
            jitter_frac: 0.0,
            straggler_prob: 0.2,
            straggler_factor: 4.0,
            ..Default::default()
        };
        let mut stragglers = 0;
        for salt in 0..500u64 {
            let j = m.jitter(salt);
            assert!(j == 1.0 || j == 4.0, "jitter {j}");
            assert_eq!(j, m.jitter(salt), "must be deterministic");
            if j == 4.0 {
                stragglers += 1;
            }
        }
        // ~20 % of 500 with generous slack.
        assert!((50..=160).contains(&stragglers), "{stragglers} stragglers");
    }

    #[test]
    fn oblivious_maps_are_slower() {
        let m = CostModel {
            jitter_frac: 0.0,
            ..Default::default()
        };
        let aware = m.map_duration_s(128 << 20, true, false, 1);
        let oblivious = m.map_duration_s(128 << 20, true, true, 1);
        assert!(oblivious > 1.5 * aware, "{oblivious} vs {aware}");
    }

    #[test]
    fn remote_reads_cost_more() {
        let m = CostModel {
            jitter_frac: 0.0,
            ..Default::default()
        };
        assert!(
            m.map_duration_s(1 << 27, false, false, 1) > m.map_duration_s(1 << 27, true, false, 1)
        );
    }

    #[test]
    fn scihadoop_map_duration_near_paper() {
        // 128 MB local structure-aware map ≈ 40 s (2 781 maps over 96
        // slots ≈ 29 waves ≈ 1 160 s map phase, Fig. 9).
        let m = CostModel {
            jitter_frac: 0.0,
            ..Default::default()
        };
        let t = m.map_duration_s(128 << 20, true, false, 0);
        assert!((30.0..55.0).contains(&t), "map duration {t}");
    }
}
