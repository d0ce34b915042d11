//! The cluster simulation: the engine's coordinator loop over a cost
//! model on a virtual clock.

use std::time::Duration;

use sidr_mapreduce::timers::Timers;
use sidr_mapreduce::{
    coordinate, Cluster, Done, JobConfig, JobPlan, JobResult, MapTally, MapTaskId, ReduceSource,
};

use crate::model::{CostModel, SimClusterConfig};

/// One simulated Map task.
#[derive(Clone, Debug)]
pub struct SimMapTask {
    /// Bytes the task reads.
    pub input_bytes: u64,
    /// Nodes hosting a replica of the split's bytes (`sidr_dfs::hosts`).
    pub preferred_nodes: Vec<usize>,
    /// Structure-oblivious read path (stock Hadoop over scientific
    /// files): over-read and likely-remote (§2.4.1).
    pub oblivious: bool,
}

/// A complete simulated job.
#[derive(Clone, Debug)]
pub struct SimJob {
    pub maps: Vec<SimMapTask>,
    /// Bytes each Reduce task fetches, merges, reduces and writes.
    pub reduce_bytes: Vec<u64>,
    /// The plan the engine's loop runs: barriers (`I_ℓ` or global),
    /// launch order and inverted scheduling (§3.2–§3.4).
    pub plan: JobPlan,
}

/// A time on the simulator's clock in seconds, as every figure reports
/// one: the clock stamps whole microseconds.
pub fn secs(at: Duration) -> f64 {
    at.as_micros() as f64 / 1e6
}

/// A simulated job's first committed result, in seconds.
pub fn first_result_s(job: &JobResult) -> f64 {
    secs(
        job.first_result()
            .expect("a simulated job commits every keyblock"),
    )
}

/// A simulated job's makespan — its last commit — in seconds.
pub fn makespan_s(job: &JobResult) -> f64 {
    secs(job.elapsed)
}

/// An attempt's end, on the virtual clock.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum End {
    Map {
        task: MapTaskId,
        attempt: u32,
        node: usize,
    },
    Reduce {
        reducer: usize,
    },
}

/// The paper's cluster as a [`Cluster`]: per-node map slots, a pool of
/// reduce slots, and attempts that end when the [`CostModel`] says —
/// by time, then by start order, so identical inputs replay
/// identically.
struct Model<'a> {
    job: &'a SimJob,
    model: &'a CostModel,
    now: Duration,
    free_map: Vec<usize>,
    free_reduce: usize,
    slots: (usize, usize),
    ends: Timers<End>,
}

impl Model<'_> {
    fn end_after(&mut self, secs: f64, end: End) {
        let at = self.now + Duration::from_micros((secs * 1e6).round() as u64);
        self.ends.arm(at, end);
    }
}

impl Cluster for Model<'_> {
    fn now(&self) -> Duration {
        self.now
    }

    fn slots(&self) -> (usize, usize) {
        self.slots
    }

    fn take_map_slot(&mut self) -> Option<usize> {
        let node = self.free_map.iter().position(|&free| free > 0)?;
        self.free_map[node] -= 1;
        Some(node)
    }

    fn take_reduce_slot(&mut self) -> bool {
        let free = self.free_reduce > 0;
        self.free_reduce -= usize::from(free);
        free
    }

    fn free_map_slot(&mut self, node: usize) {
        self.free_map[node] += 1;
    }

    fn free_reduce_slot(&mut self) {
        self.free_reduce += 1;
    }

    fn local(&self, node: usize, map: MapTaskId) -> bool {
        self.job.maps[map].preferred_nodes.contains(&node)
    }

    fn start_map(&mut self, task: MapTaskId, attempt: u32, _speculative: bool, node: usize) {
        let map = &self.job.maps[task];
        let local = self.local(node, task);
        let secs = (self.model).map_duration_s(map.input_bytes, local, map.oblivious, task as u64);
        self.end_after(
            secs,
            End::Map {
                task,
                attempt,
                node,
            },
        );
    }

    fn start_reduce(&mut self, reducer: usize, _attempt: u32, _sources: Vec<ReduceSource>) {
        let bytes = self.job.reduce_bytes[reducer];
        let secs = self.model.reduce_duration_s(bytes, reducer as u64);
        self.end_after(secs, End::Reduce { reducer });
    }

    fn stop_map(&mut self, _task: MapTaskId, _attempt: u32) {}

    fn next(&mut self, until: Option<Duration>) -> Option<Done> {
        let next = self.ends.next_at();
        if let Some(until) = until.filter(|&u| next.is_none_or(|at| u < at)) {
            self.now = until;
            return None;
        }
        self.now = next.expect("a simulated job never stalls");
        Some(match self.ends.pop_due(self.now)? {
            End::Map {
                task,
                attempt,
                node,
            } => Done::Map {
                task,
                attempt,
                place: node,
                result: Ok(MapTally::default()),
            },
            // No separate merge is modelled: it ends with the reduce.
            End::Reduce { reducer } => Done::Reduce {
                reducer,
                result: Ok((self.now, 0)),
            },
        })
    }
}

/// Runs the simulation to completion.
///
/// The job runs through the engine's own coordinator loop
/// ([`coordinate`]): every scheduling decision — which reduce launches
/// next, which maps that makes eligible and in what order, when a
/// barrier is met — is the engine's. What is modelled here is the
/// cluster around it: simulated time, per-node slots, data locality (as
/// `claim_map`'s preference) and task durations from the [`CostModel`].
/// Returns the loop's record of the job, as the engine's would be.
pub fn simulate(job: &SimJob, cluster: &SimClusterConfig, model: &CostModel) -> JobResult {
    assert_eq!(
        job.reduce_bytes.len(),
        job.plan.num_reducers(),
        "one size per reduce"
    );
    let mut runner = Model {
        job,
        model,
        now: Duration::ZERO,
        free_map: vec![cluster.map_slots_per_node; cluster.num_nodes],
        free_reduce: cluster.total_reduce_slots(),
        slots: (
            cluster.num_nodes * cluster.map_slots_per_node,
            cluster.total_reduce_slots(),
        ),
        ends: Timers::default(),
    };
    let config = JobConfig::default();
    coordinate(&mut runner, job.maps.len(), &job.plan, &config, None)
        .expect("a fault-free job ends and passes its protocol check")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sidr_mapreduce::TaskKind;

    fn model() -> CostModel {
        CostModel {
            jitter_frac: 0.0,
            task_overhead_s: 0.0,
            hadoop_remote_penalty: 0.0,
            ..Default::default()
        }
    }

    fn uniform_job(n_maps: usize, n_reduces: usize, global: bool) -> SimJob {
        SimJob {
            maps: (0..n_maps)
                .map(|_| SimMapTask {
                    input_bytes: 64 << 20,
                    preferred_nodes: vec![0, 1, 2],
                    oblivious: false,
                })
                .collect(),
            reduce_bytes: vec![32 << 20; n_reduces],
            plan: if global {
                JobPlan::global(n_reduces)
            } else {
                // Reduce r depends on a contiguous slice of maps; the
                // last reduce takes the remainder.
                let per = n_maps / n_reduces;
                let end = |r: usize| {
                    if r + 1 == n_reduces {
                        n_maps
                    } else {
                        (r + 1) * per
                    }
                };
                JobPlan::with_deps(
                    (0..n_reduces)
                        .map(|r| (r * per..end(r)).collect())
                        .collect(),
                )
            },
        }
    }

    #[test]
    fn global_barrier_blocks_all_reduces() {
        let job = uniform_job(32, 4, true);
        let trace = simulate(&job, &SimClusterConfig::default(), &model());
        let last_map = *trace.completions(TaskKind::MapEnd).last().unwrap();
        let ready = trace.completions(TaskKind::ReduceBarrierMet);
        assert_eq!(ready.len(), 4);
        assert!(
            ready.iter().all(|&at| at >= last_map),
            "a reduce ready at {ready:?}, before the last map at {last_map:?}"
        );
    }

    #[test]
    fn dependency_barrier_releases_early() {
        let job = uniform_job(32, 4, false);
        let trace = simulate(&job, &SimClusterConfig::default(), &model());
        let last_map = *trace.completions(TaskKind::MapEnd).last().unwrap();
        let first = trace.first_result().unwrap();
        assert!(
            first < last_map,
            "first result {first:?} not before last map {last_map:?}"
        );
    }

    #[test]
    fn all_tasks_complete() {
        for global in [true, false] {
            let job = uniform_job(50, 7, global);
            let trace = simulate(&job, &SimClusterConfig::default(), &model());
            assert_eq!(trace.count(TaskKind::MapEnd), 50);
            let ends = trace.completions(TaskKind::ReduceEnd);
            assert_eq!(ends.len(), 7);
            assert!(ends.iter().all(|&at| at > Duration::ZERO));
        }
    }

    #[test]
    fn more_slots_do_not_slow_the_job() {
        let job = uniform_job(64, 8, true);
        let small = SimClusterConfig {
            num_nodes: 4,
            ..Default::default()
        };
        let big = SimClusterConfig::default();
        let t_small = simulate(&job, &small, &model()).elapsed;
        let t_big = simulate(&job, &big, &model()).elapsed;
        assert!(t_big <= t_small, "{t_big:?} > {t_small:?}");
    }

    #[test]
    fn undepended_maps_never_run_under_inversion() {
        let mut job = uniform_job(33, 4, false); // 33rd map unused (32/4=8 per reduce)
        job.maps.push(SimMapTask {
            input_bytes: 1,
            preferred_nodes: vec![],
            oblivious: false,
        });
        let trace = simulate(&job, &SimClusterConfig::default(), &model());
        assert!(!(trace.events.iter()).any(|e| e.kind == TaskKind::MapStart && e.task == 33));
        assert_eq!(trace.counters.maps_skipped, 1);
    }

    #[test]
    fn reduce_waves_respect_slot_limit() {
        // 100 reduces over 72 slots: last 28 must start after some end.
        let job = uniform_job(20, 100, true);
        let trace = simulate(&job, &SimClusterConfig::default(), &model());
        let starts = trace.completions(TaskKind::ReduceStart);
        assert_eq!(starts.iter().filter(|&&t| t == Duration::ZERO).count(), 72);
        assert!(starts[72] > Duration::ZERO);
    }
}
