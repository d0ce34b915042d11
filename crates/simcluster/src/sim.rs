//! The cluster simulation: the engine's coordinator loop over a cost
//! model on a virtual clock.

use std::time::Duration;

use sidr_mapreduce::timers::Timers;
use sidr_mapreduce::{
    coordinate, Cluster, Done, JobConfig, JobPlan, MapTally, MapTaskId, ReduceSource, TaskEvent,
    TaskKind, Timeline,
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

/// Timestamps (seconds) of everything that happened.
#[derive(Clone, Debug)]
pub struct SimTrace {
    /// Per-map completion; `None` when the map never ran (no reduce
    /// depended on it).
    pub map_end_s: Vec<Option<f64>>,
    /// Per-reduce slot occupancy start.
    pub reduce_start_s: Vec<f64>,
    /// Per-reduce barrier satisfaction.
    pub reduce_ready_s: Vec<f64>,
    /// Per-reduce commit.
    pub reduce_end_s: Vec<f64>,
    events: Vec<TaskEvent>,
}

impl SimTrace {
    fn new(n_maps: usize, n_reduces: usize, events: Vec<TaskEvent>) -> Self {
        let mut trace = SimTrace {
            map_end_s: vec![None; n_maps],
            reduce_start_s: vec![0.0; n_reduces],
            reduce_ready_s: vec![0.0; n_reduces],
            reduce_end_s: vec![0.0; n_reduces],
            events,
        };
        for e in &trace.events {
            let at_s = e.at.as_micros() as f64 / 1e6;
            match e.kind {
                TaskKind::MapEnd => trace.map_end_s[e.task] = Some(at_s),
                TaskKind::ReduceStart => trace.reduce_start_s[e.task] = at_s,
                TaskKind::ReduceBarrierMet => trace.reduce_ready_s[e.task] = at_s,
                TaskKind::ReduceEnd => trace.reduce_end_s[e.task] = at_s,
                _ => {}
            }
        }
        trace
    }

    /// The run's timeline, as the engine's loop recorded it
    /// (`MapStart` / `MapEnd` / `ReduceStart` / `ReduceBarrierMet` /
    /// `ReduceEnd`, in causal order), which the loop already checked
    /// with its protocol oracle before `simulate` returned.
    pub fn events(&self) -> Vec<TaskEvent> {
        self.events.clone()
    }

    /// Job completion time.
    pub fn makespan_s(&self) -> f64 {
        self.reduce_end_s.iter().copied().fold(0.0, f64::max)
    }

    /// Time of the first committed result.
    pub fn first_result_s(&self) -> f64 {
        self.reduce_end_s
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }

    /// Sorted map completion times (ran maps only).
    pub fn map_completions(&self) -> Vec<f64> {
        let mut t: Vec<f64> = self.map_end_s.iter().flatten().copied().collect();
        t.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        t
    }

    /// Sorted reduce completion times.
    pub fn reduce_completions(&self) -> Vec<f64> {
        let mut t = self.reduce_end_s.clone();
        t.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        t
    }

    /// Fraction of maps complete when the first result committed —
    /// the paper's "initial results with only 6 % of the query
    /// completed" (§4.1 headline).
    pub fn maps_done_at_first_result(&self) -> f64 {
        let first = self.first_result_s();
        let done = self
            .map_end_s
            .iter()
            .flatten()
            .filter(|&&t| t <= first)
            .count();
        done as f64 / self.map_end_s.len() as f64
    }
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
            End::Reduce { reducer } => Done::Reduce {
                reducer,
                result: Ok(0),
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
pub fn simulate(job: &SimJob, cluster: &SimClusterConfig, model: &CostModel) -> SimTrace {
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
    let timeline = Timeline::new();
    let config = JobConfig::default();
    let num_maps = job.maps.len();
    let (_, events) = (coordinate(&mut runner, num_maps, &job.plan, &config, None, &timeline))
        .expect("a fault-free job ends and passes its protocol check");
    SimTrace::new(num_maps, job.plan.num_reducers(), events)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let last_map = trace.map_completions().last().copied().unwrap();
        for r in 0..4 {
            assert!(
                trace.reduce_ready_s[r] >= last_map,
                "reduce {r} ready {} before last map {last_map}",
                trace.reduce_ready_s[r]
            );
        }
    }

    #[test]
    fn dependency_barrier_releases_early() {
        let job = uniform_job(32, 4, false);
        let trace = simulate(&job, &SimClusterConfig::default(), &model());
        let last_map = trace.map_completions().last().copied().unwrap();
        assert!(
            trace.first_result_s() < last_map,
            "first result {} not before last map {last_map}",
            trace.first_result_s()
        );
    }

    #[test]
    fn all_tasks_complete() {
        for global in [true, false] {
            let job = uniform_job(50, 7, global);
            let trace = simulate(&job, &SimClusterConfig::default(), &model());
            assert_eq!(trace.map_completions().len(), 50);
            assert!(trace.reduce_end_s.iter().all(|&t| t > 0.0));
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
        let t_small = simulate(&job, &small, &model()).makespan_s();
        let t_big = simulate(&job, &big, &model()).makespan_s();
        assert!(t_big <= t_small, "{t_big} > {t_small}");
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
        assert!(trace.map_end_s.last().unwrap().is_none());
    }

    #[test]
    fn reduce_waves_respect_slot_limit() {
        // 100 reduces over 72 slots: last 28 must start after some end.
        let job = uniform_job(20, 100, true);
        let trace = simulate(&job, &SimClusterConfig::default(), &model());
        let starts = {
            let mut s = trace.reduce_start_s.clone();
            s.sort_by(|a, b| a.partial_cmp(b).unwrap());
            s
        };
        assert_eq!(starts.iter().filter(|&&t| t == 0.0).count(), 72);
        assert!(starts[72] > 0.0);
    }
}
