//! A deterministic discrete-event simulator of the paper's 25-node
//! Hadoop cluster (§4: 24 DataNode/TaskTracker nodes, 4 map + 3 reduce
//! slots each, one GbE link per node, 3 HDFS disks).
//!
//! The paper's Figures 9–13 plot *task completion over time* at a
//! scale (348 GB, 2 781 map tasks) that a single machine cannot
//! execute for real. Those curves are determined by: slot counts, task
//! durations (I/O + CPU), the barrier semantics (global vs `I_ℓ`), the
//! partition function's keyblock sizes, and the scheduling policy —
//! all of which this simulator models explicitly, *reusing the real
//! planning code*: splits come from `sidr-mapreduce`'s generators,
//! keyblock geometry from `sidr-core`'s `partition+`, dependency sets
//! from `sidr-core`'s `deps::derive`, and the skewed hash assignment
//! from the engine's `CoordHashPartitioner`. The scheduling is not
//! modelled at all: a simulated job runs through the engine's own
//! coordinator loop (`sidr_mapreduce::coordinate`), with this crate's
//! cluster — per-node slots on a virtual clock — as its `Cluster`.
//! Only the wall-clock cost model (disk/network bandwidth, CPU rates)
//! is calibrated, and the claims we reproduce are about curve *shape*
//! — who starts when, how completion tracks dependencies — not
//! absolute seconds.
//!
//! Entry points: build a [`SimJob`] via [`workload`], run it with
//! [`simulate`], read the returned `JobResult` — the engine's own record
//! of a job — with times in seconds by [`secs`], [`first_result_s`] and
//! [`makespan_s`].

pub mod model;
pub mod sim;
pub mod workload;

pub use model::{CostModel, SimClusterConfig};
pub use sim::{first_result_s, makespan_s, secs, simulate, SimJob, SimMapTask};
pub use workload::{build_sim_job, SimWorkload};
