//! The coordinator's side of the worker fleet: the coordinator ↔
//! worker wire protocol, per-worker liveness tracking (heartbeats),
//! dispatch, and the [`RemoteJob`] task executor that plugs the fleet
//! into the engine's [`sidr_mapreduce::executor::TaskExecutor`] seam.
//! Every connection goes through the fleet's
//! [`Transport`](crate::transport::Transport), and every thread, wait
//! and clock read through the `sidr_mapreduce::sync` facade.
//!
//! The split of responsibilities mirrors Hadoop 1.0: the coordinator
//! (JobTracker) keeps planning, admission, the slot pool and every job
//! state machine; workers (TaskTrackers) run map/reduce attempts and
//! serve shuffle fetches to *each other* — partition bytes never move
//! through the coordinator. All connections speak the length-prefixed
//! JSON frame protocol of [`crate::frame`], opened with the
//! version/role [`Hello`](crate::frame::Hello) handshake; the two bulk
//! payloads ride as one raw frame after their JSON header — a
//! partition as CRC-framed SMOF (v4) bytes after `Partition`, a
//! reduce attempt's keyblock as a [`crate::binframe`] `KeyblockBin`
//! frame after `ReduceDone`. The coordinator keeps its dispatch
//! connections from task to task, and judges a worker dead only on a
//! fresh dial: a kept connection that fails is dropped and its request
//! sent once more on a new one.
//!
//! Each fact about the data plane is said once. A partition is *held
//! or gone*: a map's `MapDone` names `(reducer, rows)` for each
//! partition it produced, which the engine's scheduler records for the
//! job's books and its feed table; the coordinator records only the
//! holder, and `RunReduce` names only the sources the scheduler says
//! fed that reducer, so on a worker "present in the store" means data
//! and "absent" means [`PartitionStatus::Missing`] — there is no
//! "empty" on the wire. A reduce attempt has *no side effects before
//! its reply*: it copies, merges, replies, and only then releases its
//! sources, so a worker that dies anywhere before its keyblock frame
//! has arrived consumed nothing and the same attempt simply runs on
//! the next worker.
//!
//! Worker death is a fault-layer event, not a job-killer: the
//! heartbeat monitor marks the worker dead (once per transition —
//! `sidr_fleet_workers_lost_total`), in-flight attempts on it are
//! re-dispatched to surviving workers
//! (`sidr_fleet_tasks_reassigned_total`), and partitions that are gone
//! — died with a worker, failed a read-back CRC, or were released by a
//! reply the coordinator then rejected — surface as
//! [`RemoteReduceError::SourcesLost`](sidr_mapreduce::RemoteReduceError::SourcesLost)
//! so the engine re-executes exactly those maps (§6), never a whole
//! dependency set.
//!
//! A worker joins a job when a dispatch first picks it: the job's
//! `Prepare` goes first, and a refusal moves the attempt on, uncharged.
//! A worker that restarts at the same address comes back with an empty
//! store: it answers a task of a job it had joined with
//! [`WorkerResponse::UnknownJob`], which takes it out of that job, drops
//! what the job placed on it and moves the dispatch on, uncharged; its
//! next pick prepares it afresh.
//!
//! A job ends on the heartbeat: every `Ping` and `Prepare` carries the
//! coordinator's [`Roster`], and a worker drops each job it ends, so one
//! that missed a job's end is swept at the next probe that reaches it.
//!
//! The wire types live in `wire`, the membership and heartbeat in
//! `membership`, and the job executor in `remote`.

mod membership;
mod remote;
mod wire;

pub use membership::{fleet_metrics, Fleet, FleetMetrics};
pub use remote::RemoteJob;
pub use wire::{
    send_reply, PartitionStatus, Roster, SourceLoc, WorkerConn, WorkerRequest, WorkerResponse,
    WorkerStat,
};
