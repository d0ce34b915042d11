//! The coordinator's side of the worker fleet: the coordinator ↔
//! worker wire protocol, per-worker liveness tracking (heartbeats),
//! dispatch, and the [`RemoteJob`] task executor that plugs the fleet
//! into the engine's [`sidr_mapreduce::executor::TaskExecutor`] seam.
//! Every connection goes through the fleet's
//! [`Transport`], and every thread, wait
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
//! partition as CRC-framed SMOF (v3) bytes after `Partition`, a
//! reduce attempt's keyblock as a [`crate::binframe`] `KeyblockBin`
//! frame after `ReduceDone`.
//!
//! Each fact about the data plane is said once. A partition is *held
//! or gone*: a map's `MapDone` names the reducers it produced data for,
//! the coordinator records that next to the holder and names only those
//! sources in `RunReduce`, so on a worker "present in the store" means
//! data and "absent" means [`PartitionStatus::Missing`] — there is no
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
//! [`RemoteReduceError::SourcesLost`] so the engine re-executes exactly
//! those maps (§6), never a whole dependency set.
//!
//! A worker that restarts at the same address *rejoins* as a new member
//! with an empty store, not part of any running job: it answers a task
//! of such a job with [`WorkerResponse::UnknownJob`], which takes it out
//! of that job and moves the dispatch on, uncharged. A job that has no
//! member left to answer enlists the live non-members with a fresh
//! `Prepare`; what it placed on a rejoined one before reads `Missing`.

use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use sidr_coords::Coord;
use sidr_core::exec::ExecOptions;
use sidr_core::spec::JobSpec;
use sidr_mapreduce::executor::{ReduceSource, RemoteReduceError, TaskExecutor};
use sidr_mapreduce::sync::chaos::{self, Mutation};
use sidr_mapreduce::sync::{thread, time, wait_until, Condvar, Mutex};
use sidr_mapreduce::{Counters, InputSplit, MapTaskId, MrError};
use sidr_obs::{global, Counter, Gauge, Histogram};

use crate::binframe;
use crate::frame::{self, handshake_dial, FrameError, Role};
use crate::transport::{Conn, Transport};

/// One request on a coordinator→worker (or worker→worker fetch)
/// connection.
// A request is built, written to a socket and dropped — never held in
// bulk — so `Prepare` carrying its spec inline costs nothing worth a
// `Box` (which the offline serde shim does not serialize).
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum WorkerRequest {
    /// Liveness probe; answered with [`WorkerResponse::Pong`].
    Ping { session: u64 },
    /// Installs a job on the worker: the spec (splits, routing
    /// promises), the input path (shared filesystem, like an HDFS
    /// mount) and the task-local execution options.
    ///
    /// `session` (here and on `Ping`) names the coordinator: a worker
    /// that first hears a new one drops every job of the last, whose
    /// `Finish` will never come — even if it missed the successor's
    /// first `Prepare` of a reused job id.
    Prepare {
        session: u64,
        job: u64,
        spec: JobSpec,
        input: String,
        opts: ExecOptions,
    },
    /// Runs one map attempt; the worker keeps the committed
    /// partitions until a reduce that replied releases them or the job
    /// finishes.
    RunMap { job: u64, task: usize, attempt: u32 },
    /// Runs one reduce attempt: fetch every source partition from its
    /// holder, merge/reduce, send the keyblock back whole, and only
    /// then release the sources. `sources` names non-empty partitions
    /// only.
    RunReduce {
        job: u64,
        reducer: usize,
        attempt: u32,
        sources: Vec<SourceLoc>,
        expected_raw: Option<u64>,
    },
    /// Worker↔worker shuffle fetch: peek one partition. Answered with
    /// [`WorkerResponse::Partition`], followed by one *raw* frame of
    /// SMOF bytes when data is present.
    FetchPartition {
        job: u64,
        map: usize,
        reducer: usize,
        epoch: u32,
    },
    /// Drop the partitions a reduce attempt merged, sent *after* its
    /// keyblock reply: an attempt that dies or fails before replying
    /// leaves every source intact.
    Release {
        job: u64,
        reducer: usize,
        maps: Vec<(usize, u32)>,
    },
    /// Drops all state for a finished job.
    Finish { job: u64 },
}

/// Where one reduce source partition lives.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SourceLoc {
    pub map: usize,
    pub epoch: u32,
    /// Advertised address of the worker holding the partition.
    pub holder: String,
}

/// Worker replies. A `RunReduce` is answered with `ReduceDone`
/// followed by one raw `KeyblockBin` frame — or `Failed`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum WorkerResponse {
    Pong(WorkerStat),
    Prepared {
        job: u64,
    },
    MapDone {
        job: u64,
        task: usize,
        attempt: u32,
        records_in: u64,
        records_out: u64,
        /// Reducers with a non-empty partition from this attempt.
        partitions: Vec<usize>,
    },
    /// The attempt succeeded; one raw frame follows, holding its whole
    /// keyblock (`emitted` records) in the
    /// [`binframe::encode_keyblock`] layout.
    ReduceDone {
        emitted: u64,
        /// Wall time the copy phase spent fetching, for the
        /// coordinator's shuffle-fetch latency histogram.
        fetch_ms: u64,
    },
    /// Shuffle-fetch peek result; [`PartitionStatus::Data`] ⇒ one raw
    /// SMOF frame follows. `Missing` means the holder does not have
    /// that generation — the fetching worker reports it lost.
    Partition {
        status: PartitionStatus,
    },
    Released,
    Finished,
    /// A task for a job this worker was never prepared for: it
    /// restarted since `Prepare` (a rejoined member, empty store).
    UnknownJob {
        job: u64,
    },
    /// The request failed; nothing was released. `lost_sources`
    /// non-empty means source partitions are gone (holder dead or
    /// missing); `fatal` means the job must fail (e.g. annotation
    /// mismatch), retrying cannot help.
    Failed {
        detail: String,
        fatal: bool,
        lost_sources: Vec<usize>,
    },
}

impl WorkerResponse {
    /// Does one raw frame follow this reply on the wire? The single
    /// statement of that protocol fact: [`send_reply`] and
    /// [`WorkerConn::request`] — hence every writer and reader of the
    /// protocol — ask here.
    pub fn carries_payload(&self) -> bool {
        matches!(
            self,
            WorkerResponse::ReduceDone { .. }
                | WorkerResponse::Partition {
                    status: PartitionStatus::Data
                }
        )
    }
}

/// Writes one reply: its JSON header, then `payload` as one raw frame
/// — present exactly when the reply [carries
/// one](WorkerResponse::carries_payload). Header and payload leave in
/// one gathered write: as two writes under Nagle, a keyblock smaller
/// than one segment sat behind the peer's delayed ACK of its header.
pub fn send_reply(
    w: &mut impl Write,
    reply: &WorkerResponse,
    payload: Option<&[u8]>,
) -> Result<(), FrameError> {
    if reply.carries_payload() != payload.is_some() {
        return Err(FrameError::Io(format!(
            "reply {reply:?} and its payload disagree"
        )));
    }
    let header = frame::to_json(reply)?;
    match payload {
        Some(bytes) => frame::write_frames(w, &[header.as_bytes(), bytes]),
        None => frame::write_frame(w, header.as_bytes()),
    }
}

/// Outcome of a shuffle-fetch peek.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum PartitionStatus {
    /// Held: data follows as one raw frame.
    Data,
    /// Gone: this generation is not here (released, damaged on disk,
    /// or lost with a restart).
    Missing,
}

/// Point-in-time view of one worker, as reported by its `Pong` and
/// the coordinator's liveness tracking. Serialized into
/// [`crate::proto::ServerStats`] for `sidr-submit stats`.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerStat {
    pub addr: String,
    pub alive: bool,
    /// Milliseconds since the last successful heartbeat.
    pub heartbeat_age_ms: u64,
    /// Task attempts currently executing on the worker.
    pub tasks_in_flight: u64,
    /// Lifetime attempt counts.
    pub map_attempts: u64,
    pub reduce_attempts: u64,
    /// Partitions currently held for un-fetched map output.
    pub partitions_held: u64,
    /// Memory-pressure summary from the worker's tiered partition
    /// store.
    pub resident_bytes: u64,
    pub spilled_bytes: u64,
    /// Resident byte budget; 0 means unbounded.
    pub budget_bytes: u64,
    pub peak_resident_bytes: u64,
    /// Spill writes that failed (disk full): those partitions are
    /// pinned resident, so the budget is no longer enforceable.
    pub spill_failures: u64,
}

impl WorkerStat {
    /// Is this worker under memory pressure? True when a budget is
    /// set and the worker is either over it (spills failing or
    /// pinned), currently holding spilled partitions (at capacity —
    /// new fetches pay disk read-backs), or has failed spill writes.
    /// Unbounded workers (budget 0) are never pressured.
    pub fn pressured(&self) -> bool {
        self.budget_bytes > 0
            && (self.resident_bytes > self.budget_bytes
                || self.spilled_bytes > 0
                || self.spill_failures > 0)
    }
}

/// Fleet-wide metrics (process-global, one registration).
pub struct FleetMetrics {
    pub workers_lost: Arc<Counter>,
    pub tasks_reassigned: Arc<Counter>,
    /// Coordinator-observed latency of one remote dispatch
    /// (map or reduce), connection to final reply.
    pub dispatch_seconds: Arc<Histogram>,
    /// Worker-reported wall time of a reduce's shuffle-fetch copy
    /// phase.
    pub fetch_seconds: Arc<Histogram>,
    /// Memory-pressure advisories emitted (one per worker transition
    /// into pressure, `SIDR-I015`).
    pub pressure_advisories: Arc<Counter>,
}

const DISPATCH_BUCKETS: &[f64] = &[
    0.001, 0.002_5, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
];

/// The fleet's metric inventory, registered on first use.
pub fn fleet_metrics() -> &'static FleetMetrics {
    static METRICS: OnceLock<FleetMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = global();
        FleetMetrics {
            workers_lost: r.counter(
                "sidr_fleet_workers_lost_total",
                "Workers declared dead by the heartbeat monitor (per transition)",
                &[],
            ),
            tasks_reassigned: r.counter(
                "sidr_fleet_tasks_reassigned_total",
                "Task attempts re-dispatched after their worker died mid-flight",
                &[],
            ),
            dispatch_seconds: r.histogram(
                "sidr_fleet_dispatch_seconds",
                "Remote task dispatch latency (connect to final reply), seconds",
                &[],
                DISPATCH_BUCKETS,
            ),
            fetch_seconds: r.histogram(
                "sidr_fleet_fetch_seconds",
                "Reduce copy-phase shuffle-fetch wall time, seconds",
                &[],
                DISPATCH_BUCKETS,
            ),
            pressure_advisories: r.counter(
                "sidr_fleet_pressure_advisories_total",
                "Memory-pressure advisories emitted (SIDR-I015, per worker transition)",
                &[],
            ),
        }
    })
}

/// One tracked worker.
struct WorkerSlot {
    addr: String,
    alive: AtomicBool,
    last_heartbeat: Mutex<Instant>,
    /// Cached copy of the worker's last `Pong` self-report.
    last_stat: Mutex<WorkerStat>,
    /// Whether the last `Pong` reported memory pressure — dispatch
    /// deprioritizes pressured workers, and the transition into
    /// pressure emits one `SIDR-I015` advisory.
    pressured: AtomicBool,
    /// `sidr_fleet_worker_heartbeat_age_ms{worker=...}` gauge.
    heartbeat_gauge: Arc<Gauge>,
    /// `sidr_fleet_worker_resident_bytes{worker=...}` /
    /// `sidr_fleet_worker_spilled_bytes{worker=...}` gauges, fed from
    /// each heartbeat's pressure summary.
    resident_gauge: Arc<Gauge>,
    spilled_gauge: Arc<Gauge>,
}

/// Heartbeat probe interval: every worker is pinged once per period.
const HEARTBEAT_EVERY: Duration = Duration::from_millis(200);

/// Connect/read timeout of a probe (and of `Finish`); a worker that
/// cannot answer within it is declared dead.
const HEARTBEAT_TIMEOUT: Duration = Duration::from_millis(500);

/// The coordinator's handle on its worker fleet.
pub struct Fleet {
    net: Arc<dyn Transport>,
    /// This coordinator, as its requests name it to workers.
    session: u64,
    slots: Vec<Arc<WorkerSlot>>,
    job_seq: AtomicU64,
    /// The heartbeat monitor's progress: it waits on this between
    /// rounds for `shutdown`, and a dispatch that found no live worker
    /// waits on it for the next round.
    beat: Arc<(Mutex<Beat>, Condvar)>,
    monitor: Mutex<Option<thread::JoinHandle<()>>>,
}

#[derive(Default)]
struct Beat {
    rounds: u64,
    stopped: bool,
}

impl Fleet {
    /// Builds the fleet over `net` and starts the heartbeat monitor.
    /// Workers that are down at construction are simply marked dead;
    /// they join the rotation at their first successful probe.
    /// `workers` are their advertised addresses.
    pub fn connect(net: Arc<dyn Transport>, workers: Vec<String>) -> Result<Self, MrError> {
        if workers.is_empty() {
            return Err(MrError::BadConfig("fleet needs at least one worker".into()));
        }
        let r = global();
        let slots: Vec<Arc<WorkerSlot>> = workers
            .iter()
            .map(|addr| {
                Arc::new(WorkerSlot {
                    addr: addr.clone(),
                    alive: AtomicBool::new(false),
                    last_heartbeat: Mutex::new(time::now()),
                    last_stat: Mutex::new(WorkerStat::default()),
                    pressured: AtomicBool::new(false),
                    heartbeat_gauge: r.gauge(
                        "sidr_fleet_worker_heartbeat_age_ms",
                        "Milliseconds since this worker's last successful heartbeat",
                        &[("worker", addr.as_str())],
                    ),
                    resident_gauge: r.gauge(
                        "sidr_fleet_worker_resident_bytes",
                        "Resident partition bytes this worker reported on its last heartbeat",
                        &[("worker", addr.as_str())],
                    ),
                    spilled_gauge: r.gauge(
                        "sidr_fleet_worker_spilled_bytes",
                        "Spilled partition bytes this worker reported on its last heartbeat",
                        &[("worker", addr.as_str())],
                    ),
                })
            })
            .collect();
        let fleet = Fleet {
            net,
            session: new_session(),
            slots,
            job_seq: AtomicU64::new(1),
            beat: Arc::default(),
            monitor: Mutex::new(None),
        };
        // Synchronous first round so jobs submitted immediately after
        // startup see the real liveness picture.
        for slot in &fleet.slots {
            probe(&*fleet.net, fleet.session, slot);
        }
        let (net, session, beat) = (
            Arc::clone(&fleet.net),
            fleet.session,
            Arc::clone(&fleet.beat),
        );
        let slots = fleet.slots.clone();
        // Every worker is probed once per period, start to start (a
        // round that overran it starts the next at once); in between
        // the monitor waits for `shutdown`.
        let handle = thread::spawn(move || {
            let mut round = time::now();
            loop {
                let next = round + HEARTBEAT_EVERY;
                let stopped = |b: &mut Beat| b.stopped.then_some(Some(()));
                if wait_until(&beat.1, &mut beat.0.lock(), Some(next), stopped).is_some() {
                    return;
                }
                round = time::now();
                for slot in &slots {
                    probe(&*net, session, slot);
                }
                beat.0.lock().rounds += 1;
                beat.1.notify_all();
            }
        });
        *fleet.monitor.lock() = Some(handle);
        Ok(fleet)
    }

    pub fn size(&self) -> usize {
        self.slots.len()
    }

    /// Per-worker stats for `ServerStats`.
    pub fn stats(&self) -> Vec<WorkerStat> {
        self.slots
            .iter()
            .map(|s| {
                let mut stat = s.last_stat.lock().clone();
                stat.addr = s.addr.clone();
                stat.alive = s.alive.load(Ordering::SeqCst);
                stat.heartbeat_age_ms = s.heartbeat_age().as_millis() as u64;
                stat
            })
            .collect()
    }

    /// Prepares a job on every live worker and returns its remote
    /// executor.
    pub fn prepare_job(
        &self,
        spec: &JobSpec,
        input: &str,
        opts: &ExecOptions,
    ) -> Result<RemoteJob<'_>, MrError> {
        let job = self.job_seq.fetch_add(1, Ordering::Relaxed);
        let req = WorkerRequest::Prepare {
            session: self.session,
            job,
            spec: spec.clone(),
            input: input.to_string(),
            opts: opts.clone(),
        };
        // Every worker may only *look* dead: give the heartbeat one
        // round to say otherwise.
        if !(self.slots.iter()).any(|s| s.alive.load(Ordering::SeqCst)) {
            self.await_round(self.rounds());
        }
        // A slot is part of this job only if it answered `Prepare`: a
        // worker skipped as dead here that the heartbeat revives a
        // moment later never installed the job.
        let prepared: Box<[AtomicBool]> =
            self.slots.iter().map(|_| AtomicBool::new(false)).collect();
        let mut refused = None;
        for (slot, prepared) in self.slots.iter().zip(prepared.iter()) {
            if !slot.alive.load(Ordering::SeqCst) {
                continue;
            }
            match call(&*self.net, &slot.addr, &req, None) {
                Ok((WorkerResponse::Prepared { .. }, _)) => prepared.store(true, Ordering::SeqCst),
                Ok((WorkerResponse::Failed { detail, .. }, _)) => {
                    refused = Some(format!("worker {} rejected the job: {detail}", slot.addr));
                    break;
                }
                Ok((other, _)) => {
                    refused = Some(format!(
                        "worker {}: unexpected reply to Prepare: {other:?}",
                        slot.addr
                    ));
                    break;
                }
                // A worker dying during prepare is not fatal — it is
                // simply not part of this job.
                Err(_) => mark_dead(slot),
            }
        }
        let remote = RemoteJob {
            fleet: self,
            job,
            prepare: req,
            prepared,
            placement: Mutex::new(HashMap::new()),
            in_flight: Mutex::new(HashMap::new()),
        };
        if refused.is_none() && remote.members().next().is_none() {
            refused = Some("no live workers to run the job".into());
        }
        match refused {
            // The workers that did answer `Prepared` hold the job's
            // executor and open input until told otherwise.
            Some(why) => {
                remote.finish();
                Err(MrError::BadConfig(why))
            }
            None => Ok(remote),
        }
    }

    /// Heartbeat rounds completed so far.
    fn rounds(&self) -> u64 {
        self.beat.0.lock().rounds
    }

    /// Waits until heartbeat round `after` has completed, or for as long
    /// as one round can take.
    fn await_round(&self, after: u64) {
        let until = time::now() + HEARTBEAT_EVERY + HEARTBEAT_TIMEOUT * self.slots.len() as u32;
        let done = |b: &mut Beat| (b.rounds > after || b.stopped).then_some(Some(()));
        wait_until(&self.beat.1, &mut self.beat.0.lock(), Some(until), done);
    }

    /// Stops the heartbeat monitor. Called on drop.
    pub fn shutdown(&self) {
        self.beat.0.lock().stopped = true;
        self.beat.1.notify_all();
        if let Some(h) = self.monitor.lock().take() {
            h.join().ok();
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl WorkerSlot {
    fn heartbeat_age(&self) -> Duration {
        time::now().saturating_duration_since(*self.last_heartbeat.lock())
    }
}

fn mark_dead(slot: &WorkerSlot) {
    if slot.alive.swap(false, Ordering::SeqCst) {
        fleet_metrics().workers_lost.inc();
    }
}

/// A session id no earlier coordinator used: the wall clock, plus a
/// sequence for coordinators started in one process.
fn new_session() -> u64 {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    nanos.wrapping_add(SEQ.fetch_add(1, Ordering::Relaxed))
}

/// One liveness probe: dial, handshake, `Ping`, read `Pong`.
fn probe(net: &dyn Transport, session: u64, slot: &WorkerSlot) {
    let ping = WorkerRequest::Ping { session };
    match call(net, &slot.addr, &ping, Some(HEARTBEAT_TIMEOUT)) {
        Ok((WorkerResponse::Pong(stat), _)) => {
            let pressured = stat.pressured();
            slot.resident_gauge.set(stat.resident_bytes as i64);
            slot.spilled_gauge.set(stat.spilled_bytes as i64);
            if pressured && !slot.pressured.swap(true, Ordering::SeqCst) {
                fleet_metrics().pressure_advisories.inc();
                eprintln!(
                    "[{}] worker {} under memory pressure: {} resident / {} budget bytes, \
                     {} spilled, {} spill failure(s) — degrading to the disk tier, \
                     deprioritizing for dispatch",
                    sidr_core::diag::codes::MEMORY_PRESSURE,
                    slot.addr,
                    stat.resident_bytes,
                    stat.budget_bytes,
                    stat.spilled_bytes,
                    stat.spill_failures,
                );
            } else if !pressured {
                slot.pressured.store(false, Ordering::SeqCst);
            }
            *slot.last_heartbeat.lock() = time::now();
            *slot.last_stat.lock() = stat;
            slot.heartbeat_gauge.set(0);
            // Rejoin is safe: a restarted worker holds no partitions,
            // so anything it "held" surfaces as Missing and recovers,
            // and it answers running jobs' tasks with `UnknownJob`.
            slot.alive.store(true, Ordering::SeqCst);
        }
        Ok(_) | Err(_) => {
            mark_dead(slot);
            slot.heartbeat_gauge
                .set(slot.heartbeat_age().as_millis() as i64);
        }
    }
}

/// A framed, handshaken connection to a worker — used by the
/// coordinator for dispatch and by workers for peer shuffle fetches
/// (which announce [`Role::Worker`] instead).
pub struct WorkerConn {
    conn: Conn,
}

impl WorkerConn {
    /// Dials a worker over `net`, announcing `ours` in the handshake.
    pub fn dial(
        net: &dyn Transport,
        addr: &str,
        ours: Role,
        timeout: Option<Duration>,
    ) -> Result<Self, FrameError> {
        let mut conn = net
            .dial(addr, timeout)
            .map_err(|e| FrameError::Io(e.to_string()))?;
        handshake_dial(&mut conn, ours, Role::Worker)?;
        Ok(WorkerConn { conn })
    }

    /// One request, its reply, and the raw frame after the reply when
    /// it [carries one](WorkerResponse::carries_payload) — a partition
    /// as SMOF bytes after `Partition`, a keyblock after `ReduceDone`.
    pub fn request(
        &mut self,
        req: &WorkerRequest,
    ) -> Result<(WorkerResponse, Option<Vec<u8>>), FrameError> {
        let hung_up = || FrameError::Io("worker closed the connection".into());
        frame::send(&mut self.conn, req)?;
        let reply: WorkerResponse = frame::recv(&mut self.conn)?.ok_or_else(hung_up)?;
        let payload = if reply.carries_payload() {
            Some(frame::read_frame(&mut self.conn)?.ok_or_else(hung_up)?)
        } else {
            None
        };
        Ok((reply, payload))
    }
}

/// The one RPC driver: dial, handshake, one request, its reply (and
/// payload). Every coordinator → worker exchange is one `call` on a
/// fresh connection.
fn call(
    net: &dyn Transport,
    addr: &str,
    req: &WorkerRequest,
    timeout: Option<Duration>,
) -> Result<(WorkerResponse, Option<Vec<u8>>), FrameError> {
    WorkerConn::dial(net, addr, Role::Coordinator, timeout)?.request(req)
}

/// One job's remote executor: implements the engine's
/// [`TaskExecutor`] seam by dispatching attempts to the fleet and
/// tracking which worker holds each committed map generation.
pub struct RemoteJob<'f> {
    fleet: &'f Fleet,
    job: u64,
    /// The job's `Prepare`, for enlisting late members.
    prepare: WorkerRequest,
    /// Which workers are members of this job (index-aligned with the
    /// fleet's slots): they answered `Prepare` and have not since
    /// rejoined. Dispatch never targets the others.
    prepared: Box<[AtomicBool]>,
    /// `(map, epoch)` → where that committed generation is held.
    placement: Mutex<HashMap<(usize, u32), Held>>,
    /// map → fleet slot currently executing its *primary* attempt.
    /// Speculative dispatch reads this to place the twin on a
    /// different worker than the straggler.
    in_flight: Mutex<HashMap<usize, usize>>,
}

/// One committed map generation, as its `MapDone` reported it.
struct Held {
    /// Fleet slot index of the holder.
    slot: usize,
    /// The reducers it holds a partition for: a reducer not listed got
    /// nothing from this map and is never told to fetch it.
    reducers: Vec<usize>,
}

impl RemoteJob<'_> {
    /// The slots that are members of this job, in slot order.
    fn members(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.prepared.len()).filter(|&i| self.prepared[i].load(Ordering::SeqCst))
    }

    /// Broadcasts `Finish`, dropping the job's state on every prepared
    /// worker — including one currently marked dead: a missed heartbeat
    /// may only mean slow, and a live worker left unfinished would keep
    /// the job's executor and partitions. The probe timeout bounds the
    /// call to one that really is gone.
    pub fn finish(&self) {
        for i in self.members() {
            let slot = &self.fleet.slots[i];
            if chaos::on(Mutation::FinishSkipsDeadWorkers) && !slot.alive.load(Ordering::SeqCst) {
                continue;
            }
            let finish = WorkerRequest::Finish { job: self.job };
            call(
                &*self.fleet.net,
                &slot.addr,
                &finish,
                Some(HEARTBEAT_TIMEOUT),
            )
            .ok();
        }
    }

    /// Workers eligible for this job's dispatch: live members in slot
    /// order, those reporting memory pressure last (stable sort). A
    /// pressured worker stays a legal target: it is slower, not wrong,
    /// and may be the only one left.
    fn ranked_workers(&self) -> Vec<usize> {
        let slots = &self.fleet.slots;
        let mut ranked: Vec<usize> = (self.members())
            .filter(|&i| slots[i].alive.load(Ordering::SeqCst))
            .collect();
        ranked.sort_by_key(|&i| slots[i].pressured.load(Ordering::SeqCst));
        ranked
    }

    /// Installs the job on live workers that are not members — they
    /// looked dead at `Prepare`, or rejoined since — for a dispatch no
    /// member answered.
    fn enlist(&self) {
        for (slot, prepared) in self.fleet.slots.iter().zip(self.prepared.iter()) {
            if prepared.load(Ordering::SeqCst) || !slot.alive.load(Ordering::SeqCst) {
                continue;
            }
            let reply = call(&*self.fleet.net, &slot.addr, &self.prepare, None);
            if let Ok((WorkerResponse::Prepared { .. }, _)) = reply {
                prepared.store(true, Ordering::SeqCst);
            }
        }
    }

    /// The one walk over dispatch candidates: `attempt_on` each slot in
    /// rank order until a worker *answers* — whatever it answers, except
    /// `UnknownJob`. An `Err` is connection-level death: the worker died
    /// mid-attempt, having committed nothing (map) and released nothing
    /// (reduce), so it is marked dead and the same attempt moves to the
    /// next candidate. `UnknownJob` is a worker that rejoined since
    /// `Prepare`: it leaves this job and the attempt moves on, uncharged
    /// either way. When nobody answered, every member may only *look*
    /// dead (missed beats, a cut connection): the walk waits for the
    /// next heartbeat round, [enlists](Self::enlist) live non-members
    /// and goes once more over the candidates ranked then. `None` means
    /// no candidate answered either time.
    fn dispatch(
        &self,
        candidates: impl Fn() -> Vec<usize>,
        mut attempt_on: impl FnMut(usize, &str) -> Result<Reply, FrameError>,
    ) -> Option<(usize, Reply)> {
        let metrics = fleet_metrics();
        for walk in 0..2 {
            let round = self.fleet.rounds();
            for (nth, idx) in candidates().into_iter().enumerate() {
                if nth > 0 || walk > 0 {
                    metrics.tasks_reassigned.inc();
                }
                let slot = &self.fleet.slots[idx];
                let started = time::now();
                match attempt_on(idx, &slot.addr) {
                    Ok((WorkerResponse::UnknownJob { .. }, _)) => {
                        self.prepared[idx].store(false, Ordering::SeqCst);
                    }
                    Ok(reply) => {
                        metrics
                            .dispatch_seconds
                            .observe_duration(time::now().saturating_duration_since(started));
                        return Some((idx, reply));
                    }
                    Err(_) => mark_dead(slot),
                }
            }
            if walk == 0 {
                self.fleet.await_round(round);
                self.enlist();
            }
        }
        None
    }
}

/// A reply and the raw frame after it, if any.
type Reply = (WorkerResponse, Option<Vec<u8>>);

impl TaskExecutor<Coord, f64> for RemoteJob<'_> {
    /// A speculative twin demotes the worker currently running the
    /// primary attempt to the *back* of the candidate list: racing on
    /// the machine that is already slow defeats the point, but it stays
    /// a legal last resort when it is the only live worker.
    fn execute_map(
        &self,
        task: MapTaskId,
        attempt: u32,
        speculative: bool,
        // Every worker opens the same input path: no candidate is
        // closer to a split than another.
        _split: &InputSplit,
        counters: &Counters,
        // The attempt runs on a worker, which cannot see the
        // scheduler's cancel or race state.
        _pause: &dyn Fn(Duration) -> bool,
    ) -> sidr_mapreduce::Result<()> {
        let candidates = || {
            let mut ranked = self.ranked_workers();
            if speculative {
                // The twin may be here before its primary was dispatched,
                // which then takes the head of the same ranking.
                let in_flight = self.in_flight.lock().get(&task).copied();
                let busy = in_flight.or(ranked.first().copied());
                if let Some(pos) = busy.and_then(|b| ranked.iter().position(|&i| i == b)) {
                    let demoted = ranked.remove(pos);
                    ranked.push(demoted);
                }
            }
            ranked
        };
        let req = WorkerRequest::RunMap {
            job: self.job,
            task,
            attempt,
        };
        let reply = self.dispatch(candidates, |idx, addr| {
            if !speculative {
                self.in_flight.lock().insert(task, idx);
            }
            let reply = call(&*self.fleet.net, addr, &req, None);
            if !speculative {
                let mut in_flight = self.in_flight.lock();
                if in_flight.get(&task) == Some(&idx) {
                    in_flight.remove(&task);
                }
            }
            reply
        });
        match reply.map(|(idx, (reply, _))| (idx, reply)) {
            Some((
                idx,
                WorkerResponse::MapDone {
                    records_in,
                    records_out,
                    partitions,
                    ..
                },
            )) => {
                Counters::add(&counters.map_records_in, records_in);
                Counters::add(&counters.map_records_out, records_out);
                self.placement.lock().insert(
                    (task, attempt),
                    Held {
                        slot: idx,
                        reducers: partitions,
                    },
                );
                Ok(())
            }
            // The worker is alive and the attempt itself failed
            // (injected fault, bad split): charge the retry budget
            // like a local failure.
            Some((_, WorkerResponse::Failed { detail, fatal, .. })) => Err(if fatal {
                MrError::TaskFailed {
                    task: format!("map {task}"),
                    cause: detail,
                }
            } else {
                MrError::Source(detail)
            }),
            Some((_, other)) => Err(MrError::Source(format!(
                "unexpected reply to RunMap: {other:?}"
            ))),
            None => Err(MrError::Source(format!(
                "map {task}: no live worker answered the dispatch"
            ))),
        }
    }

    fn execute_reduce(
        &self,
        reducer: usize,
        attempt: u32,
        sources: &[ReduceSource],
        expected_raw: Option<u64>,
        _counters: &Counters,
    ) -> Result<Vec<(Coord, f64)>, RemoteReduceError> {
        // Resolve each held source's holder — a map that produced
        // nothing for this reducer is not a source. A generation whose
        // holder is dead or has rejoined since is already lost: report
        // it without burning a dispatch. Dispatch prefers the worker
        // already holding the most source partitions (shuffle-local),
        // then the rest.
        let mut locs = Vec::with_capacity(sources.len());
        let mut lost = Vec::new();
        let mut holder_count: HashMap<usize, usize> = HashMap::new();
        {
            let placement = self.placement.lock();
            let gone = |i: usize| {
                !self.fleet.slots[i].alive.load(Ordering::SeqCst)
                    || !self.prepared[i].load(Ordering::SeqCst)
            };
            for s in sources {
                match placement.get(&(s.map, s.epoch)) {
                    Some(held) if gone(held.slot) => lost.push(s.map),
                    Some(held) if held.reducers.contains(&reducer) => {
                        locs.push(SourceLoc {
                            map: s.map,
                            epoch: s.epoch,
                            holder: self.fleet.slots[held.slot].addr.clone(),
                        });
                        *holder_count.entry(held.slot).or_default() += 1;
                    }
                    Some(_) => {}
                    None => lost.push(s.map),
                }
            }
        }
        if !lost.is_empty() {
            return Err(RemoteReduceError::SourcesLost(lost));
        }

        // Pressure outranks shuffle locality: fetching over the wire
        // from an unpressured worker beats making an over-budget one
        // merge (and page its own partitions back from disk).
        let candidates = || {
            let mut ranked = self.ranked_workers();
            ranked.sort_by_key(|i| {
                (
                    self.fleet.slots[*i].pressured.load(Ordering::SeqCst),
                    std::cmp::Reverse(holder_count.get(i).copied().unwrap_or(0)),
                )
            });
            ranked
        };
        let req = WorkerRequest::RunReduce {
            job: self.job,
            reducer,
            attempt,
            sources: locs,
            expected_raw,
        };
        // A reduce attempt releases nothing until it has replied, so a
        // connection that breaks before the keyblock frame has arrived
        // whole is the walk's business: same attempt, next worker.
        let failed = RemoteReduceError::AttemptFailed;
        let net = &*self.fleet.net;
        let (emitted, fetch_ms, frame) =
            match (self.dispatch(candidates, |_, addr| call(net, addr, &req, None))).map(|r| r.1) {
                Some((WorkerResponse::ReduceDone { emitted, fetch_ms }, Some(frame))) => {
                    (emitted, fetch_ms, frame)
                }
                Some((
                    WorkerResponse::Failed {
                        detail,
                        fatal,
                        lost_sources,
                    },
                    _,
                )) => {
                    return Err(if fatal {
                        RemoteReduceError::Fatal(MrError::TaskFailed {
                            task: "remote reduce".into(),
                            cause: detail,
                        })
                    } else if !lost_sources.is_empty() {
                        RemoteReduceError::SourcesLost(lost_sources)
                    } else {
                        failed(detail)
                    });
                }
                Some((other, _)) => {
                    return Err(failed(format!(
                        "unexpected frame in reply to RunReduce: {other:?}"
                    )))
                }
                None => {
                    return Err(failed(format!(
                        "reduce {reducer}: no live worker answered the dispatch"
                    )))
                }
            };
        // Nothing is committed unless the keyblock names this job, this
        // reducer and the record count `ReduceDone` announced; a frame
        // that fails any of those (or its CRC) costs the attempt.
        let kb = binframe::decode_keyblock(&frame)
            .map_err(|e| failed(format!("keyblock frame: {e}")))?;
        if (kb.job, kb.reducer, kb.records.len() as u64) != (self.job, reducer, emitted) {
            return Err(failed(format!(
                "keyblock frame names job {} reducer {} with {} records, \
                 not job {} reducer {reducer} with {emitted}",
                kb.job,
                kb.reducer,
                kb.records.len(),
                self.job
            )));
        }
        fleet_metrics()
            .fetch_seconds
            .observe(Duration::from_millis(fetch_ms).as_secs_f64());
        Ok(kb.records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer that counts the calls made into it — on a socket, each
    /// is one syscall and, under Nagle, one chance to be held back.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        calls: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn write_vectored(&mut self, bufs: &[std::io::IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            bufs.iter().for_each(|b| self.bytes.extend_from_slice(b));
            Ok(bufs.iter().map(|b| b.len()).sum())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Every reply — header plus payload, or header alone — is one
    /// write, and reads back frame by frame unchanged.
    #[test]
    fn every_reply_is_one_write() {
        let keyblock =
            binframe::encode_keyblock(7, 3, 0, &[(Coord::from([1, 2]), 0.5)]).expect("one rank");
        let partition = sidr_mapreduce::MapOutputFile {
            records: vec![(Coord::from([4, 5]), 1.5), (Coord::from([4, 6]), -2.0)],
            raw_count: 9,
        };
        let smof = sidr_mapreduce::shuffle_file::encode_map_output(&partition).expect("one rank");
        let done = WorkerResponse::ReduceDone {
            emitted: 1,
            fetch_ms: 2,
        };
        let data = WorkerResponse::Partition {
            status: PartitionStatus::Data,
        };
        let replies = [
            (done, Some(&keyblock[..])),
            (data, Some(&smof[..])),
            (WorkerResponse::Released, None),
        ];
        for (reply, payload) in replies {
            let mut w = CountingWriter::default();
            send_reply(&mut w, &reply, payload).unwrap();
            assert_eq!(w.calls, 1, "{reply:?} took {} writes", w.calls);
            let mut r = &w.bytes[..];
            let back: WorkerResponse = frame::recv(&mut r).unwrap().unwrap();
            assert_eq!(format!("{back:?}"), format!("{reply:?}"));
            let raw = if back.carries_payload() {
                frame::read_frame(&mut r).unwrap()
            } else {
                None
            };
            assert_eq!(raw.as_deref(), payload);
            assert!(r.is_empty(), "{} trailing bytes", r.len());
        }
    }
}
