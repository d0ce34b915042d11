//! The coordinator's side of the worker fleet: the coordinator ↔
//! worker wire protocol, per-worker liveness tracking (heartbeats),
//! locality-aware dispatch, and the [`RemoteJob`] task executor that
//! plugs the fleet into the engine's
//! [`sidr_mapreduce::executor::TaskExecutor`] seam.
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

use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use sidr_coords::Coord;
use sidr_core::exec::ExecOptions;
use sidr_core::spec::JobSpec;
use sidr_dfs::{DfsConfig, FileId, NameNode, NodeId};
use sidr_mapreduce::executor::{ReduceSource, RemoteReduceError, TaskExecutor};
use sidr_mapreduce::{Counters, InputSplit, MapTaskId, MrError};
use sidr_obs::{global, Counter, Gauge, Histogram};

use crate::binframe;
use crate::frame::{self, handshake_dial, FrameError, Role};

/// One request on a coordinator→worker (or worker→worker fetch)
/// connection.
// A request is built, written to a socket and dropped — never held in
// bulk — so `Prepare` carrying its spec inline costs nothing worth a
// `Box` (which the offline serde shim does not serialize).
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum WorkerRequest {
    /// Liveness probe; answered with [`WorkerResponse::Pong`].
    Ping,
    /// Installs a job on the worker: the spec (splits, routing
    /// promises), the input path (shared filesystem, like an HDFS
    /// mount) and the task-local execution options.
    Prepare {
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
    slots: Vec<Arc<WorkerSlot>>,
    /// Simulated HDFS namespace used for locality-aware map dispatch:
    /// one datanode per worker, each input path registered once.
    namenode: NameNode,
    job_seq: AtomicU64,
    stop: Arc<AtomicBool>,
    monitor: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Fleet {
    /// Builds the fleet and starts the heartbeat monitor. Workers that
    /// are down at construction are simply marked dead; they join the
    /// rotation at their first successful probe. `workers` are their
    /// advertised addresses (`host:port`).
    pub fn connect(workers: Vec<String>) -> Result<Self, MrError> {
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
                    last_heartbeat: Mutex::new(Instant::now()),
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
        let namenode = NameNode::new(DfsConfig {
            num_datanodes: slots.len(),
            // Small blocks so even tiny CI inputs spread across the
            // fleet instead of landing on one "datanode".
            block_size: 64 << 10,
            replication: 2.min(slots.len()),
            racks: 1,
            placement_seed: 0x51D8,
        })
        .map_err(|e| MrError::BadConfig(format!("fleet namenode: {e}")))?;
        let fleet = Fleet {
            slots,
            namenode,
            job_seq: AtomicU64::new(1),
            stop: Arc::new(AtomicBool::new(false)),
            monitor: Mutex::new(None),
        };
        // Synchronous first round so jobs submitted immediately after
        // startup see the real liveness picture.
        for slot in &fleet.slots {
            probe(slot);
        }
        let stop = Arc::clone(&fleet.stop);
        let slots = fleet.slots.clone();
        let handle = std::thread::Builder::new()
            .name("sidr-fleet-heartbeat".into())
            .spawn(move || {
                // Every worker is probed once per period; in between
                // the monitor parks, and `shutdown` unparks it.
                let mut next = Instant::now() + HEARTBEAT_EVERY;
                while !stop.load(Ordering::SeqCst) {
                    let now = Instant::now();
                    if now < next {
                        std::thread::park_timeout(next - now);
                        continue;
                    }
                    next = now + HEARTBEAT_EVERY;
                    for slot in &slots {
                        probe(slot);
                    }
                }
            })
            .expect("spawn heartbeat monitor");
        *fleet.monitor.lock().unwrap() = Some(handle);
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
                let mut stat = s.last_stat.lock().unwrap().clone();
                stat.addr = s.addr.clone();
                stat.alive = s.alive.load(Ordering::SeqCst);
                stat.heartbeat_age_ms =
                    s.last_heartbeat.lock().unwrap().elapsed().as_millis() as u64;
                stat
            })
            .collect()
    }

    /// The input's entry in the fleet's simulated namespace, which map
    /// dispatch ranks workers' replica locality by. A path is
    /// registered once, by the first job to read it — the namenode has
    /// no remove, so a per-job entry would outlive its job forever.
    fn register_input(&self, input: &str) -> Result<FileId, MrError> {
        if let Some(file) = self.namenode.lookup(input) {
            return Ok(file);
        }
        let len = std::fs::metadata(input).map(|m| m.len()).unwrap_or(1 << 20);
        self.namenode
            .register_file(input, len.max(1))
            // A concurrent job over the same input registered it first.
            .or_else(|e| self.namenode.lookup(input).ok_or(e))
            .map_err(|e| MrError::BadConfig(format!("register input: {e}")))
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
        let file = self.register_input(input)?;
        let req = WorkerRequest::Prepare {
            job,
            spec: spec.clone(),
            input: input.to_string(),
            opts: opts.clone(),
        };
        // A slot is part of this job only if it answered `Prepare`: a
        // worker skipped as dead here that the heartbeat revives a
        // moment later never installed the job.
        let mut prepared = vec![false; self.slots.len()];
        let mut refused = None;
        for (slot, prepared) in self.slots.iter().zip(&mut prepared) {
            if !slot.alive.load(Ordering::SeqCst) {
                continue;
            }
            match call(&slot.addr, &req, None) {
                Ok((WorkerResponse::Prepared { .. }, _)) => *prepared = true,
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
        if refused.is_none() && !prepared.contains(&true) {
            refused = Some("no live workers to run the job".into());
        }
        let remote = RemoteJob {
            fleet: self,
            job,
            file,
            prepared: prepared.into(),
            placement: Mutex::new(HashMap::new()),
            in_flight: Mutex::new(HashMap::new()),
        };
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

    /// Stops the heartbeat monitor. Called on drop.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.monitor.lock().unwrap().take() {
            h.thread().unpark();
            h.join().ok();
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn mark_dead(slot: &WorkerSlot) {
    if slot.alive.swap(false, Ordering::SeqCst) {
        fleet_metrics().workers_lost.inc();
    }
}

/// One liveness probe: dial, handshake, `Ping`, read `Pong`.
fn probe(slot: &WorkerSlot) {
    match call(&slot.addr, &WorkerRequest::Ping, Some(HEARTBEAT_TIMEOUT)) {
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
            *slot.last_heartbeat.lock().unwrap() = Instant::now();
            *slot.last_stat.lock().unwrap() = stat;
            slot.heartbeat_gauge.set(0);
            // Rejoin is safe: a restarted worker holds no partitions,
            // so anything it "held" surfaces as Missing and recovers.
            slot.alive.store(true, Ordering::SeqCst);
        }
        Ok(_) | Err(_) => {
            mark_dead(slot);
            slot.heartbeat_gauge
                .set(slot.last_heartbeat.lock().unwrap().elapsed().as_millis() as i64);
        }
    }
}

/// A framed, handshaken connection to a worker — used by the
/// coordinator for dispatch and by workers for peer shuffle fetches
/// (which announce [`Role::Worker`] instead).
pub struct WorkerConn {
    reader: BufReader<TcpStream>,
    /// Unbuffered: every request is one whole-frame write already.
    writer: TcpStream,
}

impl WorkerConn {
    /// Dials a worker as the coordinator.
    pub fn dial(addr: &str, timeout: Option<Duration>) -> Result<Self, FrameError> {
        Self::dial_as(addr, Role::Coordinator, timeout)
    }

    /// Dials a worker announcing an explicit role (worker↔worker
    /// shuffle fetches announce [`Role::Worker`]).
    pub fn dial_as(addr: &str, ours: Role, timeout: Option<Duration>) -> Result<Self, FrameError> {
        let stream = match timeout {
            Some(t) => {
                let sockaddr = std::net::ToSocketAddrs::to_socket_addrs(addr)
                    .map_err(|e| FrameError::Io(e.to_string()))?
                    .next()
                    .ok_or_else(|| FrameError::Io(format!("cannot resolve {addr}")))?;
                let s = TcpStream::connect_timeout(&sockaddr, t)
                    .map_err(|e| FrameError::Io(e.to_string()))?;
                s.set_read_timeout(Some(t)).ok();
                s.set_write_timeout(Some(t)).ok();
                s
            }
            None => TcpStream::connect(addr).map_err(|e| FrameError::Io(e.to_string()))?,
        };
        // Every message is one write of a whole frame (or reply), so
        // Nagle only ever delays it — by the peer's delayed ACK.
        stream.set_nodelay(true).ok();
        // The handshake reads exact frames, so it runs on the bare
        // stream; read buffering starts after it.
        handshake_dial(&mut &stream, ours, Role::Worker)?;
        Ok(WorkerConn {
            reader: BufReader::new(
                stream
                    .try_clone()
                    .map_err(|e| FrameError::Io(e.to_string()))?,
            ),
            writer: stream,
        })
    }

    /// One request, its reply, and the raw frame after the reply when
    /// it [carries one](WorkerResponse::carries_payload) — a partition
    /// as SMOF bytes after `Partition`, a keyblock after `ReduceDone`.
    pub fn request(
        &mut self,
        req: &WorkerRequest,
    ) -> Result<(WorkerResponse, Option<Vec<u8>>), FrameError> {
        let hung_up = || FrameError::Io("worker closed the connection".into());
        frame::send(&mut self.writer, req)?;
        let reply: WorkerResponse = frame::recv(&mut self.reader)?.ok_or_else(hung_up)?;
        let payload = if reply.carries_payload() {
            Some(frame::read_frame(&mut self.reader)?.ok_or_else(hung_up)?)
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
    addr: &str,
    req: &WorkerRequest,
    timeout: Option<Duration>,
) -> Result<(WorkerResponse, Option<Vec<u8>>), FrameError> {
    WorkerConn::dial(addr, timeout)?.request(req)
}

/// One job's remote executor: implements the engine's
/// [`TaskExecutor`] seam by dispatching attempts to the fleet and
/// tracking which worker holds each committed map generation.
pub struct RemoteJob<'f> {
    fleet: &'f Fleet,
    job: u64,
    file: FileId,
    /// Which workers were prepared for this job (index-aligned with
    /// the fleet's slots); dispatch never targets the others.
    prepared: Box<[bool]>,
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
    /// Broadcasts `Finish`, dropping the job's state on every prepared
    /// worker — including one currently marked dead: a missed heartbeat
    /// may only mean slow, and a live worker left unfinished would keep
    /// the job's executor and partitions. The probe timeout bounds the
    /// call to one that really is gone.
    pub fn finish(&self) {
        for (slot, &prepared) in self.fleet.slots.iter().zip(self.prepared.iter()) {
            if prepared {
                call(
                    &slot.addr,
                    &WorkerRequest::Finish { job: self.job },
                    Some(HEARTBEAT_TIMEOUT),
                )
                .ok();
            }
        }
    }

    /// Workers eligible for this job's dispatch, ranked for `split`:
    /// replica-local workers first (by local byte count, the
    /// `nodes_for_range` ranking), then the rest, dead ones filtered.
    fn ranked_workers(&self, split: Option<&InputSplit>) -> Vec<usize> {
        let mut ranked: Vec<usize> = Vec::new();
        if let Some(split) = split {
            if let Ok(nodes) = self.fleet.namenode.nodes_for_range(
                self.file,
                split.byte_range.0,
                split.byte_range.1,
            ) {
                ranked.extend(nodes.into_iter().map(|(NodeId(i), _)| i));
            }
        }
        for i in 0..self.fleet.slots.len() {
            if !ranked.contains(&i) {
                ranked.push(i);
            }
        }
        ranked.retain(|&i| self.prepared[i] && self.fleet.slots[i].alive.load(Ordering::SeqCst));
        // Backpressure: workers reporting memory pressure sink to the
        // back of the candidate list (stable sort — locality order is
        // preserved within each group). They stay legal targets: a
        // pressured worker is slower, not wrong, and may be the only
        // one left.
        ranked.sort_by_key(|&i| self.fleet.slots[i].pressured.load(Ordering::SeqCst));
        ranked
    }

    /// The one walk over dispatch candidates: `attempt_on` each slot in
    /// rank order until a worker *answers* — whatever it answers. An
    /// `Err` is connection-level death: the worker died mid-attempt,
    /// having committed nothing (map) and released nothing (reduce), so
    /// it is marked dead and the same attempt moves to the next
    /// candidate. `None` means no candidate answered.
    fn dispatch<T>(
        &self,
        candidates: Vec<usize>,
        mut attempt_on: impl FnMut(usize, &str) -> Result<T, FrameError>,
    ) -> Option<T> {
        let metrics = fleet_metrics();
        for (nth, idx) in candidates.into_iter().enumerate() {
            if nth > 0 {
                metrics.tasks_reassigned.inc();
            }
            let slot = &self.fleet.slots[idx];
            let started = Instant::now();
            match attempt_on(idx, &slot.addr) {
                Ok(reply) => {
                    metrics.dispatch_seconds.observe_duration(started.elapsed());
                    return Some(reply);
                }
                Err(_) => mark_dead(slot),
            }
        }
        None
    }
}

impl TaskExecutor<Coord, f64> for RemoteJob<'_> {
    /// A speculative twin demotes the worker currently running the
    /// primary attempt to the *back* of the locality-ranked candidate
    /// list: racing on the machine that is already slow defeats the
    /// point, but it stays a legal last resort when it is the only
    /// live worker.
    fn execute_map(
        &self,
        task: MapTaskId,
        attempt: u32,
        speculative: bool,
        split: &InputSplit,
        counters: &Counters,
        // The attempt runs on a worker, which cannot see the
        // scheduler's cancel or race state.
        _pause: &dyn Fn(Duration) -> bool,
    ) -> sidr_mapreduce::Result<()> {
        let mut candidates = self.ranked_workers(Some(split));
        if speculative {
            if let Some(&busy) = self.in_flight.lock().unwrap().get(&task) {
                if let Some(pos) = candidates.iter().position(|&i| i == busy) {
                    let demoted = candidates.remove(pos);
                    candidates.push(demoted);
                }
            }
        }
        let req = WorkerRequest::RunMap {
            job: self.job,
            task,
            attempt,
        };
        let reply = self.dispatch(candidates, |idx, addr| {
            if !speculative {
                self.in_flight.lock().unwrap().insert(task, idx);
            }
            let reply = call(addr, &req, None);
            if !speculative {
                let mut in_flight = self.in_flight.lock().unwrap();
                if in_flight.get(&task) == Some(&idx) {
                    in_flight.remove(&task);
                }
            }
            reply.map(|(reply, _)| (idx, reply))
        });
        match reply {
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
                self.placement.lock().unwrap().insert(
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
        // nothing for this reducer is not a source. A generation with
        // no live holder is already lost: report it without burning a
        // dispatch. Dispatch prefers the worker already holding the
        // most source partitions (shuffle-local), then the rest.
        let mut locs = Vec::with_capacity(sources.len());
        let mut lost = Vec::new();
        let mut holder_count: HashMap<usize, usize> = HashMap::new();
        {
            let placement = self.placement.lock().unwrap();
            for s in sources {
                match placement.get(&(s.map, s.epoch)) {
                    Some(held) if !self.fleet.slots[held.slot].alive.load(Ordering::SeqCst) => {
                        lost.push(s.map)
                    }
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

        let mut candidates = self.ranked_workers(None);
        // Pressure outranks shuffle locality: fetching over the wire
        // from an unpressured worker beats making an over-budget one
        // merge (and page its own partitions back from disk).
        candidates.sort_by_key(|i| {
            (
                self.fleet.slots[*i].pressured.load(Ordering::SeqCst),
                std::cmp::Reverse(holder_count.get(i).copied().unwrap_or(0)),
            )
        });
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
        let (emitted, fetch_ms, frame) =
            match self.dispatch(candidates, |_, addr| call(addr, &req, None)) {
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

    /// Two jobs over one input leave one namespace entry, not one per
    /// job.
    #[test]
    fn jobs_over_one_input_share_one_registration() {
        let preset = sidr_analyze::presets::preset("query1-tiny").unwrap();
        let plan = sidr_core::SidrPlanner::new(&preset.query, preset.reducer_counts[0])
            .build(&preset.splits)
            .unwrap();
        let spec = JobSpec::from_plan(&preset.query, &preset.splits, &plan).unwrap();
        // Nothing listens on port 1: the fleet's one worker is marked
        // dead, so each job registers its input and then finds nobody
        // to run on.
        let fleet = Fleet::connect(vec!["127.0.0.1:1".into()]).unwrap();
        for _ in 0..2 {
            let job = fleet.prepare_job(&spec, "/data/shared.scinc", &ExecOptions::default());
            assert!(job.is_err(), "no live workers");
        }
        assert_eq!(fleet.namenode.lookup("/data/shared.scinc"), Some(FileId(0)));
        // Ids are dense: the next file being #1 means exactly one so far.
        let next = fleet.namenode.register_file("/data/other.scinc", 1);
        assert_eq!(next.unwrap(), FileId(1));
    }

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
