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
use std::io::{BufReader, BufWriter, Read, Write};
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
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum WorkerRequest {
    /// Liveness probe; answered with [`WorkerResponse::Pong`].
    Ping,
    /// Installs a job on the worker: the spec (splits, routing
    /// promises), the input path (shared filesystem, like an HDFS
    /// mount) and the task-local execution options.
    Prepare {
        job: u64,
        spec_json: String,
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
    /// Coordinator-side count of dispatches currently on the wire.
    dispatching: AtomicU64,
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

/// Fleet configuration.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Worker advertised addresses (`host:port`).
    pub workers: Vec<String>,
    /// Heartbeat probe interval.
    pub heartbeat_every: Duration,
    /// Probe connect/read timeout; a worker that cannot answer within
    /// it is declared dead.
    pub heartbeat_timeout: Duration,
}

impl FleetConfig {
    pub fn new(workers: Vec<String>) -> Self {
        FleetConfig {
            workers,
            heartbeat_every: Duration::from_millis(200),
            heartbeat_timeout: Duration::from_millis(500),
        }
    }

    /// Like [`FleetConfig::new`] with an explicit heartbeat cadence
    /// (the `sidr-serve` CLI flags land here). A zero interval or
    /// timeout falls back to the defaults rather than busy-spinning.
    pub fn with_heartbeat(workers: Vec<String>, every: Duration, timeout: Duration) -> Self {
        let mut cfg = FleetConfig::new(workers);
        if !every.is_zero() {
            cfg.heartbeat_every = every;
        }
        if !timeout.is_zero() {
            cfg.heartbeat_timeout = timeout;
        }
        cfg
    }
}

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
    /// rotation at their first successful probe.
    pub fn connect(config: FleetConfig) -> Result<Self, MrError> {
        if config.workers.is_empty() {
            return Err(MrError::BadConfig("fleet needs at least one worker".into()));
        }
        let r = global();
        let slots: Vec<Arc<WorkerSlot>> = config
            .workers
            .iter()
            .map(|addr| {
                Arc::new(WorkerSlot {
                    addr: addr.clone(),
                    alive: AtomicBool::new(false),
                    last_heartbeat: Mutex::new(Instant::now()),
                    dispatching: AtomicU64::new(0),
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
        fleet.probe_all(config.heartbeat_timeout);
        let stop = Arc::clone(&fleet.stop);
        let slots = fleet.slots.clone();
        let every = config.heartbeat_every;
        let timeout = config.heartbeat_timeout;
        let handle = std::thread::Builder::new()
            .name("sidr-fleet-heartbeat".into())
            .spawn(move || {
                // Stagger the fleet instead of probing every worker in
                // one burst: each slot gets a deterministic phase
                // offset inside the period plus an address-derived
                // jitter, so heartbeats never synchronize — on a large
                // fleet a burst of simultaneous pings is itself a
                // load spike on the coordinator's thread and the
                // network.
                let n = slots.len().max(1) as u32;
                let quarter_ms = (every.as_millis() as u64 / 4).max(1);
                let mut due: Vec<Instant> = slots
                    .iter()
                    .enumerate()
                    .map(|(i, s)| {
                        let phase = every * (i as u32) / n;
                        let jitter = Duration::from_millis(addr_jitter(&s.addr) % quarter_ms);
                        Instant::now() + phase + jitter
                    })
                    .collect();
                let tick = (every / 8).max(Duration::from_millis(2));
                while !stop.load(Ordering::SeqCst) {
                    let now = Instant::now();
                    for (i, slot) in slots.iter().enumerate() {
                        if now >= due[i] {
                            probe(slot, timeout);
                            due[i] = now + every;
                        }
                    }
                    std::thread::sleep(tick);
                }
            })
            .expect("spawn heartbeat monitor");
        *fleet.monitor.lock().unwrap() = Some(handle);
        Ok(fleet)
    }

    fn probe_all(&self, timeout: Duration) {
        for slot in &self.slots {
            probe(slot, timeout);
        }
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
            spec_json: spec.to_json(),
            input: input.to_string(),
            opts: opts.clone(),
        };
        // A slot is part of this job only if it answered `Prepare`: a
        // worker skipped as dead here that the heartbeat revives a
        // moment later never installed the job.
        let mut prepared = vec![false; self.slots.len()];
        for (slot, prepared) in self.slots.iter().zip(&mut prepared) {
            if !slot.alive.load(Ordering::SeqCst) {
                continue;
            }
            match call(&slot.addr, &req, None) {
                Ok(WorkerResponse::Prepared { .. }) => *prepared = true,
                Ok(WorkerResponse::Failed { detail, .. }) => {
                    return Err(MrError::BadConfig(format!(
                        "worker {} rejected the job: {detail}",
                        slot.addr
                    )));
                }
                Ok(other) => {
                    return Err(MrError::BadConfig(format!(
                        "worker {}: unexpected reply to Prepare: {other:?}",
                        slot.addr
                    )));
                }
                // A worker dying during prepare is not fatal — it is
                // simply not part of this job.
                Err(_) => mark_dead(slot),
            }
        }
        if !prepared.contains(&true) {
            return Err(MrError::BadConfig("no live workers to run the job".into()));
        }
        Ok(RemoteJob {
            fleet: self,
            job,
            file,
            prepared: prepared.into(),
            placement: Mutex::new(HashMap::new()),
            in_flight: Mutex::new(HashMap::new()),
        })
    }

    /// Stops the heartbeat monitor. Called on drop.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.monitor.lock().unwrap().take() {
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

/// Deterministic per-address jitter seed (FNV-1a) — stable across
/// restarts so a fleet's heartbeat phases don't reshuffle, distinct
/// across addresses so they don't collide.
fn addr_jitter(addr: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in addr.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One liveness probe: dial, handshake, `Ping`, read `Pong`.
fn probe(slot: &WorkerSlot, timeout: Duration) {
    match call(&slot.addr, &WorkerRequest::Ping, Some(timeout)) {
        Ok(WorkerResponse::Pong(stat)) => {
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
    writer: BufWriter<TcpStream>,
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
        let mut conn = WorkerConn {
            reader: BufReader::new(
                stream
                    .try_clone()
                    .map_err(|e| FrameError::Io(e.to_string()))?,
            ),
            writer: BufWriter::new(stream),
        };
        let mut duplex = Duplex(&mut conn);
        handshake_dial(&mut duplex, ours, Role::Worker)?;
        Ok(conn)
    }

    pub fn send(&mut self, req: &WorkerRequest) -> Result<(), FrameError> {
        frame::send(&mut self.writer, req)
    }

    pub fn recv(&mut self) -> Result<WorkerResponse, FrameError> {
        match frame::recv::<WorkerResponse>(&mut self.reader)? {
            Some(r) => Ok(r),
            None => Err(FrameError::Io("worker closed the connection".into())),
        }
    }

    /// Reads one raw (non-JSON) frame: the SMOF payload following a
    /// [`WorkerResponse::Partition`] header, or the keyblock following
    /// [`WorkerResponse::ReduceDone`].
    pub fn recv_raw(&mut self) -> Result<Vec<u8>, FrameError> {
        match frame::read_frame(&mut self.reader)? {
            Some(b) => Ok(b),
            None => Err(FrameError::Io("worker closed the connection".into())),
        }
    }
}

/// Adapter giving the handshake one Read+Write view of the split
/// buffered halves.
struct Duplex<'c>(&'c mut WorkerConn);

impl Read for Duplex<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.0.reader.read(buf)
    }
}

impl Write for Duplex<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.writer.write(buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        self.0.writer.flush()
    }
}

/// One request/one reply convenience call.
fn call(
    addr: &str,
    req: &WorkerRequest,
    timeout: Option<Duration>,
) -> Result<WorkerResponse, FrameError> {
    let mut conn = WorkerConn::dial(addr, timeout)?;
    conn.send(req)?;
    conn.recv()
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
    pub fn job_id(&self) -> u64 {
        self.job
    }

    /// Broadcasts `Finish`, dropping the job's state on every worker.
    pub fn finish(&self) {
        for (i, slot) in self.fleet.slots.iter().enumerate() {
            if self.prepared[i] && slot.alive.load(Ordering::SeqCst) {
                call(
                    &slot.addr,
                    &WorkerRequest::Finish { job: self.job },
                    Some(Duration::from_millis(500)),
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
        if candidates.is_empty() {
            return Err(MrError::Source("no live workers for map dispatch".into()));
        }
        let mut first = true;
        for idx in candidates {
            let slot = &self.fleet.slots[idx];
            if !first {
                fleet_metrics().tasks_reassigned.inc();
            }
            first = false;
            let started = Instant::now();
            slot.dispatching.fetch_add(1, Ordering::Relaxed);
            if !speculative {
                self.in_flight.lock().unwrap().insert(task, idx);
            }
            let result = call(
                &slot.addr,
                &WorkerRequest::RunMap {
                    job: self.job,
                    task,
                    attempt,
                },
                None,
            );
            slot.dispatching.fetch_sub(1, Ordering::Relaxed);
            if !speculative {
                let mut in_flight = self.in_flight.lock().unwrap();
                if in_flight.get(&task) == Some(&idx) {
                    in_flight.remove(&task);
                }
            }
            match result {
                Ok(WorkerResponse::MapDone {
                    records_in,
                    records_out,
                    partitions,
                    ..
                }) => {
                    fleet_metrics()
                        .dispatch_seconds
                        .observe_duration(started.elapsed());
                    Counters::add(&counters.map_records_in, records_in);
                    Counters::add(&counters.map_records_out, records_out);
                    self.placement.lock().unwrap().insert(
                        (task, attempt),
                        Held {
                            slot: idx,
                            reducers: partitions,
                        },
                    );
                    return Ok(());
                }
                Ok(WorkerResponse::Failed { detail, fatal, .. }) => {
                    // The worker is alive and the attempt itself
                    // failed (injected fault, bad split): charge the
                    // retry budget like a local failure.
                    if fatal {
                        return Err(MrError::TaskFailed {
                            task: format!("map {task}"),
                            cause: detail,
                        });
                    }
                    return Err(MrError::Source(detail));
                }
                Ok(other) => {
                    return Err(MrError::Source(format!(
                        "unexpected reply to RunMap: {other:?}"
                    )));
                }
                // Connection-level death: the worker died mid-attempt.
                // Nothing committed; try the next candidate with the
                // same attempt id.
                Err(_) => mark_dead(slot),
            }
        }
        Err(MrError::Source(format!(
            "map {task}: every candidate worker died during dispatch"
        )))
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
        if candidates.is_empty() {
            return Err(RemoteReduceError::AttemptFailed(
                "no live workers for reduce dispatch".into(),
            ));
        }

        let mut first = true;
        for idx in candidates {
            let slot = &self.fleet.slots[idx];
            if !first {
                fleet_metrics().tasks_reassigned.inc();
            }
            first = false;
            let started = Instant::now();
            slot.dispatching.fetch_add(1, Ordering::Relaxed);
            let outcome = run_reduce_on(
                &slot.addr,
                self.job,
                reducer,
                &WorkerRequest::RunReduce {
                    job: self.job,
                    reducer,
                    attempt,
                    sources: locs.clone(),
                    expected_raw,
                },
            );
            slot.dispatching.fetch_sub(1, Ordering::Relaxed);
            match outcome {
                Ok(Ok((records, fetch_ms))) => {
                    let m = fleet_metrics();
                    m.dispatch_seconds.observe_duration(started.elapsed());
                    m.fetch_seconds
                        .observe(Duration::from_millis(fetch_ms).as_secs_f64());
                    return Ok(records);
                }
                Ok(Err(e)) => return Err(e),
                // The worker died before its keyblock frame arrived, so
                // it released nothing: same attempt, next worker.
                Err(_) => mark_dead(slot),
            }
        }
        Err(RemoteReduceError::AttemptFailed(
            "every candidate worker died during reduce dispatch".into(),
        ))
    }
}

/// A reduce attempt's keyblock and its worker-reported copy-phase
/// wall time (ms), or how the attempt failed.
type ReduceReply = Result<(Vec<(Coord, f64)>, u64), RemoteReduceError>;

/// Drives one `RunReduce` call — `ReduceDone`, then the keyblock as
/// one raw frame. Nothing is returned until the keyblock has arrived
/// whole and names this `job`, this `reducer` and the record count
/// `ReduceDone` announced; a frame that fails any of those (or its
/// CRC) costs the attempt, never a commit. The outer `Err` is a
/// connection that broke before that: the worker died, and a reduce
/// attempt releases nothing until it has replied.
fn run_reduce_on(
    addr: &str,
    job: u64,
    reducer: usize,
    req: &WorkerRequest,
) -> Result<ReduceReply, FrameError> {
    let mut conn = WorkerConn::dial(addr, None)?;
    conn.send(req)?;
    let (emitted, fetch_ms) = match conn.recv()? {
        WorkerResponse::ReduceDone { emitted, fetch_ms } => (emitted, fetch_ms),
        WorkerResponse::Failed {
            detail,
            fatal,
            lost_sources,
        } => {
            return Ok(Err(if fatal {
                RemoteReduceError::Fatal(MrError::TaskFailed {
                    task: "remote reduce".into(),
                    cause: detail,
                })
            } else if !lost_sources.is_empty() {
                RemoteReduceError::SourcesLost(lost_sources)
            } else {
                RemoteReduceError::AttemptFailed(detail)
            }));
        }
        other => {
            return Ok(Err(RemoteReduceError::AttemptFailed(format!(
                "unexpected frame in reply to RunReduce: {other:?}"
            ))));
        }
    };
    let frame = conn.recv_raw()?;
    Ok(match binframe::decode_keyblock(&frame) {
        Ok(kb) if (kb.job, kb.reducer, kb.records.len() as u64) == (job, reducer, emitted) => {
            Ok((kb.records, fetch_ms))
        }
        Ok(kb) => Err(RemoteReduceError::AttemptFailed(format!(
            "keyblock frame names job {} reducer {} with {} records, \
             not job {job} reducer {reducer} with {emitted}",
            kb.job,
            kb.reducer,
            kb.records.len()
        ))),
        Err(e) => Err(RemoteReduceError::AttemptFailed(format!(
            "keyblock frame: {e}"
        ))),
    })
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
        let fleet = Fleet::connect(FleetConfig::new(vec!["127.0.0.1:1".into()])).unwrap();
        for _ in 0..2 {
            let job = fleet.prepare_job(&spec, "/data/shared.scinc", &ExecOptions::default());
            assert!(job.is_err(), "no live workers");
        }
        assert_eq!(fleet.namenode.lookup("/data/shared.scinc"), Some(FileId(0)));
        // Ids are dense: the next file being #1 means exactly one so far.
        let next = fleet.namenode.register_file("/data/other.scinc", 1);
        assert_eq!(next.unwrap(), FileId(1));
    }
}
