//! The fleet's membership: the tracked workers, the heartbeat monitor
//! that probes them, and the fleet-wide metrics.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use sidr_mapreduce::sync::{thread, time, wait_until, Condvar, Mutex};
use sidr_mapreduce::MrError;
use sidr_obs::{global, Counter, Gauge, Histogram};

use super::wire::{Reply, Roster, WorkerConn, WorkerRequest, WorkerResponse, WorkerStat};
use crate::frame::{FrameError, Role};
use crate::transport::Transport;

/// Fleet-wide metrics (process-global, one registration).
pub struct FleetMetrics {
    pub workers_lost: Arc<Counter>,
    pub tasks_reassigned: Arc<Counter>,
    /// Coordinator-observed latency of one remote dispatch
    /// (map or reduce), request to final reply.
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
                "Remote task dispatch latency (request to final reply), seconds",
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
pub(super) struct WorkerSlot {
    pub(super) addr: String,
    pub(super) alive: AtomicBool,
    last_heartbeat: Mutex<Instant>,
    /// Cached copy of the worker's last `Pong` self-report.
    last_stat: Mutex<WorkerStat>,
    /// Whether the last `Pong` reported memory pressure — dispatch
    /// deprioritizes pressured workers, and the transition into
    /// pressure emits one `SIDR-I015` advisory.
    pub(super) pressured: AtomicBool,
    /// `sidr_fleet_worker_heartbeat_age_ms{worker=...}` gauge.
    heartbeat_gauge: Arc<Gauge>,
    /// `sidr_fleet_worker_resident_bytes{worker=...}` /
    /// `sidr_fleet_worker_spilled_bytes{worker=...}` gauges, fed from
    /// each heartbeat's pressure summary.
    resident_gauge: Arc<Gauge>,
    spilled_gauge: Arc<Gauge>,
    /// Handshaken dispatch connections between exchanges. The slot pool
    /// bounds how many dispatches run at once, so it bounds this list.
    idle: Mutex<Vec<WorkerConn>>,
    /// `sidr_fleet_worker_dials_total{worker=...}`: dispatch
    /// connections opened (probes dial apart).
    dials: Arc<Counter>,
}

/// Heartbeat probe interval: every worker is pinged once per period.
const HEARTBEAT_EVERY: Duration = Duration::from_millis(200);

/// Connect/read timeout of a probe; a worker that cannot answer within
/// it is declared dead.
const HEARTBEAT_TIMEOUT: Duration = Duration::from_millis(500);

/// The coordinator's handle on its worker fleet.
pub struct Fleet {
    pub(super) net: Arc<dyn Transport>,
    pub(super) slots: Vec<Arc<WorkerSlot>>,
    /// This coordinator's session and jobs: ids are issued and opened
    /// under this one lock, and a job's `RemoteJob` closes its id when
    /// it drops. Every probe carries the roster as it stands.
    pub(super) roster: Arc<Mutex<Roster>>,
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
                    idle: Mutex::new(Vec::new()),
                    dials: r.counter(
                        "sidr_fleet_worker_dials_total",
                        "Dispatch connections opened to this worker (probes not counted)",
                        &[("worker", addr.as_str())],
                    ),
                })
            })
            .collect();
        let roster = Roster {
            session: new_session(),
            open: Vec::new(),
            issued: 1,
        };
        let fleet = Fleet {
            net,
            slots,
            roster: Arc::new(Mutex::new(roster)),
            beat: Arc::default(),
            monitor: Mutex::new(None),
        };
        // Synchronous first round so jobs submitted immediately after
        // startup see the real liveness picture.
        for slot in &fleet.slots {
            probe(&*fleet.net, &fleet.roster, slot);
        }
        let (net, roster, beat) = (
            Arc::clone(&fleet.net),
            Arc::clone(&fleet.roster),
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
                    probe(&*net, &roster, slot);
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

    /// Heartbeat rounds completed so far.
    pub(super) fn rounds(&self) -> u64 {
        self.beat.0.lock().rounds
    }

    /// Waits until heartbeat round `after` has completed, or for as long
    /// as one round can take.
    pub(super) fn await_round(&self, after: u64) {
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

    /// One dispatch exchange (`Prepare`, `RunMap`, `RunReduce`): on an
    /// idle connection to this worker when one is kept, else on a new
    /// dial; the connection is kept again after a clean exchange.
    ///
    /// An exchange that fails on a kept connection says nothing about
    /// the worker: the connection may have idled across the worker's
    /// restart, or been cut after its last reply. It is dropped and the
    /// request goes once more on a new dial, whose outcome is the
    /// answer: a worker is judged dead only by a fresh dial. The
    /// request may then reach the worker twice; every dispatch request
    /// is idempotent there.
    pub(super) fn call(
        &self,
        net: &dyn Transport,
        req: &WorkerRequest,
    ) -> Result<Reply, FrameError> {
        let kept = self.idle.lock().pop();
        if let Some(mut conn) = kept {
            if let Ok(reply) = conn.request(req) {
                self.idle.lock().push(conn);
                return Ok(reply);
            }
        }
        let mut conn = WorkerConn::dial(net, &self.addr, Role::Coordinator, None)?;
        self.dials.inc();
        let reply = conn.request(req)?;
        self.idle.lock().push(conn);
        Ok(reply)
    }
}

/// Takes the worker out of the rotation and drops its idle
/// connections: a worker that comes back is dialed fresh.
pub(super) fn mark_dead(slot: &WorkerSlot) {
    if slot.alive.swap(false, Ordering::SeqCst) {
        fleet_metrics().workers_lost.inc();
    }
    // Closed once the lock is released.
    let _stale = std::mem::take(&mut *slot.idle.lock());
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

/// One liveness probe: dial, handshake, `Ping` with the roster as it
/// stands, read `Pong` — on a connection of its own, with a timeout:
/// its question is whether the worker answers a new connection at all.
fn probe(net: &dyn Transport, roster: &Mutex<Roster>, slot: &WorkerSlot) {
    let ping = WorkerRequest::Ping {
        roster: roster.lock().clone(),
    };
    let timeout = Some(HEARTBEAT_TIMEOUT);
    let conn = WorkerConn::dial(net, &slot.addr, Role::Coordinator, timeout);
    match conn.and_then(|mut conn| conn.request(&ping)) {
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
