//! `sidr-worker` — the worker half of distributed execution.
//!
//! A worker is a daemon that does exactly two things:
//!
//! * **run task attempts** dispatched by a `sidr-serve` coordinator —
//!   map attempts read their split and keep the resulting per-reducer
//!   partitions (encoded CRC-framed SMOF buffers) in memory; reduce
//!   attempts fetch their source partitions from the workers holding
//!   them, merge in the plan's fetch order, and send the keyblock back
//!   to the coordinator whole, as one `KeyblockBin` frame;
//! * **serve shuffle fetches** to peer workers over the same
//!   length-prefixed frame protocol, partition bytes riding as one raw
//!   frame after their JSON header.
//!
//! All query knowledge lives in `sidr-core`'s [`SpecExecutor`]; this
//! crate only moves bytes. A partition is *held or gone*: present in
//! the [`PartitionStore`] means data, absent means `Missing` — the
//! store already drops a released partition and discards a replica
//! that fails its read-back CRC, and the coordinator never asks for a
//! partition a map did not produce. A reduce attempt touches nothing
//! until it has replied (copy → merge → reply → `Release`), and
//! everything dies with the process — a lost worker costs exactly the
//! re-execution of the maps whose bytes it held, never the job.
//!
//! Every connection must open with the version/role [`Hello`]
//! handshake; a worker accepts nothing else. Connections come from the
//! worker's [`Transport`]: TCP in the daemon, in memory under the
//! schedule explorer, where killing a worker is its endpoint closing
//! and every connection to it being cut.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use sidr_core::exec::SpecExecutor;
use sidr_core::SidrError;
// The workspace sync facade (parking_lot in normal builds): a task
// thread that panics while holding a lock unwinds cleanly instead of
// poisoning shared state and cascade-killing the daemon.
use sidr_mapreduce::sync::{thread, time, Mutex};
use sidr_mapreduce::tier::{PartitionStore, TierConfig};
use sidr_mapreduce::{open_sources, AttemptBodies, MrError, RemoteReduceError};
use sidr_serve::binframe;
use sidr_serve::fleet::{
    send_reply, PartitionStatus, SourceLoc, WorkerConn, WorkerRequest, WorkerResponse,
};
use sidr_serve::frame::{self, Hello, Role};
use sidr_serve::transport::{Conn, Listener, Transport};
use sidr_serve::WorkerStat;

/// Resource configuration of one worker process.
#[derive(Clone, Debug, Default)]
pub struct WorkerOptions {
    /// Resident-partition byte budget; 0 means unbounded.
    pub budget_bytes: u64,
    /// Spill directory; defaults to a per-process temp directory.
    pub spill_dir: Option<PathBuf>,
}

/// Shared state of one worker process.
struct Shared {
    net: Arc<dyn Transport>,
    addr: String,
    /// Prepared jobs' executors. Partition bytes live in `store`,
    /// which alone decides whether a partition is held. Ordered, like
    /// every collection a handler walks: a seed of the fleet search
    /// replays only if the walk does.
    jobs: Mutex<BTreeMap<u64, Arc<SpecExecutor>>>,
    /// All partition bytes, both tiers, across jobs — the byte budget
    /// is per worker process, not per job.
    store: PartitionStore,
    /// The coordinator session whose jobs these are.
    session: Mutex<u64>,
    dead: AtomicBool,
    tasks_in_flight: AtomicU64,
    map_attempts: AtomicU64,
    reduce_attempts: AtomicU64,
}

impl Shared {
    fn stat(&self) -> WorkerStat {
        let pressure = self.store.pressure();
        WorkerStat {
            addr: self.addr.clone(),
            alive: !self.dead.load(Ordering::SeqCst),
            heartbeat_age_ms: 0,
            tasks_in_flight: self.tasks_in_flight.load(Ordering::Relaxed),
            map_attempts: self.map_attempts.load(Ordering::Relaxed),
            reduce_attempts: self.reduce_attempts.load(Ordering::Relaxed),
            partitions_held: self.store.partition_count() as u64,
            resident_bytes: pressure.resident_bytes,
            spilled_bytes: pressure.spilled_bytes,
            budget_bytes: pressure.budget_bytes,
            peak_resident_bytes: pressure.peak_resident_bytes,
            spill_failures: pressure.spill_failures,
        }
    }
}

/// A running worker: accept loop on a background thread, one handler
/// thread per connection. [`Worker::kill`] is crash semantics — the
/// endpoint closes, no request is answered any more and the partition
/// store is wiped, which is what a dead process looks like to the rest
/// of the fleet.
pub struct Worker {
    shared: Arc<Shared>,
    listener: Mutex<Option<Arc<dyn Listener>>>,
    acceptor: Mutex<Option<thread::JoinHandle<()>>>,
}

impl Worker {
    /// Starts serving at `addr` on `net` (TCP: port 0 lets the OS
    /// pick).
    pub fn spawn(
        net: Arc<dyn Transport>,
        addr: &str,
        options: WorkerOptions,
    ) -> std::io::Result<Worker> {
        let listener = net.listen(addr)?;
        let local = listener.local_addr();
        let spill_dir = options.spill_dir.clone().unwrap_or_else(|| {
            let port = local.rsplit(':').next().unwrap_or_default();
            std::env::temp_dir().join(format!("sidr-worker-spill-{}-{port}", std::process::id()))
        });
        let tier_cfg = TierConfig {
            budget_bytes: options.budget_bytes,
        };
        let shared = Arc::new(Shared {
            net,
            addr: local,
            jobs: Mutex::new(BTreeMap::new()),
            store: PartitionStore::on_disk(tier_cfg, spill_dir),
            session: Mutex::new(0),
            dead: AtomicBool::new(false),
            tasks_in_flight: AtomicU64::new(0),
            map_attempts: AtomicU64::new(0),
            reduce_attempts: AtomicU64::new(0),
        });
        let (accept_shared, door) = (Arc::clone(&shared), Arc::clone(&listener));
        let acceptor = thread::spawn(move || {
            while let Some(conn) = door.accept() {
                let handler_shared = Arc::clone(&accept_shared);
                thread::spawn(move || handle_connection(&handler_shared, conn));
            }
        });
        Ok(Worker {
            shared,
            listener: Mutex::new(Some(listener)),
            acceptor: Mutex::new(Some(acceptor)),
        })
    }

    /// The bound address workers advertise to the fleet.
    pub fn addr(&self) -> &str {
        &self.shared.addr
    }

    /// Point-in-time self-report (what a `Ping` returns).
    pub fn stat(&self) -> WorkerStat {
        self.shared.stat()
    }

    /// Jobs currently prepared here.
    pub fn prepared_jobs(&self) -> usize {
        self.shared.jobs.lock().len()
    }

    /// Simulates the process dying: the endpoint closes (dials are
    /// refused; in memory, every connection to it is cut), no handler
    /// answers another request, and the partition store is wiped. The
    /// coordinator finds out the way it would with a real crash —
    /// broken task connections and failed heartbeats.
    pub fn kill(&self) {
        if self.shared.dead.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Some(listener) = self.listener.lock().take() {
            listener.close();
        }
        if let Some(h) = self.acceptor.lock().take() {
            let _ = h.join();
        }
        let jobs: Vec<u64> = {
            let mut jobs = self.shared.jobs.lock();
            let ids = jobs.keys().copied().collect();
            jobs.clear();
            ids
        };
        // Wipe both tiers: a dead process loses its memory *and* its
        // local disk as far as the fleet is concerned.
        for job in jobs {
            self.shared.store.remove_job(job);
        }
    }

    /// Blocks until the worker is killed (daemon mode for the CLI): joins
    /// the acceptor, which exits once `kill` has closed the endpoint.
    pub fn wait(&self) {
        let acceptor = self.acceptor.lock().take();
        if let Some(h) = acceptor {
            let _ = h.join();
        }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        self.kill();
    }
}

/// One connection: mandatory `Hello` handshake, then a request loop.
/// The coordinator opens a fresh connection per dispatch; peers open
/// one per fetch — either way requests on one connection are serial.
/// A dead worker answers nothing: the loop ends at the first request,
/// or the first reply, after `kill`.
fn handle_connection(shared: &Shared, mut conn: Conn) {
    // Every dialer speaks the handshake, so anything else on the
    // first frame is a protocol error and the connection just closes.
    let hello: Hello = match frame::recv(&mut conn) {
        Ok(Some(h)) => h,
        _ => return,
    };
    if frame::handshake_accept(&mut conn, &hello, Role::Worker).is_err() {
        return;
    }
    loop {
        let req = match frame::recv::<WorkerRequest>(&mut conn) {
            Ok(Some(r)) => r,
            _ => return,
        };
        if shared.dead.load(Ordering::SeqCst) {
            return;
        }
        let (resp, payload) = match req {
            WorkerRequest::Ping { session } => {
                adopt_session(shared, session);
                (WorkerResponse::Pong(shared.stat()), None)
            }
            WorkerRequest::Prepare {
                session,
                job,
                spec,
                input,
                opts,
            } => {
                adopt_session(shared, session);
                // Within a session a job id is never reused; this only
                // clears what a refused or half-done `Prepare` left.
                finish_job(shared, job);
                // Invert `I_ℓ` into per-map pending-consumer counts:
                // the tier ranks spill victims coldest first, and
                // "cold" is "few reducers still waiting on this map's
                // partitions".
                let mut pending = vec![0u64; spec.splits.len()];
                for deps in &spec.reduce_deps {
                    for &m in deps {
                        if let Some(c) = pending.get_mut(m) {
                            *c += 1;
                        }
                    }
                }
                let fault_plan = opts.fault_plan.clone();
                let resp = match SpecExecutor::new(Path::new(&input), spec, opts) {
                    Ok(exec) => {
                        shared.store.prepare_job(job, fault_plan, &pending);
                        shared.jobs.lock().insert(job, Arc::new(exec));
                        WorkerResponse::Prepared { job }
                    }
                    Err(e) => failed(format!("prepare job {job}: {e}"), false),
                };
                (resp, None)
            }
            WorkerRequest::RunMap { job, task, attempt } => {
                (run_map(shared, job, task, attempt), None)
            }
            WorkerRequest::RunReduce {
                job,
                reducer,
                attempt: _,
                sources,
                expected_raw,
            } => match run_reduce(shared, &mut conn, job, reducer, sources, expected_raw) {
                true => continue,
                false => return,
            },
            WorkerRequest::FetchPartition {
                job,
                map,
                reducer,
                epoch,
            } => {
                let held = peek_partition(shared, job, map, reducer, epoch);
                let status = match held {
                    Some(_) => PartitionStatus::Data,
                    None => PartitionStatus::Missing,
                };
                (WorkerResponse::Partition { status }, held)
            }
            WorkerRequest::Release { job, reducer, maps } => {
                shared.store.release(job, reducer, &maps);
                (WorkerResponse::Released, None)
            }
            WorkerRequest::Finish { job } => {
                finish_job(shared, job);
                (WorkerResponse::Finished, None)
            }
        };
        if !answer(
            shared,
            &mut conn,
            &resp,
            payload.as_deref().map(Vec::as_slice),
        ) {
            return;
        }
    }
}

/// Writes one reply; false when the connection is unusable — or the
/// worker is dead, which answers nothing.
fn answer(shared: &Shared, conn: &mut Conn, resp: &WorkerResponse, payload: Option<&[u8]>) -> bool {
    !shared.dead.load(Ordering::SeqCst) && send_reply(conn, resp, payload).is_ok()
}

/// A coordinator that restarted counts its jobs from 1 again, and never
/// sends `Finish` for its predecessor's: whatever another session left
/// here goes as soon as the new one is heard from.
fn adopt_session(shared: &Shared, session: u64) {
    let mut current = shared.session.lock();
    if *current == session {
        return;
    }
    *current = session;
    let jobs: Vec<u64> = shared.jobs.lock().keys().copied().collect();
    for job in jobs {
        finish_job(shared, job);
    }
}

/// Drops everything this worker holds for `job`: its executor and,
/// in both tiers, its partitions — intermediate data leaves no spill
/// files behind after the job ends.
fn finish_job(shared: &Shared, job: u64) {
    shared.jobs.lock().remove(&job);
    shared.store.remove_job(job);
}

/// Armed count of task attempts that should panic on entry (test
/// hook), gated by [`PANIC_JOB`] so parallel tests in one process
/// cannot consume each other's armed panics.
static PANIC_INJECT: AtomicU64 = AtomicU64::new(0);
static PANIC_JOB: AtomicU64 = AtomicU64::new(0);

/// Arms the next `n` task attempts of job `job` in this process to
/// panic mid-task. The panic is caught at the attempt boundary and
/// reported as a retryable failure; with the workspace sync facade no
/// shared lock is poisoned by the unwind, so the worker keeps serving
/// pings, tasks and fetches afterwards — which the regression test
/// asserts.
#[doc(hidden)]
pub fn inject_task_panics(job: u64, n: u64) {
    PANIC_JOB.store(job, Ordering::SeqCst);
    PANIC_INJECT.store(n, Ordering::SeqCst);
}

fn maybe_panic_in_task(job: u64) {
    if PANIC_JOB.load(Ordering::SeqCst) == job
        && PANIC_INJECT
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
    {
        panic!("injected task panic (test hook)");
    }
}

fn failed(detail: String, fatal: bool) -> WorkerResponse {
    WorkerResponse::Failed {
        detail,
        fatal,
        lost_sources: Vec::new(),
    }
}

/// Is this a job-killing error (retry cannot help) or an attempt
/// failure chargeable to the retry budget?
fn is_fatal(e: &SidrError) -> bool {
    matches!(
        e,
        SidrError::Engine(MrError::AnnotationMismatch { .. })
            | SidrError::Engine(MrError::BadConfig(_))
    )
}

fn run_map(shared: &Shared, job: u64, task: usize, attempt: u32) -> WorkerResponse {
    let exec = {
        let jobs = shared.jobs.lock();
        match jobs.get(&job) {
            Some(exec) => Arc::clone(exec),
            None => return WorkerResponse::UnknownJob { job },
        }
    };
    shared.tasks_in_flight.fetch_add(1, Ordering::Relaxed);
    shared.map_attempts.fetch_add(1, Ordering::Relaxed);
    // Task code is user-extensible and may panic; the catch turns a
    // panicking attempt into a retryable failure instead of killing
    // the handler thread (whose death would drop the connection
    // without a reply — a broken connection the coordinator takes for
    // a dead worker, not a failed attempt). The sync facade
    // (parking_lot) guarantees no lock is poisoned by the unwind.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        maybe_panic_in_task(job);
        exec.run_map(task, attempt)
    }));
    shared.tasks_in_flight.fetch_sub(1, Ordering::Relaxed);
    let result = match result {
        Ok(r) => r,
        Err(_) => {
            return failed(
                format!("map {task} attempt {attempt}: task panicked on this worker"),
                false,
            )
        }
    };
    match result {
        Ok(out) => {
            let partitions = (shared.store).commit_map(job, task, attempt, out.partitions);
            if !shared.jobs.lock().contains_key(&job) {
                // Finish raced the map; drop what we just stored.
                for &(reducer, _) in &partitions {
                    shared.store.release(job, reducer, &[(task, attempt)]);
                }
                return failed(format!("job {job} vanished mid-map"), false);
            }
            WorkerResponse::MapDone {
                job,
                task,
                attempt,
                records_in: out.records_in,
                records_out: out.records_out,
                partitions,
            }
        }
        Err(e) => failed(format!("map {task} attempt {attempt}: {e}"), is_fatal(&e)),
    }
}

/// Non-consuming read of one partition generation: `Some` if held,
/// `None` if gone. A spilled replica is read back through the tier
/// and re-validated; one that fails its CRC is discarded by the store,
/// so this and every later peek reports it gone and the coordinator
/// re-executes the producing map.
fn peek_partition(
    shared: &Shared,
    job: u64,
    map: usize,
    reducer: usize,
    epoch: u32,
) -> Option<Arc<Vec<u8>>> {
    shared
        .store
        .get(&(job, map, reducer, epoch))
        .unwrap_or_else(|e| {
            eprintln!("[worker] partition (job={job} m{map} r{reducer} e{epoch}) lost: {e}");
            None
        })
}

/// One reduce attempt, end to end on this worker:
///
/// 1. **copy** — peek every source partition from its holder
///    (self-fetches read the local store, peers over the wire) and open
///    them ([`open_sources`]). A source that is gone or fails its CRC
///    aborts with `lost_sources`.
/// 2. **merge** — in the given source order (the plan's fetch order:
///    the equal-key tie-break that keeps output byte-identical to a
///    single-process run).
/// 3. **reply** — `ReduceDone` followed by the whole keyblock as one
///    raw `KeyblockBin` frame.
/// 4. **release** — only now drop the sources at their holders. Peeks
///    are side-effect-free, so an attempt that dies or fails anywhere
///    before step 4 has consumed nothing and its retry starts clean.
///
/// Returns whether the connection is still usable.
fn run_reduce(
    shared: &Shared,
    conn: &mut Conn,
    job: u64,
    reducer: usize,
    sources: Vec<SourceLoc>,
    expected_raw: Option<u64>,
) -> bool {
    let exec = {
        let jobs = shared.jobs.lock();
        match jobs.get(&job) {
            Some(exec) => Arc::clone(exec),
            None => return answer(shared, conn, &WorkerResponse::UnknownJob { job }, None),
        }
    };
    shared.tasks_in_flight.fetch_add(1, Ordering::Relaxed);
    shared.reduce_attempts.fetch_add(1, Ordering::Relaxed);
    // Same panic boundary as `run_map`: a panicking attempt must
    // surface as a failed attempt, not a severed-but-half-open
    // connection.
    let usable = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        maybe_panic_in_task(job);
        run_reduce_inner(shared, conn, job, reducer, &exec, &sources, expected_raw)
    }));
    shared.tasks_in_flight.fetch_sub(1, Ordering::Relaxed);
    usable.unwrap_or_else(|_| {
        let panicked = failed(
            format!("reduce {reducer}: task panicked on this worker"),
            false,
        );
        answer(shared, conn, &panicked, None)
    })
}

fn run_reduce_inner(
    shared: &Shared,
    conn: &mut Conn,
    job: u64,
    reducer: usize,
    exec: &SpecExecutor,
    sources: &[SourceLoc],
    expected_raw: Option<u64>,
) -> bool {
    // --- copy -------------------------------------------------------
    // Fetched buffers stay in `Arc`s end to end: a self-fetch shares
    // the local store's allocation outright, and v4 buffers are merged
    // in place — no partition is copied or re-decoded on this path.
    let fetch_started = time::now();
    // One fetch connection per peer, reused across that peer's
    // partitions (Table 3's connection accounting, worker-side) and
    // for the release that follows the reply.
    // An unreachable holder's generations are gone.
    let mut peers: HashMap<&str, Option<WorkerConn>> = HashMap::new();
    let mut fetched = Vec::with_capacity(sources.len());
    for src in sources {
        let (map, epoch) = (src.map, src.epoch);
        let bytes = if src.holder == shared.addr {
            peek_partition(shared, job, map, reducer, epoch)
        } else {
            let peer = (peers.entry(src.holder.as_str())).or_insert_with(|| {
                WorkerConn::dial(&*shared.net, &src.holder, Role::Worker, None).ok()
            });
            let req = WorkerRequest::FetchPartition {
                job,
                map,
                reducer,
                epoch,
            };
            match peer.as_mut().map(|peer| peer.request(&req)) {
                Some(Ok((WorkerResponse::Partition { .. }, Some(bytes)))) => Some(Arc::new(bytes)),
                _ => None,
            }
        };
        fetched.push((map, epoch, bytes));
    }
    let inputs = match open_sources(&shared.store, job, reducer, fetched) {
        Ok(inputs) => inputs,
        Err(RemoteReduceError::SourcesLost(lost)) => {
            let failed = WorkerResponse::Failed {
                detail: format!("reduce {reducer}: {} source partition(s) lost", lost.len()),
                fatal: false,
                lost_sources: lost,
            };
            return answer(shared, conn, &failed, None);
        }
        Err(other) => {
            return answer(
                shared,
                conn,
                &failed(format!("reduce {reducer}: {other:?}"), true),
                None,
            )
        }
    };
    let fetch_ms = time::now()
        .saturating_duration_since(fetch_started)
        .as_millis() as u64;

    // --- merge & reply ----------------------------------------------
    // A keyblock that cannot be one frame (mixed coordinate ranks, or
    // past `MAX_FRAME`) will not fit on a retry either: fatal.
    let records = match exec
        .reduce(reducer, inputs, expected_raw)
        .map_err(SidrError::Engine)
    {
        Ok(records) => records,
        Err(e) => {
            let failed = failed(format!("reduce {reducer}: {e}"), is_fatal(&e));
            return answer(shared, conn, &failed, None);
        }
    };
    let keyblock = match binframe::encode_keyblock(job, reducer, 0, &records) {
        Ok(frame) => frame,
        Err(e) => {
            let detail = format!("reduce {reducer}: keyblock does not fit one frame: {e}");
            return answer(shared, conn, &failed(detail, true), None);
        }
    };
    let emitted = records.len() as u64;
    let done = WorkerResponse::ReduceDone { emitted, fetch_ms };
    if !answer(shared, conn, &done, Some(&keyblock)) {
        return false;
    }

    // --- release: the reply is out, drop the inputs -----------------
    let mut by_holder: BTreeMap<&str, Vec<(usize, u32)>> = BTreeMap::new();
    for src in sources {
        by_holder
            .entry(src.holder.as_str())
            .or_default()
            .push((src.map, src.epoch));
    }
    for (holder, maps) in by_holder {
        if holder == shared.addr {
            shared.store.release(job, reducer, &maps);
        } else if let Some(Some(peer)) = peers.get_mut(holder) {
            // A holder dying *during* release changes nothing: whatever
            // it still held is gone with it, which is exactly what
            // release was about to record.
            let _ = peer.request(&WorkerRequest::Release { job, reducer, maps });
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use sidr_serve::Tcp;
    use std::time::{Duration, Instant};

    /// `wait` is a join, not a poll: it returns as soon as `kill` has
    /// stopped the acceptor.
    #[test]
    fn wait_returns_promptly_after_kill() {
        let worker = Worker::spawn(Arc::new(Tcp), "127.0.0.1:0", WorkerOptions::default());
        let worker = Arc::new(worker.unwrap());
        let waiter = {
            let worker = Arc::clone(&worker);
            std::thread::spawn(move || {
                worker.wait();
                Instant::now()
            })
        };
        std::thread::sleep(Duration::from_millis(50));
        assert!(!waiter.is_finished(), "wait returned before kill");
        let killed_at = Instant::now();
        worker.kill();
        let returned_at = waiter.join().unwrap();
        let latency = returned_at.saturating_duration_since(killed_at);
        assert!(
            latency < Duration::from_millis(100),
            "wait returned {latency:?} after kill"
        );
    }
}
