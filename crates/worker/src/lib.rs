//! `sidr-worker` — the worker half of distributed execution.
//!
//! A worker is a TCP daemon that does exactly two things:
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
//! handshake; a worker accepts nothing else.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use sidr_core::exec::SpecExecutor;
use sidr_core::SidrError;
// The workspace sync facade (parking_lot in normal builds): a task
// thread that panics while holding a lock unwinds cleanly instead of
// poisoning shared state and cascade-killing the daemon.
use sidr_mapreduce::sync::Mutex;
use sidr_mapreduce::tier::{PartitionStore, TierConfig};
use sidr_mapreduce::MrError;
use sidr_serve::binframe;
use sidr_serve::fleet::{
    send_reply, PartitionStatus, SourceLoc, WorkerConn, WorkerRequest, WorkerResponse,
};
use sidr_serve::frame::{self, Hello, Role};
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
    addr: SocketAddr,
    /// Prepared jobs' executors. Partition bytes live in `store`,
    /// which alone decides whether a partition is held.
    jobs: Mutex<HashMap<u64, Arc<SpecExecutor>>>,
    /// All partition bytes, both tiers, across jobs — the byte budget
    /// is per worker process, not per job.
    store: PartitionStore,
    dead: AtomicBool,
    /// A clone of every live connection by connection id, so `kill` can
    /// sever them mid-frame (crash semantics, not graceful drain). An
    /// entry lives exactly as long as its handler, which removes it on
    /// return.
    conns: Mutex<HashMap<u64, TcpStream>>,
    tasks_in_flight: AtomicU64,
    map_attempts: AtomicU64,
    reduce_attempts: AtomicU64,
}

impl Shared {
    fn stat(&self) -> WorkerStat {
        let pressure = self.store.pressure();
        WorkerStat {
            addr: self.addr.to_string(),
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
/// thread per connection. [`Worker::kill`] is crash semantics for
/// chaos tests — the listener closes, live connections are severed
/// mid-frame and the partition store is wiped, exactly what a dead
/// process looks like to the rest of the fleet.
pub struct Worker {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Mutex<Option<thread::JoinHandle<()>>>,
}

impl Worker {
    /// Binds and starts serving with default resources (unbounded
    /// memory). Use port 0 to let the OS pick.
    pub fn spawn(addr: impl ToSocketAddrs) -> std::io::Result<Worker> {
        Worker::spawn_with(addr, WorkerOptions::default())
    }

    /// Binds and starts serving with an explicit resource
    /// configuration (memory budget, spill directory).
    pub fn spawn_with(addr: impl ToSocketAddrs, options: WorkerOptions) -> std::io::Result<Worker> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let spill_dir = options.spill_dir.clone().unwrap_or_else(|| {
            std::env::temp_dir().join(format!(
                "sidr-worker-spill-{}-{}",
                std::process::id(),
                local.port()
            ))
        });
        let tier_cfg = TierConfig {
            budget_bytes: options.budget_bytes,
        };
        let shared = Arc::new(Shared {
            addr: local,
            jobs: Mutex::new(HashMap::new()),
            store: PartitionStore::on_disk(tier_cfg, spill_dir),
            dead: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            tasks_in_flight: AtomicU64::new(0),
            map_attempts: AtomicU64::new(0),
            reduce_attempts: AtomicU64::new(0),
        });
        let accept_shared = Arc::clone(&shared);
        let acceptor = thread::Builder::new()
            .name(format!("sidr-worker-{local}"))
            .spawn(move || {
                for (id, conn) in (0u64..).zip(listener.incoming()) {
                    if accept_shared.dead.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    // Replies are one write each; Nagle would only hold
                    // a small one back for the peer's delayed ACK.
                    stream.set_nodelay(true).ok();
                    if let Ok(clone) = stream.try_clone() {
                        accept_shared.conns.lock().insert(id, clone);
                    }
                    let handler_shared = Arc::clone(&accept_shared);
                    thread::spawn(move || {
                        handle_connection(&handler_shared, stream);
                        handler_shared.conns.lock().remove(&id);
                    });
                }
                // Dropping the listener here makes further dials fail
                // with connection-refused: a dead worker, not a hung
                // one.
            })?;
        Ok(Worker {
            shared,
            addr: local,
            acceptor: Mutex::new(Some(acceptor)),
        })
    }

    /// The bound address workers advertise to the fleet.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Point-in-time self-report (what a `Ping` returns).
    pub fn stat(&self) -> WorkerStat {
        self.shared.stat()
    }

    /// Simulates the process dying: stop accepting, sever every live
    /// connection mid-frame, wipe the partition store. The coordinator
    /// finds out the way it would with a real crash — broken task
    /// connections and failed heartbeats.
    pub fn kill(&self) {
        if self.shared.dead.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking acceptor so it observes the flag and drops
        // the listener.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.lock().take() {
            let _ = h.join();
        }
        for (_, s) in self.shared.conns.lock().drain() {
            let _ = s.shutdown(std::net::Shutdown::Both);
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

    /// Blocks until the worker is killed (daemon mode for the CLI).
    pub fn wait(&self) {
        while !self.shared.dead.load(Ordering::SeqCst) {
            thread::sleep(Duration::from_millis(50));
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
fn handle_connection(shared: &Shared, stream: TcpStream) {
    let mut writer = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut reader = stream;

    // Every dialer speaks the handshake, so anything else on the
    // first frame is a protocol error and the connection just closes.
    let hello: Hello = match frame::recv(&mut reader) {
        Ok(Some(h)) => h,
        _ => return,
    };
    if frame::handshake_accept(&mut writer, &hello, Role::Worker).is_err() {
        return;
    }

    loop {
        let req = match frame::recv::<WorkerRequest>(&mut reader) {
            Ok(Some(r)) => r,
            _ => return,
        };
        if shared.dead.load(Ordering::SeqCst) {
            return;
        }
        let ok = match req {
            WorkerRequest::Ping => {
                frame::send(&mut writer, &WorkerResponse::Pong(shared.stat())).is_ok()
            }
            WorkerRequest::Prepare {
                job,
                spec,
                input,
                opts,
            } => {
                // A coordinator that restarted counts its jobs from 1
                // again: whatever an earlier job of this id left here
                // (its `Finish` never came) goes first.
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
                frame::send(&mut writer, &resp).is_ok()
            }
            WorkerRequest::RunMap { job, task, attempt } => {
                let resp = run_map(shared, job, task, attempt);
                frame::send(&mut writer, &resp).is_ok()
            }
            WorkerRequest::RunReduce {
                job,
                reducer,
                attempt,
                sources,
                expected_raw,
            } => run_reduce(
                shared,
                &mut writer,
                job,
                reducer,
                attempt,
                sources,
                expected_raw,
            ),
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
                let bytes = held.as_ref().map(|b| b.as_slice());
                send_reply(&mut writer, &WorkerResponse::Partition { status }, bytes).is_ok()
            }
            WorkerRequest::Release { job, reducer, maps } => {
                release(shared, job, reducer, &maps);
                frame::send(&mut writer, &WorkerResponse::Released).is_ok()
            }
            WorkerRequest::Finish { job } => {
                finish_job(shared, job);
                frame::send(&mut writer, &WorkerResponse::Finished).is_ok()
            }
        };
        if !ok {
            return;
        }
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
            None => return failed(format!("job {job} is not prepared here"), false),
        }
    };
    shared.tasks_in_flight.fetch_add(1, Ordering::Relaxed);
    shared.map_attempts.fetch_add(1, Ordering::Relaxed);
    // Task code is user-extensible and may panic; the catch turns a
    // panicking attempt into a retryable failure instead of killing
    // the handler thread (whose death would skip removing the
    // connection's clone from `conns`, holding the socket open — a hung
    // coordinator, not a failed attempt). The sync facade (parking_lot)
    // guarantees no lock is poisoned by the unwind.
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
            let mut partitions = Vec::with_capacity(out.partitions.len());
            // Inserting may spill *other* partitions synchronously:
            // backpressure on the producing task's own thread.
            for (reducer, bytes) in out.partitions {
                partitions.push(reducer);
                shared
                    .store
                    .insert((job, task, reducer, attempt), Arc::new(bytes));
            }
            if !shared.jobs.lock().contains_key(&job) {
                // Finish raced the map; drop what we just stored.
                for &reducer in &partitions {
                    shared.store.remove(&(job, task, reducer, attempt));
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

/// Drops partitions a reduce attempt has merged and replied with.
fn release(shared: &Shared, job: u64, reducer: usize, maps: &[(usize, u32)]) {
    for &(map, epoch) in maps {
        shared.store.remove(&(job, map, reducer, epoch));
        // The map just lost a pending consumer — it ranks colder for
        // the next spill-victim selection.
        shared.store.consumer_released(job, map);
    }
}

/// One reduce attempt, end to end on this worker:
///
/// 1. **copy** — peek every source partition from its holder
///    (self-fetches read the local store, peers over TCP). Any miss
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
    writer: &mut TcpStream,
    job: u64,
    reducer: usize,
    _attempt: u32,
    sources: Vec<SourceLoc>,
    expected_raw: Option<u64>,
) -> bool {
    let exec = {
        let jobs = shared.jobs.lock();
        match jobs.get(&job) {
            Some(exec) => Arc::clone(exec),
            None => {
                return frame::send(
                    writer,
                    &failed(format!("job {job} is not prepared here"), false),
                )
                .is_ok()
            }
        }
    };
    let self_addr = shared.addr.to_string();
    shared.tasks_in_flight.fetch_add(1, Ordering::Relaxed);
    shared.reduce_attempts.fetch_add(1, Ordering::Relaxed);
    // Same panic boundary as `run_map`: a panicking attempt must
    // surface as a failed attempt, not a severed-but-half-open
    // connection.
    let usable = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        maybe_panic_in_task(job);
        run_reduce_inner(
            shared,
            writer,
            job,
            reducer,
            &exec,
            &self_addr,
            &sources,
            expected_raw,
        )
    }));
    shared.tasks_in_flight.fetch_sub(1, Ordering::Relaxed);
    match usable {
        Ok(u) => u,
        Err(_) => frame::send(
            writer,
            &failed(
                format!("reduce {reducer}: task panicked on this worker"),
                false,
            ),
        )
        .is_ok(),
    }
}

#[allow(clippy::too_many_arguments)]
fn run_reduce_inner(
    shared: &Shared,
    writer: &mut TcpStream,
    job: u64,
    reducer: usize,
    exec: &SpecExecutor,
    self_addr: &str,
    sources: &[SourceLoc],
    expected_raw: Option<u64>,
) -> bool {
    // --- copy -------------------------------------------------------
    // Fetched buffers stay in `Arc`s end to end: a self-fetch shares
    // the local store's allocation outright, and v3 buffers are merged
    // in place by `run_reduce` — no partition is copied or re-decoded
    // on this path.
    let fetch_started = Instant::now();
    let mut partitions: Vec<Arc<Vec<u8>>> = Vec::with_capacity(sources.len());
    let mut lost: Vec<usize> = Vec::new();
    // One fetch connection per peer, reused across that peer's
    // partitions (Table 3's connection accounting, worker-side) and
    // for the release that follows the reply.
    let mut peers: HashMap<&str, WorkerConn> = HashMap::new();
    for src in sources {
        if src.holder == self_addr {
            match peek_partition(shared, job, src.map, reducer, src.epoch) {
                Some(bytes) => partitions.push(bytes),
                None => lost.push(src.map),
            }
            continue;
        }
        if !peers.contains_key(src.holder.as_str()) {
            match WorkerConn::dial_as(&src.holder, Role::Worker, None) {
                Ok(c) => {
                    peers.insert(src.holder.as_str(), c);
                }
                Err(_) => {
                    // Holder unreachable: its generations are gone.
                    lost.push(src.map);
                    continue;
                }
            }
        }
        let conn = peers.get_mut(src.holder.as_str()).expect("just inserted");
        match conn.request(&WorkerRequest::FetchPartition {
            job,
            map: src.map,
            reducer,
            epoch: src.epoch,
        }) {
            Ok((WorkerResponse::Partition { .. }, Some(bytes))) => partitions.push(Arc::new(bytes)),
            _ => lost.push(src.map),
        }
    }
    if !lost.is_empty() {
        lost.sort_unstable();
        lost.dedup();
        return frame::send(
            writer,
            &WorkerResponse::Failed {
                detail: format!("reduce {reducer}: {} source partition(s) lost", lost.len()),
                fatal: false,
                lost_sources: lost,
            },
        )
        .is_ok();
    }
    let fetch_ms = fetch_started.elapsed().as_millis() as u64;

    // --- merge & reply ----------------------------------------------
    // A keyblock that cannot be one frame (mixed coordinate ranks, or
    // past `MAX_FRAME`) will not fit on a retry either: fatal.
    let mut keyblock = Vec::new();
    let result = exec.run_reduce(reducer, &partitions, expected_raw, &mut |records| {
        keyblock = binframe::encode_keyblock(job, reducer, 0, records).map_err(|e| {
            SidrError::Engine(MrError::BadConfig(format!(
                "keyblock does not fit one frame: {e}"
            )))
        })?;
        Ok(())
    });
    let emitted = match result {
        Ok(emitted) => emitted,
        Err(e) => {
            return frame::send(
                writer,
                &failed(format!("reduce {reducer}: {e}"), is_fatal(&e)),
            )
            .is_ok()
        }
    };
    let done = WorkerResponse::ReduceDone { emitted, fetch_ms };
    if send_reply(writer, &done, Some(&keyblock)).is_err() {
        return false;
    }

    // --- release: the reply is out, drop the inputs -----------------
    let mut by_holder: HashMap<&str, Vec<(usize, u32)>> = HashMap::new();
    for src in sources {
        by_holder
            .entry(src.holder.as_str())
            .or_default()
            .push((src.map, src.epoch));
    }
    for (holder, maps) in by_holder {
        if holder == self_addr {
            release(shared, job, reducer, &maps);
        } else if let Some(conn) = peers.get_mut(holder) {
            // A holder dying *during* release changes nothing: whatever
            // it still held is gone with it, which is exactly what
            // release was about to record.
            let _ = conn.request(&WorkerRequest::Release { job, reducer, maps });
        }
    }
    true
}
