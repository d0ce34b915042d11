//! The `sidr-serve` daemon: multi-tenant execution of structural
//! queries with streaming early results.
//!
//! One process owns one cluster-wide [`SlotPool`]; every admitted job
//! is scheduled on it concurrently by `run_job_with_executor` (attempts
//! run in-process, or on the fleet when one is configured), so the §3.3
//! slot-class bounds hold *across* jobs, not per job. Admission runs
//! the `sidr-analyze` pre-flight on each submitted [`JobSpec`] before
//! anything is scheduled — a plan that would hang or answer wrongly
//! is rejected at the door with its diagnostics.
//!
//! Each job's output path is one collector (`KeyblockStream`): every
//! committed keyblock is stamped, encoded as one
//! [`KeyblockBin`](crate::binframe::KeyblockBin) frame and enqueued on
//! the submitting connection the moment its reduce finishes (§3.4/§5
//! early correct results). Nothing is retained: a client that
//! disconnects mid-stream mutes the stream without failing the job —
//! the job completes into the server's lifetime counters.

use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use sidr_analyze::{analyze_spec, AnalyzeOptions};
use sidr_coords::Coord;
use sidr_core::diag::Severity;
use sidr_core::exec::ExecOptions;
use sidr_core::framework::{run_spec_on_pool, run_spec_with_executor, SpecRunOptions};
use sidr_core::spec::JobSpec;
use sidr_mapreduce::sync::Mutex;
use sidr_mapreduce::{CancelToken, MrError, OutputCollector, SlotPool};
use sidr_scifile::ScincFile;

use crate::binframe;
use crate::fleet::Fleet;
use crate::frame::{self, FrameError, Hello, Role};
use crate::metrics::{serve as serve_metrics, ServeMetrics};
use crate::proto::{Request, Response, ServerStats, SubmitOptions};
use crate::transport::Tcp;

/// One message on a connection's outbound channel. JSON responses are
/// serialized by the writer thread; a keyblock arrives already encoded
/// as a `KeyblockBin` frame (one allocation at commit, written
/// as-is), so the reduce-commit → socket path never runs a JSON
/// encoder.
enum Outbound {
    Json(Response),
    BinKeyblock(Vec<u8>),
}

/// The occupancy gauge a job in `state` contributes to, if any.
fn state_gauge(m: &ServeMetrics, state: JobState) -> Option<&sidr_obs::Gauge> {
    match state {
        JobState::Queued | JobState::Planning => Some(&m.jobs_queued),
        JobState::Running => Some(&m.jobs_running),
        JobState::Done | JobState::Failed | JobState::Cancelled | JobState::DeadlineExceeded => {
            None
        }
    }
}

/// Static configuration of one serving process.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Cluster-wide map slots shared by every job.
    pub map_slots: usize,
    /// Cluster-wide reduce slots shared by every job.
    pub reduce_slots: usize,
    /// Admission pre-flight configuration.
    pub analyze: AnalyzeOptions,
    /// Worker addresses (`host:port`). Empty means in-process
    /// execution; non-empty turns the server into a coordinator that
    /// dispatches every task attempt to this fleet.
    pub workers: Vec<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            map_slots: 4,
            reduce_slots: 2,
            analyze: AnalyzeOptions::default(),
            workers: Vec::new(),
        }
    }
}

/// Lifecycle of one admitted job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for its worker thread.
    Queued,
    /// Opening inputs and re-deriving the plan from the spec.
    Planning,
    /// Executing on the shared pool.
    Running,
    Done,
    Failed,
    Cancelled,
    /// The engine abandoned the job at the spec's `deadline_ms`
    /// ([`MrError::DeadlineExceeded`]): it was still running.
    DeadlineExceeded,
}

impl JobState {
    fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled | JobState::DeadlineExceeded
        )
    }

    /// The legal lifecycle edges. Terminal states have no successors;
    /// a job can only fail out of `Planning` (input open) or `Running`
    /// (execution), and `DeadlineExceeded` is a refinement of
    /// cancellation so it too requires `Running`.
    pub fn can_transition(self, to: JobState) -> bool {
        use JobState::*;
        matches!(
            (self, to),
            (Queued, Planning | Cancelled)
                | (Planning, Running | Failed | Cancelled)
                | (Running, Done | Failed | Cancelled | DeadlineExceeded)
        )
    }
}

/// Registry entry: the server's handle on one job.
struct JobHandle {
    state: JobState,
    cancel: CancelToken,
}

/// State shared by the acceptor, connection threads and job threads.
struct Inner {
    config: ServerConfig,
    /// The acceptor's bound address — used to self-connect on
    /// shutdown so the blocking accept loop wakes up.
    addr: SocketAddr,
    pool: SlotPool,
    /// The worker fleet, when configured with workers (coordinator
    /// mode). `None` executes jobs in-process, exactly as before.
    fleet: Option<Fleet>,
    jobs: Mutex<HashMap<u64, JobHandle>>,
    next_job: AtomicU64,
    shutdown: AtomicBool,
    jobs_done: AtomicU64,
    jobs_failed: AtomicU64,
    jobs_cancelled: AtomicU64,
    jobs_deadline: AtomicU64,
    keyblocks_committed: AtomicU64,
    bytes_streamed: AtomicU64,
}

impl Inner {
    fn set_state(&self, job: u64, state: JobState) {
        let mut jobs = self.jobs.lock();
        let prev = jobs.get_mut(&job).map(|h| {
            let prev = h.state;
            debug_assert!(
                prev.can_transition(state),
                "illegal job state transition {prev:?} -> {state:?} (job {job})"
            );
            h.state = state;
            prev
        });
        drop(jobs);
        let m = serve_metrics();
        if let Some(prev) = prev {
            if let Some(g) = state_gauge(m, prev) {
                g.dec();
            }
            if let Some(g) = state_gauge(m, state) {
                g.inc();
            }
        }
        match state {
            JobState::Done => {
                self.jobs_done.fetch_add(1, Ordering::Relaxed);
                m.jobs_done.inc();
            }
            JobState::Failed => {
                self.jobs_failed.fetch_add(1, Ordering::Relaxed);
                m.jobs_failed.inc();
            }
            JobState::Cancelled => {
                self.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
                m.jobs_cancelled.inc();
            }
            JobState::DeadlineExceeded => {
                self.jobs_deadline.fetch_add(1, Ordering::Relaxed);
                m.jobs_deadline_exceeded.inc();
            }
            _ => {}
        }
    }

    fn stats(&self) -> ServerStats {
        let jobs = self.jobs.lock();
        let queued = jobs
            .values()
            .filter(|h| matches!(h.state, JobState::Queued | JobState::Planning))
            .count();
        let running = jobs
            .values()
            .filter(|h| h.state == JobState::Running)
            .count();
        drop(jobs);
        let occ = self.pool.occupancy();
        ServerStats {
            jobs_queued: queued,
            jobs_running: running,
            jobs_done: self.jobs_done.load(Ordering::Relaxed),
            jobs_failed: self.jobs_failed.load(Ordering::Relaxed),
            jobs_cancelled: self.jobs_cancelled.load(Ordering::Relaxed),
            jobs_deadline_exceeded: self.jobs_deadline.load(Ordering::Relaxed),
            map_busy: occ.map_busy,
            map_total: occ.map_total,
            reduce_busy: occ.reduce_busy,
            reduce_total: occ.reduce_total,
            keyblocks_committed: self.keyblocks_committed.load(Ordering::Relaxed),
            bytes_streamed: self.bytes_streamed.load(Ordering::Relaxed),
            workers: self.fleet.as_ref().map(|f| f.stats()).unwrap_or_default(),
        }
    }

    /// Cancels every job that has not yet reached a terminal state.
    fn cancel_all(&self) {
        let jobs = self.jobs.lock();
        for h in jobs.values() {
            if !h.state.is_terminal() {
                h.cancel.cancel();
            }
        }
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    inner: Arc<Inner>,
}

/// Control handle usable from other threads (tests, signal handlers).
#[derive(Clone)]
pub struct ServerHandle {
    inner: Arc<Inner>,
}

impl ServerHandle {
    /// Stops the accept loop and cancels outstanding jobs. Idempotent.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.cancel_all();
        // Wake the blocking acceptor.
        let _ = TcpStream::connect(self.inner.addr);
    }

    /// A stats snapshot, bypassing the wire protocol.
    pub fn stats(&self) -> ServerStats {
        self.inner.stats()
    }
}

impl Server {
    /// Binds the service. Use port 0 to let the OS pick (tests).
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> std::io::Result<Server> {
        // Register the serving metrics before any traffic, so a scrape
        // of an idle daemon already shows the full inventory at zero.
        let _ = serve_metrics();
        let pool = SlotPool::new(config.map_slots, config.reduce_slots)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string()))?;
        let fleet = if config.workers.is_empty() {
            None
        } else {
            Some(
                Fleet::connect(Arc::new(Tcp), config.workers.clone()).map_err(|e| {
                    std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string())
                })?,
            )
        };
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        Ok(Server {
            listener,
            inner: Arc::new(Inner {
                config,
                addr: local,
                pool,
                fleet,
                jobs: Mutex::new(HashMap::new()),
                next_job: AtomicU64::new(1),
                shutdown: AtomicBool::new(false),
                jobs_done: AtomicU64::new(0),
                jobs_failed: AtomicU64::new(0),
                jobs_cancelled: AtomicU64::new(0),
                jobs_deadline: AtomicU64::new(0),
                keyblocks_committed: AtomicU64::new(0),
                bytes_streamed: AtomicU64::new(0),
            }),
        })
    }

    /// The bound address (the OS-picked port when bound to port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A control handle for shutting the server down from elsewhere.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Runs the accept loop until a `Shutdown` request (or
    /// [`ServerHandle::shutdown`]) arrives. Each connection gets a
    /// reader thread; each admitted job gets a worker thread.
    pub fn run(self) -> std::io::Result<()> {
        for conn in self.listener.incoming() {
            if self.inner.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match conn {
                Ok(s) => s,
                Err(_) => continue,
            };
            // Each frame leaves in one write; Nagle would only hold a
            // small one back for the client's delayed ACK.
            stream.set_nodelay(true).ok();
            let inner = Arc::clone(&self.inner);
            thread::spawn(move || handle_connection(inner, stream));
        }
        Ok(())
    }
}

/// One connection: a reader loop on this thread, a writer thread
/// draining the outbound channel, and a detached thread per admitted
/// job. The channel fan-in is what lets keyblock frames of concurrent
/// jobs interleave on one socket without tearing frames.
fn handle_connection(inner: Arc<Inner>, stream: TcpStream) {
    let mut write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut read_half = stream;

    // The first frame must be a [`Hello`]. As everywhere on this
    // socket, anything else — garbage, or a well-formed `Request` sent
    // without a handshake — draws a protocol `Error` frame before the
    // connection closes, never a silent hang-up.
    match frame::recv::<Hello>(&mut read_half) {
        Ok(Some(hello)) => {
            // Answer the handshake directly (the writer thread only
            // speaks `Response`). A version or magic mismatch gets no
            // reply at all: the dialer reads the close as the refusal.
            if frame::handshake_accept(&mut write_half, &hello, Role::Coordinator).is_err() {
                return;
            }
        }
        Ok(None) => return,
        Err(e @ FrameError::Oversized { .. })
        | Err(e @ FrameError::Malformed(_))
        | Err(e @ FrameError::VersionMismatch { .. }) => {
            send_error_frame(&mut write_half, e.to_string());
            return;
        }
        Err(_) => return,
    }

    let (tx, rx) = channel::<Outbound>();
    let writer_inner = Arc::clone(&inner);
    let writer = thread::spawn(move || write_loop(writer_inner, write_half, rx));

    loop {
        match frame::recv::<Request>(&mut read_half) {
            Ok(Some(req)) => {
                serve_metrics().frames_in.inc();
                if !handle_request(&inner, req, &tx) {
                    break;
                }
            }
            // Clean disconnect: the job threads keep their tx clones
            // and keep running (hang-up tolerance); we just leave.
            Ok(None) => break,
            Err(FrameError::Io(_)) | Err(FrameError::Truncated { .. }) => break,
            // The stream cannot be resynchronized after a bad length
            // or bad payload; a mid-stream `Hello` is equally
            // unexpected. Report and close.
            Err(e @ FrameError::Oversized { .. })
            | Err(e @ FrameError::Malformed(_))
            | Err(e @ FrameError::VersionMismatch { .. }) => {
                let _ = tx.send(Outbound::Json(Response::Error {
                    message: e.to_string(),
                }));
                break;
            }
        }
    }
    drop(tx);
    let _ = writer.join();
}

/// One-off protocol `Error` frame on a connection whose writer thread
/// hasn't started (the handshake).
fn send_error_frame(stream: &mut TcpStream, message: String) {
    if frame::send(stream, &Response::Error { message }).is_ok() {
        serve_metrics().frames_out.inc();
    }
}

/// Serializes responses onto the socket, accounting streamed bytes.
/// Either flavor leaves in one vectored write (`write_frame`); a
/// keyblock's bytes pass through untouched.
fn write_loop(inner: Arc<Inner>, mut stream: TcpStream, rx: Receiver<Outbound>) {
    for out in &rx {
        let (payload, is_keyblock) = match out {
            Outbound::Json(resp) => match serde_json::to_string(&resp) {
                Ok(text) => (text.into_bytes(), false),
                Err(_) => continue,
            },
            Outbound::BinKeyblock(bytes) => (bytes, true),
        };
        if frame::write_frame(&mut stream, &payload).is_err() {
            // Consumer hung up: keep draining so job threads never
            // block on a dead connection, but stop writing.
            for _ in rx.iter() {}
            return;
        }
        serve_metrics().frames_out.inc();
        if is_keyblock {
            inner
                .bytes_streamed
                .fetch_add(payload.len() as u64, Ordering::Relaxed);
            serve_metrics().streamed_bytes.add(payload.len() as u64);
        }
    }
    let _ = stream.flush();
}

/// Dispatches one request; returns false when the connection (or the
/// whole server) should wind down.
fn handle_request(inner: &Arc<Inner>, req: Request, tx: &Sender<Outbound>) -> bool {
    match req {
        Request::Submit {
            spec,
            input,
            options,
        } => {
            admit(inner, spec, input, options, tx);
            true
        }
        Request::Cancel { job } => {
            let jobs = inner.jobs.lock();
            match jobs.get(&job) {
                Some(h) => h.cancel.cancel(),
                None => {
                    let _ = tx.send(Outbound::Json(Response::Error {
                        message: format!("unknown job id {job}"),
                    }));
                }
            }
            true
        }
        Request::Stats => {
            let _ = tx.send(Outbound::Json(Response::Stats {
                stats: inner.stats(),
            }));
            true
        }
        Request::Metrics => {
            let _ = tx.send(Outbound::Json(Response::Metrics {
                text: sidr_obs::render_global(),
            }));
            true
        }
        Request::Shutdown => {
            inner.shutdown.store(true, Ordering::SeqCst);
            inner.cancel_all();
            // Wake the acceptor so `Server::run` observes the flag.
            let _ = TcpStream::connect(inner.addr);
            false
        }
    }
}

/// The admission pre-flight (§3.2.1 meets the static verifier): the
/// spec is analyzed *before* anything is scheduled, and a plan with
/// error-severity findings never reaches the pool.
fn admit(
    inner: &Arc<Inner>,
    spec: JobSpec,
    input: String,
    options: SubmitOptions,
    tx: &Sender<Outbound>,
) {
    let report = match analyze_spec(&spec, &inner.config.analyze) {
        Ok(r) => r,
        Err(e) => {
            serve_metrics().rejections.inc();
            let _ = tx.send(Outbound::Json(Response::Rejected {
                reason: format!("pre-flight could not analyze the spec: {e}"),
                diagnostics: Vec::new(),
            }));
            return;
        }
    };
    if report.has_errors() {
        serve_metrics().rejections.inc();
        let _ = tx.send(Outbound::Json(Response::Rejected {
            reason: "admission pre-flight found plan errors".into(),
            diagnostics: report
                .diagnostics
                .iter()
                .filter(|d| d.severity == Severity::Error)
                .map(|d| d.to_string())
                .collect(),
        }));
        return;
    }

    let job = inner.next_job.fetch_add(1, Ordering::Relaxed);
    let cancel = CancelToken::new();
    inner.jobs.lock().insert(
        job,
        JobHandle {
            state: JobState::Queued,
            cancel: cancel.clone(),
        },
    );
    serve_metrics().jobs_queued.inc();
    let _ = tx.send(Outbound::Json(Response::Accepted {
        job,
        keyblocks: spec.num_reducers,
        num_maps: spec.splits.len(),
    }));

    let inner = Arc::clone(inner);
    let tx = tx.clone();
    thread::spawn(move || run_admitted_job(inner, job, spec, input, options, cancel, tx));
}

/// One admitted job, end to end: open the input, execute on the
/// shared pool streaming each keyblock as it commits, then send the
/// terminal frame. A vanished client mutes the stream; the job still
/// completes into the lifetime counters.
fn run_admitted_job(
    inner: Arc<Inner>,
    job: u64,
    spec: JobSpec,
    input: String,
    options: SubmitOptions,
    cancel: CancelToken,
    tx: Sender<Outbound>,
) {
    inner.set_state(job, JobState::Planning);
    let file = match ScincFile::open(&input) {
        Ok(f) => f,
        Err(e) => {
            inner.set_state(job, JobState::Failed);
            let _ = tx.send(Outbound::Json(Response::Failed {
                job,
                error: format!("cannot open input {input:?}: {e}"),
            }));
            return;
        }
    };

    let opts = SpecRunOptions {
        priority_region: options.priority_region.clone(),
        validate_annotations: options.validate_annotations,
        filter_pushdown: options.filter_pushdown,
        fault_plan: options.fault_plan.clone(),
    };

    let out = KeyblockStream {
        inner: &inner,
        job,
        start: Instant::now(),
        tx: tx.clone(),
        keyblocks: AtomicU64::new(0),
        records: AtomicU64::new(0),
    };

    inner.set_state(job, JobState::Running);

    // Same scheduler either way; only where attempts execute differs.
    // In coordinator mode each attempt is dispatched to the fleet
    // through the engine's `TaskExecutor` seam.
    let result = match &inner.fleet {
        Some(fleet) => {
            let exec_opts = ExecOptions {
                validate_annotations: options.validate_annotations,
                filter_pushdown: options.filter_pushdown,
                fault_plan: options.fault_plan.clone(),
            };
            match fleet.prepare_job(&spec, &input, &exec_opts) {
                Ok(remote) => {
                    let r = run_spec_with_executor(
                        &spec,
                        &opts,
                        &out,
                        &inner.pool,
                        Some(&cancel),
                        &remote,
                    );
                    remote.finish();
                    r
                }
                Err(e) => Err(sidr_core::SidrError::Engine(e)),
            }
        }
        None => run_spec_on_pool(&file, &spec, &opts, &out, &inner.pool, Some(&cancel)),
    };

    match result {
        Ok(job_result) => {
            inner.set_state(job, JobState::Done);
            let _ = tx.send(Outbound::Json(Response::Done {
                job,
                keyblocks: spec.num_reducers,
                records: out.records.load(Ordering::Relaxed),
                events: job_result.events,
            }));
        }
        Err(sidr_core::SidrError::Engine(MrError::DeadlineExceeded { deadline_ms })) => {
            inner.set_state(job, JobState::DeadlineExceeded);
            let _ = tx.send(Outbound::Json(Response::DeadlineExceeded {
                job,
                deadline_ms,
            }));
        }
        Err(sidr_core::SidrError::Engine(MrError::Cancelled)) => {
            inner.set_state(job, JobState::Cancelled);
            let _ = tx.send(Outbound::Json(Response::Cancelled { job }));
        }
        Err(e) => {
            inner.set_state(job, JobState::Failed);
            let _ = tx.send(Outbound::Json(Response::Failed {
                job,
                error: e.to_string(),
            }));
        }
    }
}

/// One job's output path. `commit` stamps the keyblock, encodes its
/// `KeyblockBin` frame once into an exact-size buffer and enqueues it
/// on the submitting connection; the records themselves are dropped.
/// A send to a connection that is gone is ignored — that is the whole
/// of hang-up tolerance. A keyblock the frame cannot carry fails the
/// commit and thereby the job, with the reason.
struct KeyblockStream<'a> {
    inner: &'a Inner,
    job: u64,
    start: Instant,
    tx: Sender<Outbound>,
    keyblocks: AtomicU64,
    records: AtomicU64,
}

impl OutputCollector<Coord, f64> for KeyblockStream<'_> {
    fn commit(&self, reducer: usize, records: Vec<(Coord, f64)>) -> sidr_mapreduce::Result<()> {
        // Measured from job start: the paper's time-to-first-result,
        // as served.
        let at = self.start.elapsed();
        let bin = binframe::encode_keyblock(self.job, reducer, at.as_millis() as u64, &records)
            .map_err(|e| {
                MrError::Output(format!("keyblock does not fit a KeyblockBin frame: {e}"))
            })?;
        let m = serve_metrics();
        if self.keyblocks.fetch_add(1, Ordering::Relaxed) == 0 {
            m.ttfb_seconds.observe(at.as_secs_f64());
        }
        m.keyblocks.inc();
        self.inner
            .keyblocks_committed
            .fetch_add(1, Ordering::Relaxed);
        self.records
            .fetch_add(records.len() as u64, Ordering::Relaxed);
        let _ = self.tx.send(Outbound::BinKeyblock(bin));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::JobState;
    use JobState::*;

    const ALL: [JobState; 7] = [
        Queued,
        Planning,
        Running,
        Done,
        Failed,
        Cancelled,
        DeadlineExceeded,
    ];

    #[test]
    fn transition_matrix_matches_the_documented_lifecycle() {
        let legal: &[(JobState, JobState)] = &[
            (Queued, Planning),
            (Queued, Cancelled),
            (Planning, Running),
            (Planning, Failed),
            (Planning, Cancelled),
            (Running, Done),
            (Running, Failed),
            (Running, Cancelled),
            (Running, DeadlineExceeded),
        ];
        for from in ALL {
            for to in ALL {
                assert_eq!(
                    from.can_transition(to),
                    legal.contains(&(from, to)),
                    "{from:?} -> {to:?}"
                );
            }
        }
    }

    #[test]
    fn terminal_states_have_no_successors_and_no_state_loops() {
        for from in ALL {
            assert!(!from.can_transition(from), "{from:?} must not self-loop");
            if from.is_terminal() {
                for to in ALL {
                    assert!(
                        !from.can_transition(to),
                        "terminal {from:?} must not reach {to:?}"
                    );
                }
            } else {
                assert!(
                    ALL.iter()
                        .any(|to| to.is_terminal() && from.can_transition(*to)),
                    "{from:?} must be able to reach a terminal state"
                );
            }
        }
    }
}
