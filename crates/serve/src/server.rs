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

use std::collections::{BTreeMap, VecDeque};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use sidr_analyze::{analyze_spec, AnalyzeOptions};
use sidr_coords::Coord;
use sidr_core::diag::Severity;
use sidr_core::exec::ExecOptions;
use sidr_core::framework::{run_spec_on_pool, run_spec_with_executor, SpecRunOptions};
use sidr_core::spec::JobSpec;
use sidr_mapreduce::sync::chaos::{self, Mutation};
use sidr_mapreduce::sync::{thread, time, wait_until, Condvar, Mutex};
use sidr_mapreduce::{CancelToken, MrError, OutputCollector, SlotPool};
use sidr_scifile::ScincFile;

use crate::binframe;
use crate::fleet::Fleet;
use crate::frame::{self, FrameError, Hello, Role};
use crate::metrics::{serve as serve_metrics, ServeMetrics};
use crate::proto::{Request, Response, ServerStats, SubmitOptions};
use crate::transport::{Conn, Listener, Transport};

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
    listener: Arc<dyn Listener>,
    pool: SlotPool,
    /// The worker fleet, when configured with workers (coordinator
    /// mode). `None` executes jobs in-process, exactly as before.
    fleet: Option<Fleet>,
    /// Ordered, like every collection a handler walks: a seed of the
    /// fleet search replays only if the walk does.
    jobs: Mutex<BTreeMap<u64, JobHandle>>,
    next_job: AtomicU64,
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

    /// Cancels every job that has not yet reached a terminal state and
    /// closes the endpoint, which ends the accept loop.
    fn shutdown(&self) {
        for h in self.jobs.lock().values() {
            if !h.state.is_terminal() {
                h.cancel.cancel();
            }
        }
        self.listener.close();
    }
}

/// A bound, not-yet-running server.
pub struct Server {
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
        self.inner.shutdown();
    }

    /// A stats snapshot, bypassing the wire protocol.
    pub fn stats(&self) -> ServerStats {
        self.inner.stats()
    }
}

impl Server {
    /// Binds the service at `addr` on `net` (TCP: port 0 lets the OS
    /// pick). A configured fleet is dialed over the same `net`.
    pub fn bind(
        net: Arc<dyn Transport>,
        addr: &str,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        // Register the serving metrics before any traffic, so a scrape
        // of an idle daemon already shows the full inventory at zero.
        let _ = serve_metrics();
        let invalid = |e: String| std::io::Error::new(std::io::ErrorKind::InvalidInput, e);
        let pool = SlotPool::new(config.map_slots, config.reduce_slots)
            .map_err(|e| invalid(e.to_string()))?;
        let fleet = match config.workers.is_empty() {
            true => None,
            false => Some(
                Fleet::connect(Arc::clone(&net), config.workers)
                    .map_err(|e| invalid(e.to_string()))?,
            ),
        };
        Ok(Server {
            inner: Arc::new(Inner {
                listener: net.listen(addr)?,
                pool,
                fleet,
                jobs: Mutex::new(BTreeMap::new()),
                next_job: AtomicU64::new(1),
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
    pub fn local_addr(&self) -> String {
        self.inner.listener.local_addr()
    }

    /// A control handle for shutting the server down from elsewhere.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Runs the accept loop until a `Shutdown` request (or
    /// [`ServerHandle::shutdown`]) closes the endpoint. Each connection
    /// gets a reader thread and a writer thread; each admitted job gets
    /// a worker thread.
    pub fn run(self) -> std::io::Result<()> {
        while let Some(conn) = self.inner.listener.accept() {
            let inner = Arc::clone(&self.inner);
            thread::spawn(move || handle_connection(inner, conn));
        }
        Ok(())
    }
}

/// One connection's outbound frames, each already encoded, drained by
/// its one writer thread — so frames of concurrent jobs interleave on
/// the socket without tearing, and a slow or half-open consumer holds
/// up nothing but its own queue, never a reduce slot.
#[derive(Default)]
struct Outbox {
    state: Mutex<OutboxState>,
    ready: Condvar,
}

#[derive(Default)]
struct OutboxState {
    frames: VecDeque<Vec<u8>>,
    /// A write failed: the consumer is gone, and every later frame is
    /// dropped. That is the whole of hang-up tolerance.
    closed: bool,
    /// The reader has ended: no request will admit another job.
    reader_done: bool,
    /// Jobs admitted here whose terminal frame is not enqueued yet.
    open_jobs: usize,
}

impl Outbox {
    /// Enqueues one encoded frame, unless the consumer is gone; a job's
    /// terminal frame (`ends_job`) also settles that job.
    fn push(&self, payload: Vec<u8>, ends_job: bool) {
        self.update(|st| {
            st.open_jobs -= usize::from(ends_job);
            if !st.closed {
                st.frames.push_back(payload);
            }
        });
    }

    fn reply(&self, resp: &Response) {
        self.push(json(resp), false);
    }

    fn update(&self, f: impl FnOnce(&mut OutboxState)) {
        f(&mut self.state.lock());
        self.ready.notify_all();
    }

    fn is_closed(&self) -> bool {
        self.state.lock().closed
    }
}

/// A response as frame payload.
fn json(resp: &Response) -> Vec<u8> {
    let text = frame::to_json(resp).expect("a Response always serializes");
    text.into_bytes()
}

/// One connection: the handshake, then a reader loop on this thread, a
/// writer thread draining the [`Outbox`], and a detached thread per
/// admitted job.
fn handle_connection(inner: Arc<Inner>, mut conn: Conn) {
    // The first frame must be a [`Hello`]. As everywhere on this
    // socket, anything else — garbage, or a well-formed `Request` sent
    // without a handshake — draws a protocol `Error` frame before the
    // connection closes, never a silent hang-up.
    match frame::recv::<Hello>(&mut conn) {
        Ok(Some(hello)) => {
            // A version or magic mismatch gets no reply at all: the
            // dialer reads the close as the refusal.
            if frame::handshake_accept(&mut conn, &hello, Role::Coordinator).is_err() {
                return;
            }
        }
        Ok(None) => return,
        Err(e @ FrameError::Oversized { .. })
        | Err(e @ FrameError::Malformed(_))
        | Err(e @ FrameError::VersionMismatch { .. }) => {
            let message = e.to_string();
            if frame::send(&mut conn, &Response::Error { message }).is_ok() {
                serve_metrics().frames_out.inc();
            }
            return;
        }
        Err(_) => return,
    }

    let (mut reader, writer) = conn.split();
    let out = Arc::new(Outbox::default());
    let (writer_inner, writer_out) = (Arc::clone(&inner), Arc::clone(&out));
    let writer = thread::spawn(move || write_loop(&writer_inner, &writer_out, writer));

    loop {
        match frame::recv::<Request>(&mut reader) {
            Ok(Some(req)) => {
                serve_metrics().frames_in.inc();
                if !handle_request(&inner, req, &out) {
                    break;
                }
            }
            // Clean disconnect: the jobs admitted here keep running
            // (hang-up tolerance); we just leave.
            Ok(None) => break,
            Err(FrameError::Io(_)) | Err(FrameError::Truncated { .. }) => break,
            // The stream cannot be resynchronized after a bad length
            // or bad payload; a mid-stream `Hello` is equally
            // unexpected. Report and close.
            Err(e @ FrameError::Oversized { .. })
            | Err(e @ FrameError::Malformed(_))
            | Err(e @ FrameError::VersionMismatch { .. }) => {
                out.reply(&Response::Error {
                    message: e.to_string(),
                });
                break;
            }
        }
    }
    out.update(|st| st.reader_done = true);
    let _ = writer.join();
}

/// Writes the outbox to the socket, accounting streamed bytes, until
/// the reader has ended and every job admitted here has sent its
/// terminal frame — or a write fails. Each frame leaves in one
/// vectored write (`write_frame`); a keyblock's bytes pass through
/// untouched.
fn write_loop(inner: &Inner, out: &Outbox, mut w: impl Write) {
    loop {
        let next = wait_until(&out.ready, &mut out.state.lock(), None, |st| {
            match st.frames.pop_front() {
                Some(payload) => Some(Some(payload)),
                None => (st.reader_done && st.open_jobs == 0).then_some(None),
            }
        });
        let Some(payload) = next else {
            return;
        };
        if frame::write_frame(&mut w, &payload).is_err() {
            out.update(|st| {
                st.closed = true;
                st.frames.clear();
            });
            return;
        }
        serve_metrics().frames_out.inc();
        if binframe::is_binary(&payload) {
            let n = payload.len() as u64;
            inner.bytes_streamed.fetch_add(n, Ordering::Relaxed);
            serve_metrics().streamed_bytes.add(n);
        }
    }
}

/// Dispatches one request; returns false when the connection (or the
/// whole server) should wind down.
fn handle_request(inner: &Arc<Inner>, req: Request, out: &Arc<Outbox>) -> bool {
    match req {
        Request::Submit {
            spec,
            input,
            options,
        } => admit(inner, spec, input, options, out),
        Request::Cancel { job } => match inner.jobs.lock().get(&job) {
            Some(h) => h.cancel.cancel(),
            None => out.reply(&Response::Error {
                message: format!("unknown job id {job}"),
            }),
        },
        Request::Stats => out.reply(&Response::Stats {
            stats: inner.stats(),
        }),
        Request::Metrics => out.reply(&Response::Metrics {
            text: sidr_obs::render_global(),
        }),
        Request::Shutdown => {
            inner.shutdown();
            return false;
        }
    }
    true
}

/// The admission pre-flight (§3.2.1 meets the static verifier): the
/// spec is analyzed *before* anything is scheduled, and a plan with
/// error-severity findings never reaches the pool.
fn admit(
    inner: &Arc<Inner>,
    spec: JobSpec,
    input: String,
    options: SubmitOptions,
    out: &Arc<Outbox>,
) {
    let report = match analyze_spec(&spec, &AnalyzeOptions::default()) {
        Ok(r) => r,
        Err(e) => {
            serve_metrics().rejections.inc();
            out.reply(&Response::Rejected {
                reason: format!("pre-flight could not analyze the spec: {e}"),
                diagnostics: Vec::new(),
            });
            return;
        }
    };
    if report.has_errors() {
        serve_metrics().rejections.inc();
        out.reply(&Response::Rejected {
            reason: "admission pre-flight found plan errors".into(),
            diagnostics: report
                .diagnostics
                .iter()
                .filter(|d| d.severity == Severity::Error)
                .map(|d| d.to_string())
                .collect(),
        });
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
    out.update(|st| st.open_jobs += 1);
    out.reply(&Response::Accepted {
        job,
        keyblocks: spec.num_reducers,
        num_maps: spec.splits.len(),
    });

    let (inner, out) = (Arc::clone(inner), Arc::clone(out));
    thread::spawn(move || {
        let end = run_admitted_job(&inner, job, &spec, &input, &options, &cancel, &out);
        out.push(json(&end), true);
    });
}

/// One admitted job, end to end: open the input, execute on the
/// shared pool streaming each keyblock as it commits. Returns the
/// terminal frame, its state already recorded. A vanished client mutes
/// the stream; the job still completes into the lifetime counters.
fn run_admitted_job(
    inner: &Inner,
    job: u64,
    spec: &JobSpec,
    input: &str,
    options: &SubmitOptions,
    cancel: &CancelToken,
    out: &Outbox,
) -> Response {
    inner.set_state(job, JobState::Planning);
    let file = match ScincFile::open(input) {
        Ok(f) => f,
        Err(e) => {
            inner.set_state(job, JobState::Failed);
            return Response::Failed {
                job,
                error: format!("cannot open input {input:?}: {e}"),
            };
        }
    };

    let opts = SpecRunOptions {
        priority_region: options.priority_region.clone(),
        filter_pushdown: options.filter_pushdown,
        fault_plan: options.fault_plan.clone(),
        ..SpecRunOptions::default()
    };

    let stream = KeyblockStream {
        inner,
        job,
        start: time::now(),
        out,
        keyblocks: AtomicU64::new(0),
        records: AtomicU64::new(0),
    };

    inner.set_state(job, JobState::Running);

    // Same scheduler either way; only where attempts execute differs.
    // In coordinator mode each attempt is dispatched to the fleet
    // through the engine's `TaskExecutor` seam.
    let result = match &inner.fleet {
        Some(fleet) => {
            // Each reduce checks the tally the engine hands it.
            let exec_opts = ExecOptions {
                filter_pushdown: options.filter_pushdown,
                fault_plan: options.fault_plan.clone(),
                ..ExecOptions::default()
            };
            match fleet.prepare_job(spec, input, &exec_opts) {
                Ok(remote) => {
                    let r = run_spec_with_executor(
                        spec,
                        &opts,
                        &stream,
                        &inner.pool,
                        Some(cancel),
                        &remote,
                    );
                    remote.finish();
                    r
                }
                Err(e) => Err(sidr_core::SidrError::Engine(e)),
            }
        }
        None => run_spec_on_pool(&file, spec, &opts, &stream, &inner.pool, Some(cancel)),
    };

    let (state, end) = match result {
        Ok(job_result) => (
            JobState::Done,
            Response::Done {
                job,
                keyblocks: spec.num_reducers,
                records: stream.records.load(Ordering::Relaxed),
                events: job_result.events,
            },
        ),
        Err(sidr_core::SidrError::Engine(MrError::DeadlineExceeded { deadline_ms })) => (
            JobState::DeadlineExceeded,
            Response::DeadlineExceeded { job, deadline_ms },
        ),
        Err(sidr_core::SidrError::Engine(MrError::Cancelled)) => {
            (JobState::Cancelled, Response::Cancelled { job })
        }
        Err(e) => (
            JobState::Failed,
            Response::Failed {
                job,
                error: e.to_string(),
            },
        ),
    };
    inner.set_state(job, state);
    end
}

/// One job's output path. `commit` stamps the keyblock, encodes its
/// `KeyblockBin` frame once into an exact-size buffer and enqueues it
/// on the submitting connection; the records themselves are dropped.
/// A connection that is gone drops the frame and nothing else. A
/// keyblock the frame cannot carry fails the commit and thereby the
/// job, with the reason.
struct KeyblockStream<'a> {
    inner: &'a Inner,
    job: u64,
    start: Instant,
    out: &'a Outbox,
    keyblocks: AtomicU64,
    records: AtomicU64,
}

impl OutputCollector<Coord, f64> for KeyblockStream<'_> {
    fn commit(&self, reducer: usize, records: Vec<(Coord, f64)>) -> sidr_mapreduce::Result<()> {
        // Mutation hook: the hang-up tolerance above, undone.
        if chaos::on(Mutation::HangUpFailsCommit) && self.out.is_closed() {
            return Err(MrError::Output("the client hung up".into()));
        }
        // Measured from job start: the paper's time-to-first-result,
        // as served.
        let at = time::now() - self.start;
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
        self.out.push(bin, false);
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
