//! The `sidr-serve` daemon: multi-tenant execution of structural
//! queries with streaming early results.
//!
//! One process owns one cluster-wide [`SlotPool`]; every admitted job
//! is scheduled on it concurrently by `run_job_with_executor` (attempts
//! run in-process, or on the fleet when one is configured), so the §3.3
//! slot-class bounds hold *across* jobs, not per job. Admission builds
//! and proves each submitted [`JobSpec`]'s plan with `sidr-analyze`
//! before anything is scheduled — a plan that would hang or answer
//! wrongly is rejected at the door with its diagnostics — and the job
//! runs the plan admission proved.
//!
//! Each job's output path is one collector (`KeyblockStream`): every
//! committed keyblock is stamped, sealed as one
//! [`KeyblockBin`](crate::binframe::KeyblockBin) frame in the buffer
//! its reduce wrote, and enqueued on the submitting connection the
//! moment its reduce finishes (§3.4/§5 early correct results). Nothing
//! is retained: a client that disconnects mid-stream mutes the stream
//! without failing the job — the job completes into the server's
//! lifetime counters.

use std::collections::{BTreeMap, VecDeque};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use sidr_analyze::{admit_spec, AnalyzeOptions};
use sidr_coords::Coord;
use sidr_core::diag::Severity;
use sidr_core::exec::{ExecOptions, SpecExecutor};
use sidr_core::spec::JobSpec;
use sidr_core::{SidrError, SidrPlan};
use sidr_mapreduce::sync::chaos::{self, Mutation};
use sidr_mapreduce::sync::{thread, time, wait_until, Condvar, Mutex};
use sidr_mapreduce::{
    run_job_with_executor, CancelToken, FaultPlan, InProcessExecutor, Keyblock, MrError,
    OutputCollector, SlotPool, TaskExecutor,
};
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
        JobState::Queued => Some(&m.jobs_queued),
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
    /// Admitted with its proved plan, waiting for its job thread.
    Queued,
    /// Opening its input and executing on the shared pool.
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

    /// The legal lifecycle edges, `Queued → Running → terminal`, and
    /// `Queued → Cancelled` for a job whose thread finds it cancelled
    /// before it starts. Terminal states have no successors; a job can
    /// only fail out of `Running` (input open or execution), and
    /// `DeadlineExceeded` is a refinement of cancellation so it too
    /// requires `Running`.
    pub fn can_transition(self, to: JobState) -> bool {
        use JobState::*;
        matches!(
            (self, to),
            (Queued, Running | Cancelled) | (Running, Done | Failed | Cancelled | DeadlineExceeded)
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
    /// The jobs that have not ended. Ordered, like every collection a
    /// handler walks: a seed of the fleet search replays only if the
    /// walk does.
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
    /// Moves `job` to `state`; a job that ends leaves the registry.
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
        if state.is_terminal() {
            jobs.remove(&job);
        }
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
            .filter(|h| h.state == JobState::Queued)
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

    /// Cancels every job in the registry — none has ended — and
    /// closes the endpoint, which ends the accept loop.
    fn shutdown(&self) {
        for h in self.jobs.lock().values() {
            h.cancel.cancel();
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
            // An id this server issued whose job has ended.
            None if job < inner.next_job.load(Ordering::Relaxed) => {}
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

/// Admission (§3.2.1 meets the static verifier): the spec's plan is
/// built — its keyblocks covering the submission's priority region
/// first — and proved *before* anything is scheduled; a plan with
/// error-severity findings never reaches the pool, and the plan that
/// passes is the one the job runs.
fn admit(
    inner: &Arc<Inner>,
    spec: JobSpec,
    input: String,
    options: SubmitOptions,
    out: &Arc<Outbox>,
) {
    let region = options.priority_region.as_ref();
    let (plan, report) = match admit_spec(&spec, region, &AnalyzeOptions::default()) {
        Ok(admitted) => admitted,
        Err(e) => {
            serve_metrics().rejections.inc();
            out.reply(&Response::Rejected {
                reason: format!("admission could not analyze the spec: {e}"),
                diagnostics: Vec::new(),
            });
            return;
        }
    };
    if report.has_errors() {
        serve_metrics().rejections.inc();
        out.reply(&Response::Rejected {
            reason: "admission found plan errors".into(),
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
        let stream = KeyblockStream {
            inner: &inner,
            job,
            start: time::now(),
            out: &out,
            keyblocks: AtomicU64::new(0),
            records: AtomicU64::new(0),
        };
        let end = run_admitted_job(&stream, &spec, &plan, &input, &options.fault_plan, &cancel);
        out.push(json(&end), true);
    });
}

/// One admitted job, end to end: the plan admission proved, through
/// the engine's one entry, with attempts on the fleet or in this
/// process, each keyblock streaming as it commits. Returns the terminal
/// frame, its state already recorded. A vanished client mutes the
/// stream; the job still completes into the lifetime counters.
fn run_admitted_job(
    stream: &KeyblockStream<'_>,
    spec: &JobSpec,
    plan: &SidrPlan,
    input: &str,
    fault_plan: &FaultPlan,
    cancel: &CancelToken,
) -> Response {
    let (inner, job) = (stream.inner, stream.job);
    // Cancelled while queued: ends without starting.
    if cancel.is_cancelled() {
        inner.set_state(job, JobState::Cancelled);
        return Response::Cancelled { job };
    }
    inner.set_state(job, JobState::Running);
    let config = spec.job_config(fault_plan.clone());
    let run = |executor: &dyn TaskExecutor<Coord, f64>| {
        run_job_with_executor(
            &spec.splits,
            &plan.job,
            stream,
            &config,
            &inner.pool,
            Some(cancel),
            executor,
        )
    };

    // Same scheduler either way; only where attempts execute differs.
    let result = match &inner.fleet {
        // Each attempt is dispatched to the fleet; a worker that cannot
        // open the input refuses the `Prepare` its first pick sends.
        Some(fleet) => {
            let exec_opts = ExecOptions {
                fault_plan: fault_plan.clone(),
                ..ExecOptions::default()
            };
            run(&fleet.prepare_job(spec, input, &exec_opts))
        }
        // The bodies a worker prepares, in this process.
        None => ScincFile::open(Path::new(input))
            .map_err(SidrError::from)
            .and_then(|file| SpecExecutor::of_plan(file, spec, plan))
            .map_err(|e| MrError::Source(format!("cannot open input {input:?}: {e}")))
            .and_then(|bodies| run(&InProcessExecutor::with_bodies(bodies, &config))),
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
        Err(MrError::DeadlineExceeded { deadline_ms }) => (
            JobState::DeadlineExceeded,
            Response::DeadlineExceeded { job, deadline_ms },
        ),
        Err(MrError::Cancelled) => (JobState::Cancelled, Response::Cancelled { job }),
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

/// One job's output path. A keyblock is stamped, sealed as its
/// `KeyblockBin` frame in the buffer the reduce wrote its rows into —
/// a worker's frame is restamped in place — and enqueued on the
/// submitting connection; no row is decoded or copied. A connection
/// that is gone drops the frame and nothing else. A keyblock the frame
/// cannot carry fails the commit and thereby the job, with the reason.
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
        let keyblock = Keyblock::from_records(&records).ok_or_else(|| {
            MrError::Output(format!(
                "reducer {reducer}'s keyblock mixes key widths; a KeyblockBin frame needs one"
            ))
        })?;
        self.commit_keyblock(reducer, keyblock)
    }

    fn commit_keyblock(
        &self,
        reducer: usize,
        keyblock: Keyblock<Coord, f64>,
    ) -> sidr_mapreduce::Result<()> {
        // Mutation hook: the hang-up tolerance above, undone.
        if chaos::on(Mutation::HangUpFailsCommit) && self.out.is_closed() {
            return Err(MrError::Output("the client hung up".into()));
        }
        // Measured from job start: the paper's time-to-first-result,
        // as served.
        let at = time::now() - self.start;
        let records = keyblock.len();
        let bin = binframe::seal_keyblock(self.job, reducer, at.as_millis() as u64, keyblock)
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
        self.records.fetch_add(records as u64, Ordering::Relaxed);
        self.out.push(bin, false);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Client, ServeError, Tcp};
    use sidr_core::SidrPlanner;
    use sidr_scifile::gen::DatasetSpec;
    use JobState::*;

    const ALL: [JobState; 6] = [Queued, Running, Done, Failed, Cancelled, DeadlineExceeded];

    #[test]
    fn transition_matrix_matches_the_documented_lifecycle() {
        let legal: &[(JobState, JobState)] = &[
            (Queued, Running),
            (Queued, Cancelled),
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

    /// A job cancelled while it is still queued ends `Queued →
    /// Cancelled` (an illegal edge trips `set_state`'s assertion)
    /// without opening its input: the input here does not exist, so a
    /// job that started would have failed instead.
    #[test]
    fn a_job_cancelled_while_queued_ends_without_running() {
        let job = sidr_analyze::presets::preset("query1-tiny").unwrap();
        let plan = SidrPlanner::new(&job.query, 4).build(&job.splits).unwrap();
        let spec = JobSpec::from_plan(&job.query, &job.splits, &plan).unwrap();
        let server = Server::bind(Arc::new(Tcp), "127.0.0.1:0", ServerConfig::default()).unwrap();
        let inner = &server.inner;
        let cancel = CancelToken::new();
        let handle = JobHandle {
            state: Queued,
            cancel: cancel.clone(),
        };
        inner.jobs.lock().insert(7, handle);
        cancel.cancel();
        let out = Outbox::default();
        let stream = KeyblockStream {
            inner,
            job: 7,
            start: time::now(),
            out: &out,
            keyblocks: AtomicU64::new(0),
            records: AtomicU64::new(0),
        };
        let none = FaultPlan::none();
        let end = run_admitted_job(&stream, &spec, &plan, "/nonexistent.scinc", &none, &cancel);
        assert!(matches!(end, Response::Cancelled { job: 7 }), "{end:?}");
        assert!(
            inner.jobs.lock().is_empty(),
            "the ended job stays registered"
        );
        let stats = inner.stats();
        assert_eq!((stats.jobs_cancelled, stats.jobs_failed), (1, 0));
        inner.shutdown();
    }

    /// A job that ends leaves the registry, so the daemon holds no
    /// entry for a served job; a late `Cancel` of its id draws no
    /// frame, while an id never issued still draws an `Error`.
    #[test]
    fn ended_jobs_leave_the_registry_and_a_late_cancel_is_silent() {
        let job = sidr_analyze::presets::preset("query1-tiny").unwrap();
        let plan = SidrPlanner::new(&job.query, 4).build(&job.splits).unwrap();
        let spec = JobSpec::from_plan(&job.query, &job.splits, &plan).unwrap();
        let path = std::env::temp_dir().join(format!("sidr-registry-{}.scinc", std::process::id()));
        let dataset = DatasetSpec::windspeed(job.query.input_space().clone(), 0);
        dataset.generate::<f32>(&path).unwrap();
        let input = path.to_string_lossy();
        let server = Server::bind(Arc::new(Tcp), "127.0.0.1:0", ServerConfig::default()).unwrap();
        let (addr, inner) = (server.local_addr(), Arc::clone(&server.inner));
        std::thread::spawn(move || server.run());
        let mut client = Client::connect(&addr).unwrap();
        let mut served = [0; 3];
        for id in &mut served {
            let ticket = client.submit(&spec, &input, SubmitOptions::default());
            *id = ticket.unwrap().job;
            client.stream_job(*id, |_, _, _| {}).unwrap();
        }
        // A job's end is recorded before its terminal frame is queued.
        assert!(inner.jobs.lock().is_empty(), "ended jobs stay registered");

        for job in served {
            client.cancel(job).unwrap();
        }
        // An `Error` frame ahead of the stats reply would fail this.
        assert_eq!(client.stats().unwrap().jobs_done, 3);
        client.cancel(served[2] + 1).unwrap();
        assert!(matches!(client.stats(), Err(ServeError::Protocol(_))));
        inner.shutdown();
        std::fs::remove_file(path).unwrap();
    }
}
