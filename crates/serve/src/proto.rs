//! Messages exchanged between `sidr-submit` and `sidr-serve`.
//!
//! The submission payload is the [`JobSpec`] itself — byte-for-byte
//! the document `sidr plan --spec` writes and `sidr-lint --spec`
//! verifies — so the planner, the linter and the server share one
//! wire contract (guarded by the round-trip tests in
//! `crates/core/tests/spec_wire.rs`).
//!
//! Streaming model: one [`Request::Submit`] yields an
//! [`Response::Accepted`] (or `Rejected`), then a keyblock frame *per
//! reduce commit, the moment it commits* — §3.4's early, correct
//! results crossing the wire while the job's remaining maps are still
//! running — and finally exactly one terminal frame (`Done`, `Failed`
//! or `Cancelled`). Frames of concurrent jobs on the same connection
//! interleave; every per-job frame carries its job id.
//!
//! A keyblock is the one message that is not JSON on the wire: the
//! server sends it as a [`KeyblockBin`](crate::binframe::KeyblockBin)
//! frame and [`Client`](crate::client::Client) decodes it into
//! [`Response::Keyblock`], which the server itself never serializes.

use serde::{Deserialize, Serialize};

use sidr_coords::{Coord, Slab};
use sidr_core::spec::JobSpec;
use sidr_mapreduce::{FaultPlan, TaskEvent};

use crate::fleet::WorkerStat;

/// Per-submission execution knobs. The §3.2.1 annotation check is
/// not one: every reduce checks the tally the job's plan promises.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct SubmitOptions {
    /// Keyblocks covering this region of `K′` are scheduled first
    /// (§3.4 computational steering); overrides the spec's stored
    /// reduce order.
    pub priority_region: Option<Slab>,
    /// Push a `Filter` operator's predicate below the shuffle.
    pub filter_pushdown: bool,
    /// Chaos hook: a deterministic fault script injected into the run
    /// (empty plan = none). Lets clients exercise the retry and
    /// dependency-scoped recovery machinery end to end, and slow
    /// chosen maps down (`FaultKind::Straggle`) so a job stays in
    /// flight.
    pub fault_plan: FaultPlan,
}

/// Client → server.
// A `Request` is decoded once per frame and immediately consumed, so
// the `Submit` variant's size is irrelevant; boxing the spec would
// complicate the derive for no win.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum Request {
    /// Submit a job: the spec, the server-side path of the `.scinc`
    /// input it runs against, and execution options.
    Submit {
        spec: JobSpec,
        input: String,
        options: SubmitOptions,
    },
    /// Request cancellation of a job (any connection may cancel any
    /// job; the terminal `Cancelled` frame goes to the submitter).
    Cancel { job: u64 },
    /// Request a [`ServerStats`] snapshot.
    Stats,
    /// Request the process's full metric registry as Prometheus text
    /// exposition (a scrape over the job protocol).
    Metrics,
    /// Stop accepting connections and cancel outstanding jobs.
    Shutdown,
}

/// Server → client.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum Response {
    /// The submission passed the admission pre-flight and is queued.
    Accepted {
        job: u64,
        keyblocks: usize,
        num_maps: usize,
    },
    /// The admission pre-flight found errors; nothing was scheduled.
    Rejected {
        reason: String,
        diagnostics: Vec<String>,
    },
    /// One keyblock's complete, final output — sent the moment its
    /// reduce committed, while the job may still be mapping. The
    /// decoded form of a `KeyblockBin` frame (see the module docs).
    Keyblock {
        job: u64,
        reducer: usize,
        /// Milliseconds from job start to this commit.
        at_ms: u64,
        records: Vec<(Coord, f64)>,
    },
    /// Terminal: the job completed; every keyblock was streamed.
    Done {
        job: u64,
        keyblocks: usize,
        records: u64,
        /// The engine's task timeline, so clients can verify early
        /// delivery (first `ReduceEnd` before the last `MapEnd`).
        events: Vec<TaskEvent>,
    },
    /// Terminal: the job failed.
    Failed { job: u64, error: String },
    /// Terminal: the job observed its cancel token and stopped.
    Cancelled { job: u64 },
    /// Terminal: the job was still running at its spec'd deadline and
    /// the engine abandoned it. Keyblocks already streamed remain
    /// valid, final results (§3.4).
    DeadlineExceeded {
        job: u64,
        /// The deadline that expired, milliseconds.
        deadline_ms: u64,
    },
    /// A stats snapshot (reply to [`Request::Stats`]).
    Stats { stats: ServerStats },
    /// Prometheus text exposition (reply to [`Request::Metrics`]).
    Metrics { text: String },
    /// Protocol-level error (malformed frame, unknown job id, …).
    Error { message: String },
}

/// A point-in-time view of the server, §4-style observability for the
/// shared pool.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServerStats {
    /// Jobs admitted but not yet running (queued or planning).
    pub jobs_queued: usize,
    /// Jobs currently executing on the pool.
    pub jobs_running: usize,
    /// Lifetime completions.
    pub jobs_done: u64,
    pub jobs_failed: u64,
    pub jobs_cancelled: u64,
    /// Jobs abandoned at their spec'd deadline.
    pub jobs_deadline_exceeded: u64,
    /// Map slots in use / total across all jobs.
    pub map_busy: usize,
    pub map_total: usize,
    /// Reduce slots in use / total across all jobs.
    pub reduce_busy: usize,
    pub reduce_total: usize,
    /// Lifetime keyblocks committed across all jobs.
    pub keyblocks_committed: u64,
    /// Lifetime payload bytes streamed to clients.
    pub bytes_streamed: u64,
    /// The worker fleet, one entry per configured worker (empty when
    /// the server executes in-process). `default` keeps the frame
    /// readable by stats clients of either era.
    #[serde(default)]
    pub workers: Vec<WorkerStat>,
}
