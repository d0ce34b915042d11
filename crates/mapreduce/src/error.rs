//! Error type for the MapReduce engine.

use std::fmt;

use sidr_coords::CoordError;

/// Errors surfaced by job planning and execution.
#[derive(Debug)]
pub enum MrError {
    /// Geometry inconsistency during split generation or routing.
    Coord(CoordError),
    /// A job was configured inconsistently.
    BadConfig(String),
    /// The record source failed (I/O or format error from the
    /// scientific file layer).
    Source(String),
    /// A user task (map/combine/reduce) panicked or failed; the
    /// runtime reports the task and the cause. Emitted only once a
    /// task has exhausted its retry budget — transient failures are
    /// retried by the runtime first.
    TaskFailed { task: String, cause: String },
    /// A shuffle file failed its integrity check (CRC mismatch, bad
    /// framing, truncation). Detected at fetch time, so the copy
    /// phase can re-execute the producing map instead of reducing
    /// over wrong bytes.
    CorruptShuffle { detail: String },
    /// Annotation validation (§3.2.1 approach 2) detected that a
    /// Reduce task would have started with insufficient input.
    AnnotationMismatch {
        reducer: usize,
        expected: u64,
        actual: u64,
    },
    /// Output collection failed.
    Output(String),
    /// The job was cancelled through its `CancelToken` before it
    /// completed (serving path: client cancel or admission revoke).
    Cancelled,
    /// The job was still running when its `JobConfig::deadline`
    /// expired; the engine abandoned the remainder. Output already
    /// committed stays valid.
    DeadlineExceeded { deadline_ms: u64 },
    /// The job ran to its end, but its timeline broke the runtime's
    /// protocol ([`TimelineOracle`](crate::TimelineOracle)).
    Protocol(crate::ProtocolViolation),
}

impl fmt::Display for MrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MrError::Coord(e) => write!(f, "coordinate error: {e}"),
            MrError::BadConfig(msg) => write!(f, "bad job config: {msg}"),
            MrError::Source(msg) => write!(f, "record source error: {msg}"),
            MrError::TaskFailed { task, cause } => write!(f, "task {task} failed: {cause}"),
            MrError::CorruptShuffle { detail } => {
                write!(f, "corrupt shuffle data: {detail}")
            }
            MrError::AnnotationMismatch {
                reducer,
                expected,
                actual,
            } => write!(
                f,
                "reducer {reducer} annotation tally {actual} != expected {expected}: \
                 reduce would start on insufficient input"
            ),
            MrError::Output(msg) => write!(f, "output error: {msg}"),
            MrError::Cancelled => write!(f, "job cancelled"),
            MrError::DeadlineExceeded { deadline_ms } => {
                write!(f, "job deadline of {deadline_ms} ms exceeded")
            }
            MrError::Protocol(v) => write!(f, "{v}"),
        }
    }
}

impl std::error::Error for MrError {}

impl From<CoordError> for MrError {
    fn from(e: CoordError) -> Self {
        MrError::Coord(e)
    }
}
