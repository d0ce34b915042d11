//! Client side of the serving protocol: what `sidr-submit` (and the
//! integration tests) speak.
//!
//! Frames for different jobs interleave on one connection, so the
//! client keeps a small pending queue: request/reply helpers
//! ([`Client::stats`], [`Client::submit`]) stash frames they are not
//! waiting for, and [`Client::next_response`] drains the stash before
//! touching the socket again. Nothing is dropped, whatever order the
//! server emits.

use std::collections::VecDeque;

use sidr_core::spec::JobSpec;
use sidr_mapreduce::TaskEvent;

use crate::binframe;
use crate::frame::{self, FrameError, Role};
use crate::proto::{Request, Response, ServerStats, SubmitOptions};
use crate::transport::{Conn, Tcp, Transport};

/// Client-visible failures.
#[derive(Debug)]
pub enum ServeError {
    /// Transport or framing failure.
    Frame(FrameError),
    /// The server closed the connection mid-conversation.
    Disconnected,
    /// The server rejected the submission at admission.
    Rejected {
        reason: String,
        diagnostics: Vec<String>,
    },
    /// The server reported a protocol error.
    Protocol(String),
    /// The job reached a terminal `Failed` frame.
    JobFailed(String),
    /// The job's spec'd deadline expired and the engine abandoned the
    /// remainder; keyblocks streamed before the cut-off are valid,
    /// final results.
    DeadlineExceeded { job: u64, deadline_ms: u64 },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Frame(e) => write!(f, "{e}"),
            ServeError::Disconnected => write!(f, "server closed the connection"),
            ServeError::Rejected {
                reason,
                diagnostics,
            } => {
                write!(f, "submission rejected: {reason}")?;
                for d in diagnostics {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
            ServeError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ServeError::JobFailed(msg) => write!(f, "job failed: {msg}"),
            ServeError::DeadlineExceeded { job, deadline_ms } => {
                write!(f, "job {job} exceeded its {deadline_ms} ms deadline")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<FrameError> for ServeError {
    fn from(e: FrameError) -> Self {
        ServeError::Frame(e)
    }
}

/// Whether a frame belongs to `job`'s stream (protocol errors belong
/// to everyone).
fn concerns_job(resp: &Response, job: u64) -> bool {
    match resp {
        Response::Keyblock { job: j, .. }
        | Response::Done { job: j, .. }
        | Response::Failed { job: j, .. }
        | Response::Cancelled { job: j }
        | Response::DeadlineExceeded { job: j, .. } => *j == job,
        Response::Error { .. } => true,
        _ => false,
    }
}

/// An accepted submission.
#[derive(Clone, Copy, Debug)]
pub struct Ticket {
    pub job: u64,
    pub keyblocks: usize,
    pub num_maps: usize,
}

/// A completed (or cancelled) streamed job.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    pub job: u64,
    /// Terminal state: `true` only for a clean `Done`.
    pub completed: bool,
    /// Total records the server committed (terminal frame's count).
    pub records: u64,
    /// Engine task timeline of the run (empty when cancelled).
    pub events: Vec<TaskEvent>,
}

/// One connection to a `sidr-serve` daemon.
pub struct Client {
    conn: Conn,
    pending: VecDeque<Response>,
}

impl Client {
    /// Dials the server at `addr` on `net`. The version/role handshake
    /// runs before any request: a mismatched build pair (or a worker
    /// port dialed by mistake) fails here with a typed reason instead
    /// of deserialization garbage.
    pub fn dial(net: &dyn Transport, addr: &str) -> std::io::Result<Client> {
        let mut conn = net.dial(addr, None)?;
        frame::handshake_dial(&mut conn, Role::Client, Role::Coordinator)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        Ok(Client {
            conn,
            pending: VecDeque::new(),
        })
    }

    /// [`Client::dial`] over TCP.
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        Client::dial(&Tcp, addr)
    }

    /// Alias of [`Client::connect`]. Pinned by `benchmark/src/sut.rs`
    /// (frozen); ROADMAP item 7(a) deletes it.
    pub fn connect_binary(addr: &str) -> std::io::Result<Client> {
        Client::connect(addr)
    }

    /// Always `true`: every keyblock is a `KeyblockBin` frame. Pinned
    /// by `benchmark/src/sut.rs` (frozen); ROADMAP item 7(a) deletes it.
    pub fn is_binary(&self) -> bool {
        true
    }

    fn send(&mut self, req: &Request) -> Result<(), ServeError> {
        frame::send(&mut self.conn, req).map_err(ServeError::from)
    }

    fn recv(&mut self) -> Result<Response, ServeError> {
        let Some(payload) = frame::read_frame(&mut self.conn)? else {
            return Err(ServeError::Disconnected);
        };
        if binframe::is_binary(&payload) {
            let kb = binframe::decode_keyblock(&payload)?;
            return Ok(Response::Keyblock {
                job: kb.job,
                reducer: kb.reducer,
                at_ms: kb.at_ms,
                records: kb.records,
            });
        }
        frame::decode_json(&payload).map_err(ServeError::from)
    }

    /// The next server frame: pending queue first, then the socket.
    pub fn next_response(&mut self) -> Result<Response, ServeError> {
        if let Some(resp) = self.pending.pop_front() {
            return Ok(resp);
        }
        self.recv()
    }

    /// Submits a job and waits for its admission verdict. Frames that
    /// belong to other in-flight jobs are queued, not lost.
    pub fn submit(
        &mut self,
        spec: &JobSpec,
        input: &str,
        options: SubmitOptions,
    ) -> Result<Ticket, ServeError> {
        self.send(&Request::Submit {
            spec: spec.clone(),
            input: input.to_string(),
            options,
        })?;
        loop {
            match self.recv()? {
                Response::Accepted {
                    job,
                    keyblocks,
                    num_maps,
                } => {
                    return Ok(Ticket {
                        job,
                        keyblocks,
                        num_maps,
                    })
                }
                Response::Rejected {
                    reason,
                    diagnostics,
                } => {
                    return Err(ServeError::Rejected {
                        reason,
                        diagnostics,
                    })
                }
                Response::Error { message } => return Err(ServeError::Protocol(message)),
                other => self.pending.push_back(other),
            }
        }
    }

    /// Consumes one job's stream to its terminal frame, invoking
    /// `on_keyblock` for every early result as it arrives. Frames of
    /// other jobs stay queued for their own consumers.
    pub fn stream_job(
        &mut self,
        job: u64,
        mut on_keyblock: impl FnMut(usize, u64, &[(sidr_coords::Coord, f64)]),
    ) -> Result<JobOutcome, ServeError> {
        loop {
            // Take a relevant frame out of the pending queue if one is
            // stashed; otherwise read the socket, stashing strangers.
            let resp = match self.pending.iter().position(|r| concerns_job(r, job)) {
                Some(pos) => self.pending.remove(pos).expect("position is in range"),
                None => {
                    let resp = self.recv()?;
                    if !concerns_job(&resp, job) {
                        self.pending.push_back(resp);
                        continue;
                    }
                    resp
                }
            };
            match resp {
                Response::Keyblock {
                    reducer,
                    at_ms,
                    records,
                    ..
                } => on_keyblock(reducer, at_ms, &records),
                Response::Done {
                    records, events, ..
                } => {
                    return Ok(JobOutcome {
                        job,
                        completed: true,
                        records,
                        events,
                    })
                }
                Response::Failed { error, .. } => return Err(ServeError::JobFailed(error)),
                Response::DeadlineExceeded { deadline_ms, .. } => {
                    return Err(ServeError::DeadlineExceeded { job, deadline_ms })
                }
                Response::Cancelled { .. } => {
                    return Ok(JobOutcome {
                        job,
                        completed: false,
                        records: 0,
                        events: Vec::new(),
                    })
                }
                Response::Error { message } => return Err(ServeError::Protocol(message)),
                _ => unreachable!("concerns_job admits only per-job and error frames"),
            }
        }
    }

    /// Requests cancellation of a job (possibly submitted elsewhere).
    pub fn cancel(&mut self, job: u64) -> Result<(), ServeError> {
        self.send(&Request::Cancel { job })
    }

    /// Fetches a stats snapshot.
    pub fn stats(&mut self) -> Result<ServerStats, ServeError> {
        self.send(&Request::Stats)?;
        loop {
            match self.recv()? {
                Response::Stats { stats } => return Ok(stats),
                Response::Error { message } => return Err(ServeError::Protocol(message)),
                other => self.pending.push_back(other),
            }
        }
    }

    /// Scrapes the server's metric registry: Prometheus text
    /// exposition covering the serving layer and the engine.
    pub fn metrics(&mut self) -> Result<String, ServeError> {
        self.send(&Request::Metrics)?;
        loop {
            match self.recv()? {
                Response::Metrics { text } => return Ok(text),
                Response::Error { message } => return Err(ServeError::Protocol(message)),
                other => self.pending.push_back(other),
            }
        }
    }

    /// Asks the server to stop accepting work and cancel outstanding
    /// jobs.
    pub fn shutdown(&mut self) -> Result<(), ServeError> {
        self.send(&Request::Shutdown)
    }
}
