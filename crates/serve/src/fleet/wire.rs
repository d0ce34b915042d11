//! The coordinator ↔ worker wire protocol: requests, replies, the
//! worker's self-report, and the one framed connection both sides use.

use std::io::Write;
use std::time::Duration;

use serde::{Deserialize, Serialize};
use sidr_core::exec::ExecOptions;
use sidr_core::spec::JobSpec;

use crate::frame::{self, handshake_dial, FrameError, Role};
use crate::transport::{Conn, Transport};

/// One request on a coordinator→worker (or worker→worker fetch)
/// connection.
// A request is built, written to a socket and dropped — never held in
// bulk — so `Prepare` carrying its spec inline costs nothing worth a
// `Box` (which the offline serde shim does not serialize).
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum WorkerRequest {
    /// Liveness probe; answered with [`WorkerResponse::Pong`]. The
    /// worker applies its [`Roster`] first.
    Ping { roster: Roster },
    /// Installs a job on the worker: the spec (splits, routing
    /// promises), the input path (shared filesystem, like an HDFS
    /// mount) and the task-local execution options. The worker applies
    /// its [`Roster`], taken when the job was created, first.
    Prepare {
        roster: Roster,
        job: u64,
        spec: JobSpec,
        input: String,
        opts: ExecOptions,
    },
    /// Runs one map attempt; the worker keeps the committed
    /// partitions until a reduce that replied releases them or a
    /// [`Roster`] ends the job.
    RunMap { job: u64, task: usize, attempt: u32 },
    /// Runs one reduce attempt: fetch every source partition from its
    /// holder, merge/reduce, send the keyblock back whole, and only
    /// then release the sources. `sources` names produced partitions
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
}

/// The coordinator's jobs, as every `Ping` and `Prepare` tells a worker
/// of them: the one way a job's end reaches it. Ids only grow, and a job
/// is open from its id's issue until its executor drops, so a late or
/// resent roster can keep an ended job longer, never end a running one.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Roster {
    /// Names the coordinator: a worker that hears a new one drops
    /// every job of the last, which counts its jobs from 1 again.
    pub session: u64,
    /// The jobs issued and not yet ended, ascending.
    pub open: Vec<u64>,
    /// Every job id below this one has been issued.
    pub issued: u64,
}

impl Roster {
    /// Has `job` of this session ended?
    pub fn ends(&self, job: u64) -> bool {
        job < self.issued && !self.open.contains(&job)
    }
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
        /// `(reducer, rows)` of each partition from this attempt.
        partitions: Vec<(usize, u64)>,
    },
    /// The attempt succeeded; one raw frame follows, holding its whole
    /// keyblock (`emitted` records) in the
    /// [`crate::binframe::encode_keyblock`] layout.
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
    /// A task for a job this worker was never prepared for: it
    /// restarted since `Prepare` (a rejoined member, empty store).
    UnknownJob {
        job: u64,
    },
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

impl WorkerResponse {
    /// Does one raw frame follow this reply on the wire? The single
    /// statement of that protocol fact: [`send_reply`] and
    /// [`WorkerConn::request`] — hence every writer and reader of the
    /// protocol — ask here.
    pub fn carries_payload(&self) -> bool {
        matches!(
            self,
            WorkerResponse::ReduceDone { .. }
                | WorkerResponse::Partition {
                    status: PartitionStatus::Data
                }
        )
    }
}

/// Writes one reply: its JSON header, then `payload` as one raw frame
/// — present exactly when the reply [carries
/// one](WorkerResponse::carries_payload). Header and payload leave in
/// one gathered write: as two writes under Nagle, a keyblock smaller
/// than one segment sat behind the peer's delayed ACK of its header.
pub fn send_reply(
    w: &mut impl Write,
    reply: &WorkerResponse,
    payload: Option<&[u8]>,
) -> Result<(), FrameError> {
    if reply.carries_payload() != payload.is_some() {
        return Err(FrameError::Io(format!(
            "reply {reply:?} and its payload disagree"
        )));
    }
    let header = frame::to_json(reply)?;
    match payload {
        Some(bytes) => frame::write_frames(w, &[header.as_bytes(), bytes]),
        None => frame::write_frame(w, header.as_bytes()),
    }
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

/// A framed, handshaken connection to a worker — used by the
/// coordinator for dispatch and by workers for peer shuffle fetches
/// (which announce [`Role::Worker`] instead).
pub struct WorkerConn {
    conn: Conn,
}

impl WorkerConn {
    /// Dials a worker over `net`, announcing `ours` in the handshake.
    pub fn dial(
        net: &dyn Transport,
        addr: &str,
        ours: Role,
        timeout: Option<Duration>,
    ) -> Result<Self, FrameError> {
        let mut conn = net
            .dial(addr, timeout)
            .map_err(|e| FrameError::Io(e.to_string()))?;
        handshake_dial(&mut conn, ours, Role::Worker)?;
        Ok(WorkerConn { conn })
    }

    /// One request, its reply, and the raw frame after the reply when
    /// it [carries one](WorkerResponse::carries_payload) — a partition
    /// as SMOF bytes after `Partition`, a keyblock after `ReduceDone`.
    pub fn request(
        &mut self,
        req: &WorkerRequest,
    ) -> Result<(WorkerResponse, Option<Vec<u8>>), FrameError> {
        let hung_up = || FrameError::Io("worker closed the connection".into());
        frame::send(&mut self.conn, req)?;
        let reply: WorkerResponse = frame::recv(&mut self.conn)?.ok_or_else(hung_up)?;
        let payload = if reply.carries_payload() {
            Some(frame::read_frame(&mut self.conn)?.ok_or_else(hung_up)?)
        } else {
            None
        };
        Ok((reply, payload))
    }
}

/// A reply and the raw frame after it, if any.
pub(super) type Reply = (WorkerResponse, Option<Vec<u8>>);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binframe;
    use sidr_coords::Coord;

    /// A writer that counts the calls made into it — on a socket, each
    /// is one syscall and, under Nagle, one chance to be held back.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        calls: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn write_vectored(&mut self, bufs: &[std::io::IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            bufs.iter().for_each(|b| self.bytes.extend_from_slice(b));
            Ok(bufs.iter().map(|b| b.len()).sum())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Every reply — header plus payload, or header alone — is one
    /// write, and reads back frame by frame unchanged.
    #[test]
    fn every_reply_is_one_write() {
        let keyblock =
            binframe::encode_keyblock(7, 3, 0, &[(Coord::from([1, 2]), 0.5)]).expect("one rank");
        let partition = sidr_mapreduce::MapOutputFile {
            records: vec![(Coord::from([4, 5]), 1.5), (Coord::from([4, 6]), -2.0)],
            raw_count: 9,
        };
        let smof = sidr_mapreduce::shuffle_file::encode_map_output(&partition).expect("one rank");
        let done = WorkerResponse::ReduceDone {
            emitted: 1,
            fetch_ms: 2,
        };
        let data = WorkerResponse::Partition {
            status: PartitionStatus::Data,
        };
        let replies = [
            (done, Some(&keyblock[..])),
            (data, Some(&smof[..])),
            (WorkerResponse::Released, None),
        ];
        for (reply, payload) in replies {
            let mut w = CountingWriter::default();
            send_reply(&mut w, &reply, payload).unwrap();
            assert_eq!(w.calls, 1, "{reply:?} took {} writes", w.calls);
            let mut r = &w.bytes[..];
            let back: WorkerResponse = frame::recv(&mut r).unwrap().unwrap();
            assert_eq!(format!("{back:?}"), format!("{reply:?}"));
            let raw = if back.carries_payload() {
                frame::read_frame(&mut r).unwrap()
            } else {
                None
            };
            assert_eq!(raw.as_deref(), payload);
            assert!(r.is_empty(), "{} trailing bytes", r.len());
        }
    }
}
