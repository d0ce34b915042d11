//! `sidr-serve` — a multi-tenant structural-query service with
//! streaming early results.
//!
//! The paper's runtime contributions compose into a long-running
//! service here:
//!
//! * **one shared slot pool** (§3.3): every admitted job is scheduled by
//!   `run_job_with_executor` on one cluster-wide [`SlotPool`](sidr_mapreduce::SlotPool), so map/reduce
//!   capacity is bounded across tenants, with inverted scheduling
//!   intact — in-flight reduces, not idle ones, gate map eligibility;
//! * **admission pre-flight**: submissions are `sidr-analyze`d before
//!   anything is scheduled; error findings reject the job at the door;
//! * **early correct results over the wire** (§3.4, §5): every
//!   keyblock streams back as a frame the moment its reduce commits,
//!   while the job's remaining maps are still running;
//! * **computational steering** (§3.4): a client-supplied priority
//!   region reorders the reduce schedule per submission.
//!
//! The wire protocol is length-prefixed frames ([`frame`]), JSON for
//! every message except a keyblock; the submission payload is the same
//! [`JobSpec`](sidr_core::spec::JobSpec) document `sidr plan --spec`
//! writes and `sidr-lint --spec` verifies. A keyblock crosses every
//! socket — worker → coordinator and coordinator → client — as one
//! packed [`KeyblockBin`] frame ([`binframe`]).
//!
//! ```no_run
//! use sidr_serve::{Client, Server, ServerConfig, SubmitOptions};
//!
//! let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
//! let addr = server.local_addr().unwrap();
//! std::thread::spawn(move || server.run());
//!
//! let mut client = Client::connect(addr).unwrap();
//! # let spec: sidr_core::spec::JobSpec = todo!();
//! let ticket = client.submit(&spec, "/data/temperature.scinc",
//!     SubmitOptions::default()).unwrap();
//! client.stream_job(ticket.job, |reducer, at_ms, records| {
//!     println!("keyblock {reducer} final after {at_ms} ms: {} records",
//!         records.len());
//! }).unwrap();
//! ```

pub mod binframe;
pub mod client;
pub mod fleet;
pub mod frame;
pub mod metrics;
pub mod proto;
pub mod server;
pub mod transport;

pub use binframe::KeyblockBin;
pub use client::{Client, JobOutcome, ServeError, Ticket};
pub use fleet::{
    Fleet, PartitionStatus, RemoteJob, SourceLoc, WorkerConn, WorkerRequest, WorkerResponse,
    WorkerStat,
};
pub use frame::{
    handshake_accept, handshake_dial, FrameError, Hello, Role, HELLO_MAGIC, MAX_FRAME,
    PROTOCOL_VERSION,
};
pub use proto::{Request, Response, ServerStats, SubmitOptions};
pub use server::{JobState, Server, ServerConfig, ServerHandle};
pub use transport::{Mem, Tcp, Transport};
