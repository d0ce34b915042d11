//! A Hadoop-like MapReduce engine, built from scratch as the execution
//! substrate for the SIDR reproduction.
//!
//! The engine reproduces the pieces of Hadoop 1.0's architecture that
//! the paper's claims are about (§2.3):
//!
//! * **Input splits** ([`split`]) — byte-range-style naive splits
//!   (stock Hadoop) and logical-coordinate, extraction-aligned splits
//!   (SciHadoop, §2.4.1),
//! * **Record sources** and the key/value bounds ([`task`]),
//! * **Partitioner** ([`partitioner`]) — including Hadoop's
//!   modulo-of-the-binary-representation default whose skew pathology
//!   §4.3 demonstrates,
//! * **Shuffle** ([`shuffle`]) — per-(map, reducer) output files with
//!   count annotations (§3.2.1) and the streaming sort-merge,
//! * **Keyblocks** ([`keyblock`]) — a reduce attempt's whole output as
//!   packed rows, in the layout a `KeyblockBin` frame carries,
//! * **Task execution** ([`executor`]) — the seam the scheduler hands
//!   attempts through: the map/reduce attempt bodies, the in-process
//!   executor with its one table of SMOF-encoded map generations, and
//!   the trait a worker fleet implements,
//! * **Barrier & scheduling policy** ([`plan`]) — the global MapReduce
//!   barrier, or per-reducer dependency barriers with SIDR's inverted
//!   reduce-first scheduling (§3.2–3.3),
//! * **The scheduling decisions** ([`schedule`]) — §3.3 eligibility,
//!   §3.4 launch order and the §3.2 barrier as plain data,
//! * **One coordinator loop per job** ([`runtime`]) — it owns the
//!   schedule and runs retries, speculation, deadlines and recovery on
//!   its timers, over slot-limited ([`slots`]) threads or, in
//!   the `sidr-simcluster` model, a virtual clock; it records the job's
//!   events and returns them with its counters ([`counters`]) as one
//!   [`JobResult`] ([`timeline`]), once they pass the protocol check
//!   ([`protocol`]), with per-dispatch connection accounting (Table 3).
//!
//! The SIDR-specific planner (partition+, dependency derivation,
//! keyblock prioritization) lives in the `sidr-core` crate and hands
//! the engine one plain [`JobPlan`] value; this crate provides the
//! general, SIDR-agnostic machinery plus the stock-Hadoop plan
//! ([`JobPlan::global`]).

pub mod counters;
mod crc;
pub mod error;
pub mod executor;
pub mod fault;
pub mod keyblock;
pub mod metrics;
pub mod output;
pub mod partitioner;
pub mod plan;
pub mod protocol;
pub mod runtime;
pub mod schedule;
pub mod shuffle;
pub mod shuffle_file;
pub mod slots;
pub mod smof3;
pub mod speculation;
pub mod split;
pub mod sync;
pub mod task;
pub mod tier;
pub mod timeline;
pub mod timers;
pub mod wire;

pub use counters::CountersSnapshot;
pub use error::MrError;
pub use executor::{
    begin_map_attempt, injected_source_error, open_sources, run_job_with_executor,
    run_reduce_attempt, AttemptBodies, Cluster, Done, InProcessExecutor, MapAttemptOutput,
    MapTally, ReduceSource, RemoteReduceError, TaskExecutor,
};
pub use fault::{Fault, FaultKind, FaultPlan, FaultTarget, RetryPolicy};
pub use keyblock::{Keyblock, KEYBLOCK_HEADROOM};
pub use output::{InMemoryOutput, OutputCollector};
pub use partitioner::{CoordHashPartitioner, ModuloPartitioner, Partitioner};
pub use plan::JobPlan;
pub use protocol::{ProtocolViolation, TimelineOracle};
pub use runtime::{coordinate, JobConfig};
pub use shuffle::{GroupBatch, MapOutputFile, MergeIter};
pub use slots::{CancelToken, Inbox, Semaphore, SlotOccupancy, SlotPool, Wake};
pub use smof3::Smof3View;
pub use speculation::SpeculationPolicy;
pub use split::{InputSplit, MapTaskId, SplitGenerator};
pub use task::{MrKey, MrValue, RecordSource};
pub use tier::{PartitionStore, SpillBackend, TierConfig, TierPressure};
pub use timeline::{reexecuted_maps, JobResult, TaskEvent, TaskKind};
pub use wire::FixedCodec;
pub use wire::WireFormat;

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, MrError>;
