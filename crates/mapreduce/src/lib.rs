//! A Hadoop-like MapReduce engine, built from scratch as the execution
//! substrate for the SIDR reproduction.
//!
//! The engine reproduces the pieces of Hadoop 1.0's architecture that
//! the paper's claims are about (§2.3):
//!
//! * **Input splits** ([`split`]) — byte-range-style naive splits
//!   (stock Hadoop) and logical-coordinate, extraction-aligned splits
//!   (SciHadoop, §2.4.1),
//! * **Map / Combine / Reduce** user functions ([`task`]),
//! * **Partitioner** ([`partitioner`]) — including Hadoop's
//!   modulo-of-the-binary-representation default whose skew pathology
//!   §4.3 demonstrates,
//! * **Shuffle** ([`shuffle`]) — per-(map, reducer) output files with
//!   count annotations (§3.2.1) and the streaming sort-merge,
//! * **Task execution** ([`executor`]) — the seam the scheduler hands
//!   attempts through: the map/reduce attempt bodies, the in-process
//!   executor with its one table of SMOF-encoded map generations, and
//!   the trait a worker fleet implements,
//! * **Barrier & scheduling policy** ([`plan`]) — the global MapReduce
//!   barrier, or per-reducer dependency barriers with SIDR's inverted
//!   reduce-first scheduling (§3.2–3.3),
//! * **The scheduling decisions** ([`schedule`]) — §3.3 eligibility,
//!   §3.4 launch order and the §3.2 barrier as plain data, shared
//!   with the `sidr-simcluster` model,
//! * **A threaded driver** ([`runtime`]) — slot-limited ([`slots`])
//!   map/reduce worker threads around one schedule, with retries,
//!   speculation and recovery, per-dispatch connection accounting
//!   (Table 3), task timelines ([`timeline`]) and counters
//!   ([`counters`]).
//!
//! The SIDR-specific planner (partition+, dependency derivation,
//! keyblock prioritization) lives in the `sidr-core` crate and plugs in
//! through the [`plan::RoutingPlan`] trait; this crate provides the
//! general, SIDR-agnostic machinery plus the stock-Hadoop defaults.

pub mod counters;
pub mod error;
pub mod executor;
pub mod fault;
pub mod metrics;
pub mod output;
pub mod partitioner;
pub mod plan;
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
pub mod wire;

pub use counters::{Counters, CountersSnapshot};
pub use error::MrError;
pub use executor::{
    begin_map_attempt, injected_source_error, open_sources, run_map_attempt, run_reduce_attempt,
    AttemptBodies, InProcessExecutor, ReduceSource, RemoteReduceError, TaskExecutor,
};
pub use fault::{Fault, FaultKind, FaultPlan, FaultTarget, RetryPolicy};
pub use output::{InMemoryOutput, OutputCollector};
pub use partitioner::{CoordHashPartitioner, ModuloPartitioner, Partitioner};
pub use plan::{DefaultPlan, RoutingPlan};
pub use runtime::{run_job, run_job_shared, run_job_with_executor, JobConfig, JobResult};
pub use shuffle::{GroupBatch, MapOutputBuilder, MapOutputFile, MergeIter};
pub use slots::{CancelToken, CancelWake, Semaphore, SlotOccupancy, SlotPool, WakerRegistration};
pub use smof3::Smof3View;
pub use speculation::SpeculationPolicy;
pub use split::{InputSplit, MapTaskId, SplitGenerator};
pub use task::{
    Combiner, FnMapper, FnReducer, Mapper, MrKey, MrValue, RecordSource, Reducer, SliceRecordSource,
};
pub use tier::{PartitionStore, SpillBackend, TierConfig, TierPressure};
pub use timeline::{reexecuted_maps, spans, TaskEvent, TaskKind, Timeline};
pub use wire::FixedCodec;
pub use wire::WireFormat;

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, MrError>;
