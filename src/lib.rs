//! # sidr-repro — SIDR: Structure-Aware Intelligent Data Routing
//!
//! A from-scratch Rust reproduction of *SIDR: Structure-Aware
//! Intelligent Data Routing in Hadoop* (Buck et al., SC '13),
//! including every substrate the paper depends on:
//!
//! * [`coords`] — n-dimensional logical-coordinate geometry
//!   (shapes, slabs, tilings, extraction shapes, contiguous
//!   partitions),
//! * [`scifile`] — SciNC, a NetCDF-like scientific file format with
//!   coordinate-addressed slab I/O,
//! * [`dfs`] — the paper's HDFS block placement, which the simulator
//!   reads to place its maps,
//! * [`mapreduce`] — a Hadoop-like MapReduce engine with pluggable
//!   partitioners, barriers and schedulers,
//! * [`core`] — SIDR itself: structural queries, `partition+`,
//!   dependency derivation, inverted scheduling, early results,
//! * [`simcluster`] — a discrete-event simulator of the paper's
//!   25-node cluster for the paper-scale figures,
//! * [`analyze`] — the static plan verifier (`sidr-lint`): proves
//!   coverage, dependency, skew, scheduling and conservation
//!   invariants before any task runs,
//! * [`serve`] — `sidr-serve`, a multi-tenant query service: jobs
//!   submitted over TCP share one slot pool and stream each keyblock
//!   back the moment its reduce commits (§3.4 early results as a
//!   service), with `sidr-submit` as the client CLI,
//! * [`obs`] — dependency-free metrics (counters/gauges/histograms
//!   with Prometheus text exposition); the engine and the service are
//!   instrumented end to end, scrapeable live via `sidr-submit
//!   metrics`, and a job's events are its trace (`sidr-submit submit
//!   --trace`).
//!
//! ## Quickstart
//!
//! ```no_run
//! use sidr_repro::core::{run_query, FrameworkMode, Operator, StructuralQuery};
//! use sidr_repro::core::framework::RunOptions;
//! use sidr_repro::coords::Shape;
//! use sidr_repro::scifile::gen::DatasetSpec;
//!
//! // Generate a SciNC temperature dataset and down-sample it to
//! // weekly, half-degree averages under SIDR routing.
//! let space = Shape::new(vec![364, 50, 40]).unwrap();
//! let spec = DatasetSpec::temperature(space.clone(), 42);
//! let file = spec.generate::<f64>("/tmp/temps.scinc").unwrap();
//!
//! let query = StructuralQuery::new(
//!     "temperature", space, Shape::new(vec![7, 5, 1]).unwrap(), Operator::Mean,
//! ).unwrap();
//! let outcome = run_query(&file, &query, &RunOptions::new(FrameworkMode::Sidr, 4)).unwrap();
//! println!("{} weekly averages", outcome.records.len());
//! ```

pub use sidr_analyze as analyze;
pub use sidr_coords as coords;
pub use sidr_dfs as dfs;
pub use sidr_mapreduce as mapreduce;
pub use sidr_obs as obs;
pub use sidr_scifile as scifile;
pub use sidr_serve as serve;
pub use sidr_simcluster as simcluster;

/// The paper's contribution (re-exported from the `sidr-core` crate;
/// named `core` here for discoverability — the standard library's
/// `core` is still reachable as `::core`).
pub use sidr_core as core;
