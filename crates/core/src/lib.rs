//! SIDR — Structure-Aware Intelligent Data Routing (SC '13).
//!
//! SIDR extends the MapReduce communication model for *structural
//! queries*: queries whose relationship between input and output is
//! determined by where data sits in the dataset (§2.2). Resolving the
//! three opaque areas of the MapReduce dataflow (§2.3.2) with the
//! query's extraction shape lets SIDR:
//!
//! * compute the exact intermediate keyspace `K′ᵀ` before any Map task
//!   runs ([`query`]),
//! * partition `K′ᵀ` into balanced, *contiguous* keyblocks —
//!   [`partition_plus`] (§3.1, Fig. 7) — eliminating intermediate key
//!   skew (§4.3) and making Reduce output dense (§4.4),
//! * derive each Reduce task's actual data dependencies `I_ℓ` —
//!   [`deps`] (§3.2) — replacing the global barrier with per-task
//!   barriers, producing early, *correct* results (§4.1),
//! * schedule Reduce tasks first, with Map tasks becoming eligible on
//!   demand and keyblocks optionally prioritized — [`plan`] (§3.3–3.4),
//!   handing the engine one plain-data `JobPlan`,
//! * cross-check every early start with count annotations (the plan's
//!   `expected_raw`, §3.2.1 approach 2),
//! * write output as dense contiguous slabs — [`output`] (§4.4),
//! * recover from Reduce failures by re-executing only dependent Map
//!   tasks instead of persisting intermediate data (§6; exercised
//!   through the engine's `volatile_intermediate` mode),
//! * statically verify every plan before a task runs — [`verify`] is
//!   one proof at every build, run inside
//!   [`plan::SidrPlanner::build`]; the `sidr-analyze` crate runs the
//!   same proof at admission and ships the `sidr-lint` CLI.
//!
//! The high-level entry point is [`framework::run_query`], which runs
//! one structural query under any of the three compared frameworks
//! (stock Hadoop, SciHadoop, SIDR) on a SciNC dataset.

pub mod exec;
pub mod framework;
pub mod geomap;
pub mod lang;
pub mod operators;
pub mod output;
pub mod plan;
pub mod query;
pub mod source;
pub mod spec;

pub mod deps;
pub mod diag;
pub mod partition_plus;
pub mod verify;

pub use diag::{Diagnostic, Report, Severity};
pub use exec::{ExecOptions, MapAttemptOutput, SpecExecutor};
pub use framework::{run_query, run_spec_on_pool, FrameworkMode, QueryOutcome};
pub use operators::Operator;
pub use partition_plus::PartitionPlus;
pub use plan::{SidrPlan, SidrPlanner};
pub use query::StructuralQuery;

/// Errors from SIDR planning and execution.
#[derive(Debug)]
pub enum SidrError {
    Coord(sidr_coords::CoordError),
    Scifile(sidr_scifile::ScifileError),
    Engine(sidr_mapreduce::MrError),
    Plan(String),
}

impl std::fmt::Display for SidrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SidrError::Coord(e) => write!(f, "geometry error: {e}"),
            SidrError::Scifile(e) => write!(f, "scientific file error: {e}"),
            SidrError::Engine(e) => write!(f, "engine error: {e}"),
            SidrError::Plan(msg) => write!(f, "planning error: {msg}"),
        }
    }
}

impl std::error::Error for SidrError {}

impl From<sidr_coords::CoordError> for SidrError {
    fn from(e: sidr_coords::CoordError) -> Self {
        SidrError::Coord(e)
    }
}

impl From<sidr_scifile::ScifileError> for SidrError {
    fn from(e: sidr_scifile::ScifileError) -> Self {
        SidrError::Scifile(e)
    }
}

impl From<sidr_mapreduce::MrError> for SidrError {
    fn from(e: sidr_mapreduce::MrError) -> Self {
        SidrError::Engine(e)
    }
}

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, SidrError>;
