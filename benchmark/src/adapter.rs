//! The pinned surface: every item of the repository the benchmark
//! binds to is named in this file and nowhere else.
//!
//! A refactor that renames or reshapes one of these items breaks the
//! benchmark here, in one place, and must land a benchmark PR first
//! (see `benchmark/README.md`, "Pinned surface"). The rest of the
//! package speaks only in the re-exports and helpers below.

use std::path::Path;

pub use sidr_analyze::{analyze_spec, AnalyzeOptions};
pub use sidr_coords::Coord;
pub use sidr_core::framework::{run_spec_on_pool, SpecRunOptions};
pub use sidr_core::source::ScincRecordSource;
pub use sidr_core::spec::JobSpec;
pub use sidr_core::{ExecOptions, SidrPlanner, SpecExecutor, StructuralQuery};
pub use sidr_mapreduce::shuffle_file::{decode_map_output, encode_map_output};
pub use sidr_mapreduce::Result as MrResult;
pub use sidr_mapreduce::{
    FaultPlan, GroupBatch, InputSplit, MergeIter, OutputCollector, PartitionStore, RecordSource,
    SlotPool, Smof3View, TierConfig,
};
pub use sidr_obs::render_global;
pub use sidr_scifile::{Element, ScincFile};
pub use sidr_serve::binframe::{decode_keyblock, encode_keyblock, is_binary};
pub use sidr_serve::frame::{read_frame, write_frame};
pub use sidr_serve::{Client, SubmitOptions};

use sidr_coords::Shape;
use sidr_core::Operator;
use sidr_mapreduce::SplitGenerator;
use sidr_scifile::gen::DatasetSpec;

use crate::workload::{Elem, Op, Workload};

/// Boxed error: the benchmark reports failures, it does not match on them.
pub type BoxErr = Box<dyn std::error::Error + Send + Sync>;

fn shape(extents: &[u64]) -> Result<Shape, BoxErr> {
    Ok(Shape::new(extents.to_vec())?)
}

/// Generates the workload's dataset from `seed` with
/// `DatasetSpec::temperature`, in the workload's element type.
pub fn generate_dataset(w: &Workload, seed: u64, path: &Path) -> Result<(), BoxErr> {
    let spec = DatasetSpec::temperature(shape(w.space)?, seed);
    match w.elem {
        Elem::F32 => spec.generate::<f32>(path).map(drop)?,
        Elem::F64 => spec.generate::<f64>(path).map(drop)?,
    }
    Ok(())
}

/// The generated array in row-major order, widened to `f64` exactly as
/// a record source widens it — the oracle's only input.
pub fn read_array(w: &Workload, path: &Path) -> Result<Vec<f64>, BoxErr> {
    let file = ScincFile::open(path)?;
    let whole = sidr_coords::Slab::whole(&shape(w.space)?);
    Ok(match w.elem {
        Elem::F32 => file
            .read_slab::<f32>(VARIABLE, &whole)?
            .into_iter()
            .map(f64::from)
            .collect(),
        Elem::F64 => file.read_slab::<f64>(VARIABLE, &whole)?,
    })
}

/// The variable `DatasetSpec::temperature` writes.
pub const VARIABLE: &str = "temperature";

/// The workload's query and its extraction-aligned splits.
pub fn query_and_splits(w: &Workload) -> Result<(StructuralQuery, Vec<InputSplit>), BoxErr> {
    let op = match w.op {
        Op::Max => Operator::Max,
        Op::Median => Operator::Median,
        Op::Mean => Operator::Mean,
    };
    let query = StructuralQuery::new(VARIABLE, shape(w.space)?, shape(w.extraction)?, op)?;
    let esize = w.elem.size();
    let row_bytes: u64 = w.space[1..].iter().product::<u64>() * esize;
    let splits = SplitGenerator::new(query.input_space().clone(), esize)
        .aligned(row_bytes * w.rows_per_split, w.extraction[0])?;
    Ok((query, splits))
}

/// Plans the workload and exports the submission document.
pub fn plan_spec(w: &Workload) -> Result<JobSpec, BoxErr> {
    let (query, splits) = query_and_splits(w)?;
    let plan = SidrPlanner::new(&query, w.reducers).build(&splits)?;
    Ok(JobSpec::from_plan(&query, &splits, &plan)?)
}

/// `sidr-serve` arguments: an ephemeral port, the slot counts and one
/// `--worker` per fleet member.
pub fn serve_args(map_slots: usize, reduce_slots: usize, workers: &[String]) -> Vec<String> {
    let mut args = vec![
        "--listen".to_string(),
        "127.0.0.1:0".to_string(),
        "--map-slots".to_string(),
        map_slots.to_string(),
        "--reduce-slots".to_string(),
        reduce_slots.to_string(),
    ];
    for w in workers {
        args.push("--worker".to_string());
        args.push(w.clone());
    }
    args
}

/// `sidr-worker` arguments: an ephemeral port and, for a budgeted
/// worker, `--memory-budget` with its `--spill-dir`.
pub fn worker_args(budget_bytes: u64, spill_dir: &Path) -> Vec<String> {
    let mut args = vec!["--listen".to_string(), "127.0.0.1:0".to_string()];
    if budget_bytes > 0 {
        args.push("--memory-budget".to_string());
        args.push(budget_bytes.to_string());
        args.push("--spill-dir".to_string());
        args.push(spill_dir.display().to_string());
    }
    args
}

/// A budgeted partition store spilling to SMOF files under `dir`
/// (`budget_bytes` 0 = unbounded, never spills).
pub fn partition_store(budget_bytes: u64, dir: &Path) -> PartitionStore {
    let cfg = TierConfig {
        budget_bytes,
        ..TierConfig::default()
    };
    PartitionStore::on_disk(cfg, dir)
}
