//! §3.2.1 approach 2 as a *tripwire*: the count annotations exist to
//! catch a Reduce task that would otherwise start on insufficient
//! input. These tests prove the tripwire fires.

use std::path::PathBuf;
use std::time::Duration;

use sidr_coords::{Coord, Shape};
use sidr_core::framework::{run_query, FrameworkMode, RunOptions};
use sidr_core::spec::JobSpec;
use sidr_core::{ExecOptions, Operator, SidrPlanner, SpecExecutor, StructuralQuery};
use sidr_mapreduce::shuffle_file::{decode_map_output, encode_map_output};
use sidr_mapreduce::{
    run_job_with_executor, AttemptBodies, FaultKind, InMemoryOutput, InProcessExecutor, InputSplit,
    JobConfig, JobResult, MapAttemptOutput, MapTaskId, MrError, RoutingPlan, SlotPool, Smof3View,
    SplitGenerator,
};
use sidr_scifile::gen::{DatasetSpec, ValueModel};
use sidr_scifile::ScincFile;

fn shape(v: &[u64]) -> Shape {
    Shape::new(v.to_vec()).unwrap()
}

/// A query's attempt bodies whose map, when `lossy`, silently drops
/// every 17th record of each partition it writes — the kind of bug (or
/// combiner-count confusion) the annotation tally exists to catch
/// before a reduce runs on partial input. The partition it writes is
/// valid and CRC-sealed, its annotation counting the records it holds.
struct Lossy {
    inner: SpecExecutor,
    lossy: bool,
}

impl AttemptBodies for Lossy {
    type Key = Coord;
    type Value = f64;
    type Out = f64;

    fn map(
        &self,
        task: MapTaskId,
        attempt: u32,
        fault: Option<FaultKind>,
        split: &InputSplit,
        pause: &dyn Fn(Duration) -> bool,
    ) -> sidr_mapreduce::Result<MapAttemptOutput> {
        let mut out = self.inner.map(task, attempt, fault, split, pause)?;
        if self.lossy {
            for (_, bytes) in &mut out.partitions {
                let mut file = decode_map_output::<Coord, f64>(bytes)?;
                let mut i = 0;
                file.records.retain(|_| {
                    i += 1;
                    i % 17 != 0
                });
                file.raw_count = file.records.len() as u64;
                *bytes = encode_map_output(&file)?;
            }
        }
        Ok(out)
    }

    fn reduce(
        &self,
        reducer: usize,
        inputs: Vec<Smof3View<Coord, f64>>,
        expected_raw: Option<u64>,
    ) -> sidr_mapreduce::Result<Vec<(Coord, f64)>> {
        self.inner.reduce(reducer, inputs, expected_raw)
    }
}

/// The `{40, 8}` dataset of linear indices, at a path of its own.
fn dataset(name: &str) -> PathBuf {
    let spec = DatasetSpec {
        variable: "v".into(),
        dim_names: vec!["d0".into(), "d1".into()],
        space: shape(&[40, 8]),
        model: ValueModel::LinearIndex,
        seed: 0,
    };
    let dir = std::env::temp_dir().join("sidr-annot-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}-{}.scinc", std::process::id()));
    spec.generate::<f64>(&path).unwrap();
    path
}

/// `operator` over `{4, 4}` instances of the dataset.
fn query(operator: Operator) -> StructuralQuery {
    StructuralQuery::new("v", shape(&[40, 8]), shape(&[4, 4]), operator).unwrap()
}

/// A default-config SIDR job of `operator` over the dataset in five
/// splits and three keyblocks, its map lossy or not.
fn run(name: &str, operator: Operator, lossy: bool) -> sidr_mapreduce::Result<JobResult> {
    let path = dataset(name);
    let q = query(operator);
    let splits = SplitGenerator::new(q.input_space().clone(), 8)
        .exact_count(5)
        .unwrap();
    let plan = SidrPlanner::new(&q, 3).build(&splits).unwrap();
    let job = JobSpec::from_plan(&q, &splits, &plan).unwrap();
    let inner = SpecExecutor::new(&path, job, ExecOptions::default()).unwrap();
    std::fs::remove_file(&path).unwrap();
    let config = JobConfig::default();
    let executor = InProcessExecutor::with_bodies(Lossy { inner, lossy }, &config);
    let pool = SlotPool::new(4, 3)?;
    let output = InMemoryOutput::new();
    run_job_with_executor(&splits, &plan, &output, &config, &pool, None, &executor)
}

#[test]
fn honest_run_passes_annotation_validation() {
    let result = run("honest", Operator::Mean, false);
    assert!(result.is_ok(), "honest run must validate: {result:?}");
}

/// The tripwire needs no switch: a default-config run over a SIDR plan
/// refuses to reduce on insufficient input — the hazard §3.2.1
/// describes — instead of answering from it.
#[test]
fn lossy_run_trips_the_tally_by_default() {
    assert_trips(run("lossy", Operator::Mean, true));
}

fn assert_trips(result: sidr_mapreduce::Result<JobResult>) {
    match result {
        Err(MrError::AnnotationMismatch {
            expected, actual, ..
        }) => {
            assert!(
                actual < expected,
                "tally {actual} must fall short of {expected}"
            );
        }
        other => panic!("expected AnnotationMismatch, got {other:?}"),
    }
}

/// A `Filter` selects map-side and keeps its tally: its job ships only
/// the passing tenth of the values, far fewer rows than its maps
/// represent; every keyblock's promised tally is the geometric one;
/// and a lossy map over the same job trips it.
#[test]
fn filter_ships_only_passing_rows_and_keeps_its_tally() {
    let filter = Operator::Filter {
        threshold: 40.0 * 8.0 * 0.9,
    };
    let path = dataset("filter");
    let file = ScincFile::open(&path).unwrap();
    let q = query(filter);
    let got = run_query(&file, &q, &RunOptions::new(FrameworkMode::Sidr, 3)).unwrap();
    std::fs::remove_file(&path).unwrap();
    let c = got.result.counters;
    assert_eq!(c.map_records_out, 40 * 8, "the maps represent every pair");
    assert!(
        c.shuffled_records * 5 < c.map_records_out,
        "shipped {} rows of {} represented",
        c.shuffled_records,
        c.map_records_out
    );
    assert_eq!(got.records.len() as u64, c.shuffled_records);

    let splits = SplitGenerator::new(q.input_space().clone(), 8)
        .exact_count(5)
        .unwrap();
    let plan = SidrPlanner::new(&q, 3).build(&splits).unwrap();
    for r in 0..3 {
        let geometric = plan.partition().keyblock_key_count(r).unwrap() * q.fold_in_count();
        assert_eq!(plan.expected_raw_count(r), Some(geometric), "keyblock {r}");
    }

    assert_trips(run("filter-lossy", filter, true));
}
