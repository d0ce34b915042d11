//! §3.2.1 approach 2 as a *tripwire*: the count annotations exist to
//! catch a Reduce task that would otherwise start on insufficient
//! input. These tests prove the tripwire fires.

use std::time::Duration;

use sidr_coords::{Coord, Shape};
use sidr_core::spec::JobSpec;
use sidr_core::{ExecOptions, Operator, SidrPlanner, SpecExecutor, StructuralQuery};
use sidr_mapreduce::shuffle_file::{decode_map_output, encode_map_output};
use sidr_mapreduce::{
    run_job_with_executor, AttemptBodies, FaultKind, InMemoryOutput, InProcessExecutor, InputSplit,
    JobConfig, JobResult, MapAttemptOutput, MapTaskId, MrError, RoutingPlan, SlotPool, Smof3View,
    SplitGenerator,
};
use sidr_scifile::gen::{DatasetSpec, ValueModel};

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

/// A default-config SIDR mean over a `{40, 8}` dataset, its map lossy
/// or not.
fn run(name: &str, lossy: bool) -> sidr_mapreduce::Result<JobResult> {
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
    let q = StructuralQuery::new("v", shape(&[40, 8]), shape(&[4, 4]), Operator::Mean).unwrap();
    let splits = SplitGenerator::new(q.input_space().clone(), 8)
        .exact_count(5)
        .unwrap();
    let plan = SidrPlanner::new(&q, 3).build(&splits).unwrap();
    let job = JobSpec::from_plan(&q, &splits, &plan).unwrap();
    let inner = SpecExecutor::new(&path, job, ExecOptions::default()).unwrap();
    std::fs::remove_file(&path).unwrap();
    let config = JobConfig::default();
    let executor = InProcessExecutor::with_bodies(Lossy { inner, lossy }, &config);
    let pool = SlotPool::new(config.map_slots, config.reduce_slots)?;
    let output = InMemoryOutput::new();
    run_job_with_executor(&splits, &plan, &output, &config, &pool, None, &executor)
}

#[test]
fn honest_run_passes_annotation_validation() {
    let result = run("honest", false);
    assert!(result.is_ok(), "honest run must validate: {result:?}");
}

/// The tripwire needs no switch: a default-config run over a SIDR plan
/// refuses to reduce on insufficient input — the hazard §3.2.1
/// describes — instead of answering from it.
#[test]
fn lossy_run_trips_the_tally_by_default() {
    match run("lossy", true) {
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

/// A pushed-down `Filter` drops pairs before the shuffle, so its plan
/// promises no tally — yet keeps the geometric one the verifier and
/// the submission document check.
#[test]
fn pushed_down_filter_promises_no_tally_but_keeps_the_geometry() {
    let filter = Operator::Filter { threshold: 0.5 };
    let q = StructuralQuery::new("v", shape(&[40, 8]), shape(&[4, 4]), filter).unwrap();
    let splits = SplitGenerator::new(q.input_space().clone(), 8)
        .exact_count(5)
        .unwrap();
    let kept = SidrPlanner::new(&q, 3).build(&splits).unwrap();
    let pushed = SidrPlanner::new(&q, 3)
        .filter_pushdown(true)
        .build(&splits)
        .unwrap();
    for r in 0..3 {
        let geometric = kept.geometric_raw_count(r);
        assert_eq!(kept.expected_raw_count(r), Some(geometric));
        assert_eq!(pushed.expected_raw_count(r), None);
        assert_eq!(pushed.geometric_raw_count(r), geometric);
    }
    // Push-down means nothing to an operator that is not a filter.
    let mean = StructuralQuery::new("v", shape(&[40, 8]), shape(&[4, 4]), Operator::Mean).unwrap();
    let plan = SidrPlanner::new(&mean, 3)
        .filter_pushdown(true)
        .build(&splits)
        .unwrap();
    assert!(plan.expected_raw_count(0).is_some());
}
