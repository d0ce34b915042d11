//! §3.2.1 approach 2 as a *tripwire*: the count annotations exist to
//! catch a Reduce task that would otherwise start on insufficient
//! input. These tests prove the tripwire fires.

use sidr_coords::{Coord, ExtractionShape, Shape};
use sidr_core::operators::OperatorReducer;
use sidr_core::source::{scinc_source_factory, StructuralMapper};
use sidr_core::{Operator, SidrPlanner, StructuralQuery};
use sidr_mapreduce::{
    run_job, InMemoryOutput, JobConfig, Mapper, MrError, RoutingPlan, SplitGenerator,
};
use sidr_scifile::gen::{DatasetSpec, ValueModel};

fn shape(v: &[u64]) -> Shape {
    Shape::new(v.to_vec()).unwrap()
}

fn dataset(name: &str, space: &[u64]) -> (sidr_scifile::ScincFile, DatasetSpec) {
    let spec = DatasetSpec {
        variable: "v".into(),
        dim_names: (0..space.len()).map(|i| format!("d{i}")).collect(),
        space: shape(space),
        model: ValueModel::LinearIndex,
        seed: 0,
    };
    let dir = std::env::temp_dir().join("sidr-annot-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}-{}.scinc", std::process::id()));
    let file = spec.generate::<f64>(&path).unwrap();
    (file, spec)
}

/// A mapper that silently drops a fraction of its records — the kind
/// of bug (or combiner-count confusion) the annotation tally exists to
/// catch before a reduce runs on partial input.
struct LossyMapper {
    inner: StructuralMapper,
}

impl Mapper for LossyMapper {
    type InKey = Coord;
    type InValue = f64;
    type OutKey = Coord;
    type OutValue = f64;

    fn map(&self, key: &Coord, value: &f64, emit: &mut dyn FnMut(Coord, f64)) {
        // Drop every 17th record.
        if key.components().iter().sum::<u64>() % 17 == 0 {
            return;
        }
        self.inner.map(key, value, emit);
    }
}

#[test]
fn honest_run_passes_annotation_validation() {
    let (file, _) = dataset("honest", &[40, 8]);
    let q = StructuralQuery::new("v", shape(&[40, 8]), shape(&[4, 4]), Operator::Mean).unwrap();
    let splits = SplitGenerator::new(q.input_space().clone(), 8)
        .exact_count(5)
        .unwrap();
    let plan = SidrPlanner::new(&q, 3).build(&splits).unwrap();
    let mapper = StructuralMapper::new(q.extraction.clone());
    let reducer = OperatorReducer { op: q.operator };
    let factory = scinc_source_factory::<f64>(&file, "v");
    let output = InMemoryOutput::new();
    let result = run_job(
        &splits,
        &factory,
        &mapper,
        None,
        &reducer,
        &plan,
        &output,
        &JobConfig::default(),
    );
    assert!(result.is_ok(), "honest run must validate: {result:?}");
}

/// The tripwire needs no switch: a default-config run over a SIDR plan
/// refuses to reduce on insufficient input — the hazard §3.2.1
/// describes — instead of answering from it.
#[test]
fn lossy_run_trips_the_tally_by_default() {
    let (file, _) = dataset("lossy", &[40, 8]);
    let q = StructuralQuery::new("v", shape(&[40, 8]), shape(&[4, 4]), Operator::Mean).unwrap();
    let splits = SplitGenerator::new(q.input_space().clone(), 8)
        .exact_count(5)
        .unwrap();
    let plan = SidrPlanner::new(&q, 3).build(&splits).unwrap();
    let mapper = LossyMapper {
        inner: StructuralMapper::new(
            ExtractionShape::new(shape(&[40, 8]), shape(&[4, 4])).unwrap(),
        ),
    };
    let reducer = OperatorReducer { op: q.operator };
    let factory = scinc_source_factory::<f64>(&file, "v");
    let output = InMemoryOutput::new();
    let result = run_job(
        &splits,
        &factory,
        &mapper,
        None,
        &reducer,
        &plan,
        &output,
        &JobConfig::default(),
    );
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
