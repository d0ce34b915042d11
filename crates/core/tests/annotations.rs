//! §3.2.1 approach 2 as a *tripwire*: the count annotations exist to
//! catch a Reduce task that would otherwise start on insufficient
//! input. These tests prove the tripwire fires.

use std::path::PathBuf;
use std::time::Duration;

use sidr_coords::{Coord, Shape};
use sidr_core::framework::{generate_splits, run_query, FrameworkMode, RunOptions};
use sidr_core::spec::JobSpec;
use sidr_core::{ExecOptions, Operator, SidrPlanner, SpecExecutor, StructuralQuery};
use sidr_mapreduce::shuffle_file::{decode_map_output, encode_map_output};
use sidr_mapreduce::{
    run_job_with_executor, AttemptBodies, FaultKind, InMemoryOutput, InProcessExecutor, InputSplit,
    JobConfig, JobResult, Keyblock, MapAttemptOutput, MapTaskId, MrError, SlotPool, Smof3View,
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
    ) -> sidr_mapreduce::Result<Keyblock<Coord, f64>> {
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
    let q = query(operator);
    let splits = SplitGenerator::new(q.input_space().clone(), 8)
        .exact_count(5)
        .unwrap();
    run_splits(name, &q, &splits, lossy)
}

/// A default-config SIDR job of `q` over `splits` of the dataset in
/// three keyblocks, its map lossy or not.
fn run_splits(
    name: &str,
    q: &StructuralQuery,
    splits: &[InputSplit],
    lossy: bool,
) -> sidr_mapreduce::Result<JobResult> {
    let path = dataset(name);
    let plan = SidrPlanner::new(q, 3).build(splits).unwrap();
    let job = JobSpec::from_plan(q, splits, &plan).unwrap();
    let inner = SpecExecutor::new(&path, job, ExecOptions::default()).unwrap();
    std::fs::remove_file(&path).unwrap();
    let config = JobConfig::default();
    let executor = InProcessExecutor::with_bodies(Lossy { inner, lossy }, &config);
    let pool = SlotPool::new(4, 3)?;
    let output = InMemoryOutput::new();
    run_job_with_executor(splits, &plan.job, &output, &config, &pool, None, &executor)
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
        let geometric = plan.partition.keyblock_key_count(r).unwrap() * q.fold_in_count();
        assert_eq!(plan.job.expected_raw(r), Some(geometric), "keyblock {r}");
    }

    assert_trips(run("filter-lossy", filter, true));
}

/// A map finishes each unit its split holds whole and ships the one
/// value: Median over odd (9) and even (12) units, Percentile and Mean,
/// in every mode, over strided instances — 3 rows every 4 — that the
/// 6-row splits cut, so a split holds whole keys beside cut ones. The
/// output is the brute force bit for bit; the maps ship each cut key's
/// records and one row per whole key, while their tallies still count
/// every pair; and a lossy map over a finished job trips the tally.
#[test]
fn whole_units_finish_map_side_in_every_mode() {
    let path = dataset("whole");
    let file = ScincFile::open(&path).unwrap();
    let value = |k: &Coord| (k[0] * 8 + k[1]) as f64; // the linear index
    let strided = |extraction: &[u64], operator| {
        let (space, extraction) = (shape(&[40, 8]), shape(extraction));
        StructuralQuery::with_stride("v", space, extraction, vec![4, 4], operator).unwrap()
    };
    let queries = [
        strided(&[3, 3], Operator::Median),
        strided(&[3, 4], Operator::Median),
        strided(&[3, 4], Operator::Percentile { p: 30.0 }),
        strided(&[3, 3], Operator::Mean),
    ];
    let split_bytes = 6 * 8 * 8; // six 8-value rows
    for q in &queries {
        let mut expect = Vec::new();
        for kp in q.intermediate_space().iter_coords() {
            let unit = q.extraction.preimage_of_key(&kp).unwrap();
            let values: Vec<f64> = unit.iter_coords().map(|k| value(&k)).collect();
            expect.push((kp, q.operator.apply(&values)[0]));
        }
        for mode in [
            FrameworkMode::Hadoop,
            FrameworkMode::SciHadoop,
            FrameworkMode::Sidr,
        ] {
            let mut opts = RunOptions::new(mode, 3);
            opts.split_bytes = split_bytes;
            let got = run_query(&file, q, &opts).unwrap();
            let bits = |r: &[(Coord, f64)]| -> Vec<(Coord, u64)> {
                r.iter().map(|(k, v)| (k.clone(), v.to_bits())).collect()
            };
            assert_eq!(bits(&got.records), bits(&expect), "{mode} {q:?}");

            // Each key ships one row from a split holding it whole, or
            // the records a split holds of it.
            let splits = generate_splits(&file, q, mode, split_bytes).unwrap();
            let (mut shipped, mut whole) = (0, 0);
            for kp in q.intermediate_space().iter_coords() {
                let unit = q.extraction.preimage_of_key(&kp).unwrap();
                for split in &splits {
                    match split.slab.intersect(&unit).unwrap().map(|s| s.count()) {
                        Some(n) if n == q.fold_in_count() => {
                            (shipped, whole) = (shipped + 1, whole + 1)
                        }
                        Some(n) => shipped += n,
                        None => {}
                    }
                }
            }
            assert!(
                0 < whole && whole < q.intermediate_space().count(),
                "{mode}: a mix"
            );
            let c = got.result.counters;
            assert_eq!(c.combined_records, shipped, "{mode} {q:?}");
            assert_eq!(c.shuffled_records, shipped, "{mode} {q:?}");
            assert_eq!(
                c.map_records_out,
                q.intermediate_space().count() * q.fold_in_count(),
                "{mode}: the maps represent every pair"
            );
        }
        let splits = generate_splits(&file, q, FrameworkMode::Sidr, split_bytes).unwrap();
        assert_trips(run_splits("whole-lossy", q, &splits, true));
    }
    std::fs::remove_file(&path).unwrap();
}
