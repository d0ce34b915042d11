//! Pipelined consumption: a downstream consumer receives correct
//! keyblock results *while the query is still executing* (§6).

use std::sync::atomic::{AtomicBool, Ordering};

use sidr_coords::Shape;
use sidr_core::early::streaming_output;
use sidr_core::framework::{run_spec_on_pool, SpecRunOptions};
use sidr_core::spec::JobSpec;
use sidr_core::{Operator, SidrPlanner, StructuralQuery};
use sidr_mapreduce::{FaultPlan, SlotPool, SplitGenerator};
use sidr_scifile::gen::{DatasetSpec, ValueModel};

fn shape(v: &[u64]) -> Shape {
    Shape::new(v.to_vec()).unwrap()
}

#[test]
fn consumer_sees_results_before_the_job_finishes() {
    let space = shape(&[60, 8]);
    let spec = DatasetSpec {
        variable: "v".into(),
        dim_names: vec!["d0".into(), "d1".into()],
        space: space.clone(),
        model: ValueModel::LinearIndex,
        seed: 0,
    };
    let dir = std::env::temp_dir().join("sidr-streaming-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("stream-{}.scinc", std::process::id()));
    let file = spec.generate::<f64>(&path).unwrap();

    let q = StructuralQuery::new("v", space.clone(), shape(&[4, 4]), Operator::Mean).unwrap();
    let splits = SplitGenerator::new(space, 8).exact_count(6).unwrap();
    let plan = SidrPlanner::new(&q, 6).build(&splits).unwrap();
    let job = JobSpec::from_plan(&q, &splits, &plan).unwrap();
    let opts = SpecRunOptions {
        fault_plan: FaultPlan::straggle_maps(0..splits.len(), 10),
        ..SpecRunOptions::default()
    };
    let pool = SlotPool::new(1, 3).unwrap(); // serialize maps so results trickle
    let (collector, rx) = streaming_output();

    let job_done = AtomicBool::new(false);
    let consumed_early = AtomicBool::new(false);
    let total_records = std::sync::atomic::AtomicUsize::new(0);

    std::thread::scope(|scope| {
        let consumer = scope.spawn(|| {
            // Consume results as they arrive; note whether any arrived
            // while the job was still running.
            for result in rx.iter() {
                if !job_done.load(Ordering::SeqCst) {
                    consumed_early.store(true, Ordering::SeqCst);
                }
                assert!(!result.records.is_empty());
                total_records.fetch_add(result.records.len(), Ordering::SeqCst);
            }
        });

        run_spec_on_pool(&file, &job, &opts, &collector, &pool, None).unwrap();
        job_done.store(true, Ordering::SeqCst);
        drop(collector); // close the channel so the consumer exits
        consumer.join().unwrap();
    });

    assert!(
        consumed_early.load(Ordering::SeqCst),
        "no result was consumed while the job was still running"
    );
    assert_eq!(
        total_records.load(Ordering::SeqCst) as u64,
        q.intermediate_space().count(),
        "streamed output must still be complete"
    );
    std::fs::remove_file(&path).unwrap();
}
