//! `sidr_fleet_tasks_reassigned_total` counts attempts moved off a
//! worker that died at the connection level, and nothing else: a
//! worker that refuses a job moves attempts on without a count, while a
//! worker killed mid-attempt counts each attempt it dropped.
//!
//! Its own test binary on purpose: the counter is process-global, so a
//! fleet test on a parallel thread would move it.

use std::path::PathBuf;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use sidr_analyze::{admit_spec, presets, AnalyzeOptions};
use sidr_coords::Coord;
use sidr_core::exec::ExecOptions;
use sidr_core::spec::JobSpec;
use sidr_core::SidrPlanner;
use sidr_mapreduce::{run_job_with_executor, FaultPlan, InMemoryOutput, SlotPool};
use sidr_scifile::gen::{DatasetSpec, ValueModel};
use sidr_serve::fleet::WorkerRequest;
use sidr_serve::frame;
use sidr_serve::transport::{Fate, Transport};
use sidr_serve::{Fleet, Mem, Tcp};
use sidr_worker::{Worker, WorkerOptions};

/// The CI-scale preset (12 maps feeding 4 keyblocks) and its dataset.
fn tiny_fixture() -> (JobSpec, String) {
    let job = presets::preset("query1-tiny").expect("preset exists");
    let reducers = job.reducer_counts[0];
    let plan = (SidrPlanner::new(&job.query, reducers))
        .build(&job.splits)
        .unwrap();
    let spec = JobSpec::from_plan(&job.query, &job.splits, &plan).unwrap();
    let dir = std::env::temp_dir().join("sidr-worker-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path: PathBuf = dir.join(format!("reassigned-{}.scinc", std::process::id()));
    let space = job.query.input_space().clone();
    DatasetSpec {
        variable: job.query.variable.clone(),
        dim_names: (0..space.rank()).map(|d| format!("d{d}")).collect(),
        space,
        model: ValueModel::LinearIndex,
        seed: 0,
    }
    .generate::<f32>(&path)
    .unwrap();
    (spec, path.to_string_lossy().into_owned())
}

fn reassigned() -> u64 {
    sidr_obs::global()
        .counter("sidr_fleet_tasks_reassigned_total", "", &[])
        .get()
}

/// Runs `spec` on `fleet`, its workers applying `faults`; returns how
/// many keyblocks it committed.
fn run_on(fleet: &Fleet, spec: &JobSpec, input: &str, faults: FaultPlan) -> usize {
    let opts = ExecOptions {
        fault_plan: faults,
        ..ExecOptions::default()
    };
    let remote = fleet.prepare_job(spec, input, &opts);
    let (plan, _) = admit_spec(spec, None, &AnalyzeOptions::default()).unwrap();
    let config = spec.job_config(FaultPlan::none());
    let out = InMemoryOutput::<Coord, f64>::new();
    let pool = SlotPool::new(2, 2).unwrap();
    run_job_with_executor(&spec.splits, &plan.job, &out, &config, &pool, None, &remote)
        .expect("the job survives its worker faults");
    out.commits().len()
}

#[test]
fn only_a_dead_worker_reassigns_an_attempt() {
    let (spec, input) = tiny_fixture();

    // w0's every `Prepare` names an input it cannot open: it refuses,
    // and every attempt moves on to w1, uncounted.
    let net = Mem::with_faults(|crossing, bytes| {
        let to_w0 = crossing.inbound && crossing.endpoint == "w0";
        let request = (frame::read_frame(&mut &bytes[..]).ok().flatten())
            .and_then(|payload| frame::decode_json::<WorkerRequest>(&payload).ok());
        if let (true, Some(mut req)) = (to_w0, request) {
            if let WorkerRequest::Prepare { input, .. } = &mut req {
                *input = "/nonexistent/refused.scinc".into();
                bytes.clear();
                frame::send(bytes, &req).unwrap();
            }
        }
        Fate::Deliver(Duration::ZERO)
    });
    let net: Arc<dyn Transport> = Arc::new(net);
    let opts = WorkerOptions::default;
    let workers: Vec<Worker> = (["w0", "w1"].iter())
        .map(|addr| Worker::spawn(Arc::clone(&net), addr, opts()).unwrap())
        .collect();
    let fleet = Fleet::connect(Arc::clone(&net), vec!["w0".into(), "w1".into()]).unwrap();
    let before = reassigned();
    assert_eq!(run_on(&fleet, &spec, &input, FaultPlan::none()), 4);
    assert_eq!(reassigned() - before, 0, "a refusal counted as reassigned");
    assert_eq!(
        workers[0].stat().map_attempts,
        0,
        "w0 refused, yet ran maps"
    );
    workers.iter().for_each(Worker::kill);
    drop(fleet);

    // w0 is killed while map 0's attempt straggles on it: the attempts
    // it dropped move to w1, each counted.
    let tcp = |_| Worker::spawn(Arc::new(Tcp), "127.0.0.1:0", WorkerOptions::default());
    let workers: Vec<Worker> = (0..2).map(|i| tcp(i).unwrap()).collect();
    let addrs = workers.iter().map(|w| w.addr().to_string()).collect();
    let fleet = Fleet::connect(Arc::new(Tcp), addrs).unwrap();
    let before = reassigned();
    thread::scope(|s| {
        let job = s.spawn(|| run_on(&fleet, &spec, &input, FaultPlan::straggle_maps([0], 1_000)));
        let deadline = Instant::now() + Duration::from_secs(10);
        while workers[0].stat().tasks_in_flight == 0 {
            assert!(Instant::now() < deadline, "w0 never ran an attempt");
            thread::sleep(Duration::from_millis(5));
        }
        workers[0].kill();
        assert_eq!(job.join().unwrap(), 4);
    });
    assert!(
        reassigned() - before >= 1,
        "a killed worker's attempt went uncounted"
    );
    workers[1].kill();
    std::fs::remove_file(input).ok();
}
