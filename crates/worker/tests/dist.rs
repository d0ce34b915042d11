//! Distributed execution over real TCP: a loopback 3-worker fleet
//! produces output byte-identical to a single-process run, the serving
//! path dispatches to it, and a panicking task attempt leaves a worker
//! serving.
//!
//! Fleet faults — kills, rejoins, cut or tampered frames, lost
//! heartbeats, spill faults, speculation races — are explored by the
//! seeded fleet search in `crates/check/tests/fleet.rs`, which runs the
//! same coordinator and workers over the in-memory transport.

use std::path::PathBuf;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use sidr_analyze::presets;
use sidr_coords::{Coord, Shape};
use sidr_core::exec::ExecOptions;
use sidr_core::framework::{run_spec_on_pool, run_spec_with_executor, SpecRunOptions};
use sidr_core::spec::JobSpec;
use sidr_core::{Operator, SidrPlanner, StructuralQuery};
use sidr_mapreduce::{reexecuted_maps, InMemoryOutput, SlotPool, SplitGenerator};
use sidr_scifile::gen::{DatasetSpec, ValueModel};
use sidr_scifile::ScincFile;
use sidr_serve::fleet::{WorkerConn, WorkerRequest, WorkerResponse};
use sidr_serve::frame::Role;
use sidr_serve::{Client, Fleet, Server, ServerConfig, SubmitOptions, Tcp};
use sidr_worker::{Worker, WorkerOptions};

/// Builds a spec and (once per tag) its dataset from a query.
fn fixture(
    tag: &str,
    query: &StructuralQuery,
    splits: &[sidr_mapreduce::InputSplit],
    reducers: usize,
) -> (JobSpec, String) {
    let plan = SidrPlanner::new(query, reducers).build(splits).unwrap();
    let spec = JobSpec::from_plan(query, splits, &plan).unwrap();

    let dir = std::env::temp_dir().join("sidr-worker-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path: PathBuf = dir.join(format!("dist-{}-{tag}.scinc", std::process::id()));
    if !path.exists() {
        let space = query.input_space().clone();
        DatasetSpec {
            variable: query.variable.clone(),
            dim_names: (0..space.rank()).map(|d| format!("d{d}")).collect(),
            space,
            model: ValueModel::LinearIndex,
            seed: 0,
        }
        .generate::<f32>(&path)
        .unwrap();
    }
    (spec, path.to_string_lossy().into_owned())
}

/// The CI-scale preset: 12 maps feeding 4 keyblocks.
fn tiny_fixture(tag: &str) -> (JobSpec, String) {
    let job = presets::preset("query1-tiny").expect("preset exists");
    fixture(tag, &job.query, &job.splits, job.reducer_counts[0])
}

/// Figure-8's weekly-average geometry scaled until the dataset fits a
/// CI artifact: {112,25,20} f32 rows averaged over {7,5,1} windows,
/// 8 extraction-aligned splits of two "weeks" each. 11 keyblocks over
/// the 1600 output keys do not align with the 16 `K′` rows, so
/// dependency sets overlap across splits, as in the real fig08 run.
fn fig08_scale_fixture(tag: &str) -> (JobSpec, String) {
    let query = StructuralQuery::new(
        "temperature",
        Shape::new(vec![112, 25, 20]).expect("valid"),
        Shape::new(vec![7, 5, 1]).expect("valid"),
        Operator::Mean,
    )
    .expect("query is structural");
    let splits = SplitGenerator::new(query.input_space().clone(), 4)
        .aligned(25 * 20 * 4 * 14, 7)
        .expect("splits generate");
    fixture(tag, &query, &splits, 11)
}

fn spawn_workers(n: usize) -> Vec<Worker> {
    let spawn = |_| Worker::spawn(Arc::new(Tcp), "127.0.0.1:0", WorkerOptions::default());
    (0..n).map(|i| spawn(i).expect("bind loopback")).collect()
}

fn addrs(workers: &[Worker]) -> Vec<String> {
    workers.iter().map(|w| w.addr().to_string()).collect()
}

/// The per-keyblock commits in reducer order: the exact record sequence
/// each keyblock streamed.
fn keyblock_commits(out: &InMemoryOutput<Coord, f64>) -> Vec<(usize, Vec<(Coord, f64)>)> {
    let mut commits: Vec<_> = (out.commits().into_iter())
        .map(|c| (c.reducer, c.records))
        .collect();
    commits.sort_by_key(|(reducer, _)| *reducer);
    commits
}

/// Tentpole e2e at fig08 scale: a 3-worker loopback fleet streams the
/// same keyblocks with the same in-block record order as the
/// single-process engine — byte-identical results, per the paper's
/// claim that routing (not placement) determines output.
#[test]
fn fleet_output_is_byte_identical_to_single_process() {
    let (spec, input) = fig08_scale_fixture("fig08");
    let file = ScincFile::open(&input).unwrap();
    let local_out = InMemoryOutput::<Coord, f64>::new();
    let pool = SlotPool::new(4, 2).unwrap();
    let opts = SpecRunOptions::default();
    let local = run_spec_on_pool(&file, &spec, &opts, &local_out, &pool, None).unwrap();

    let workers = spawn_workers(3);
    let fleet = Fleet::connect(Arc::new(Tcp), addrs(&workers)).expect("fleet connects");
    let remote = fleet
        .prepare_job(&spec, &input, &ExecOptions::default())
        .expect("prepare");
    let pool = SlotPool::new(4, spec.num_reducers).unwrap();
    let out = InMemoryOutput::<Coord, f64>::new();
    let result = run_spec_with_executor(&spec, &opts, &out, &pool, None, &remote).unwrap();
    remote.finish();

    let got = keyblock_commits(&out);
    assert_eq!(got.len(), 11, "one commit per keyblock");
    assert_eq!(
        got,
        keyblock_commits(&local_out),
        "streamed keyblocks must match exactly"
    );
    assert!(
        reexecuted_maps(&result.events).is_empty(),
        "clean run must not re-execute maps"
    );
    // Table 3's number is the plan's, not the placement's: one
    // connection per (map in I_ℓ, reducer), wherever attempts ran.
    let deps: usize = spec.reduce_deps.iter().map(Vec::len).sum();
    assert_eq!(local.counters.shuffle_connections, deps as u64);
    assert_eq!(
        result.counters.shuffle_connections, local.counters.shuffle_connections,
        "a fleet job must report the single-process run's connections"
    );
    // And so is every other count: a fault-free job's books do not
    // depend on where its attempts ran.
    assert_eq!(
        result.counters, local.counters,
        "a fleet job must keep the single-process run's counters"
    );
    // Every map attempt landed on the fleet, none ran in-process.
    let map_attempts: u64 = workers.iter().map(|w| w.stat().map_attempts).sum();
    assert_eq!(map_attempts as usize, spec.splits.len());
}

/// Satellite of the sync-facade change: a task attempt that panics
/// mid-task surfaces as a retryable failure without poisoning the
/// worker's shared state. The same connection must keep answering
/// pings, re-running tasks and serving fetches afterwards.
#[test]
fn panicked_task_attempt_leaves_worker_serving() {
    // Distinctive job id: the panic hook is gated by job so parallel
    // tests in this binary (whose coordinator-assigned ids are small
    // integers) cannot consume the armed panic.
    const PANIC_JOB_ID: u64 = 0x51D2_7E57;
    let (spec, input) = tiny_fixture("panic");
    let worker = &spawn_workers(1)[0];

    let timeout = Some(Duration::from_secs(30));
    let mut conn = WorkerConn::dial(&Tcp, worker.addr(), Role::Coordinator, timeout).unwrap();
    let mut ask = |req: WorkerRequest| conn.request(&req).expect("the connection stays up");
    let prepare = WorkerRequest::Prepare {
        session: 1,
        job: PANIC_JOB_ID,
        spec,
        input,
        opts: ExecOptions::default(),
    };
    assert!(matches!(ask(prepare).0, WorkerResponse::Prepared { .. }));
    let run_map = |attempt| WorkerRequest::RunMap {
        job: PANIC_JOB_ID,
        task: 0,
        attempt,
    };

    // Arm the hook: the next task attempt panics on entry. The panic
    // is caught at the attempt boundary and reported as a retryable
    // failure — the connection stays up.
    sidr_worker::inject_task_panics(PANIC_JOB_ID, 1);
    match ask(run_map(0)).0 {
        WorkerResponse::Failed { detail, fatal, .. } => {
            assert!(!fatal, "a panicked attempt is retryable, not fatal");
            assert!(
                detail.contains("panicked"),
                "failure must name the panic: {detail}"
            );
        }
        other => panic!("expected Failed for the panicked attempt, got {other:?}"),
    }

    // A poisoned std mutex would now wedge every subsequent request;
    // the parking_lot facade just unlocks. Same connection: ping,
    // re-run the map, fetch a partition.
    match ask(WorkerRequest::Ping { session: 1 }).0 {
        WorkerResponse::Pong(stat) => assert!(stat.alive, "worker must report alive"),
        other => panic!("expected Pong, got {other:?}"),
    }
    let partitions = match ask(run_map(1)).0 {
        WorkerResponse::MapDone { partitions, .. } => partitions,
        other => panic!("map after the panic must succeed, got {other:?}"),
    };
    let (reducer, _) = *partitions.first().expect("map 0 feeds a reducer");
    let fetch = WorkerRequest::FetchPartition {
        job: PANIC_JOB_ID,
        map: 0,
        reducer,
        epoch: 1,
    };
    match ask(fetch) {
        (WorkerResponse::Partition { .. }, Some(bytes)) => {
            assert!(!bytes.is_empty(), "fetched partition carries SMOF bytes")
        }
        other => panic!("expected Partition and its data, got {other:?}"),
    }
}

/// The serving path end-to-end: a coordinator configured with
/// `--worker` addresses dispatches submitted jobs to the fleet and
/// reports every worker through `stats` (the `sidr-submit stats` fleet
/// view).
#[test]
fn server_dispatches_to_fleet_and_reports_worker_stats() {
    let (spec, input) = tiny_fixture("server");
    let workers = spawn_workers(3);

    let server = Server::bind(
        Arc::new(Tcp),
        "127.0.0.1:0",
        ServerConfig {
            workers: addrs(&workers),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr: std::net::SocketAddr = server.local_addr().parse().unwrap();
    let handle = server.handle();
    thread::spawn(move || server.run());

    let mut client = Client::connect(&addr.to_string()).unwrap();
    let ticket = client
        .submit(&spec, &input, SubmitOptions::default())
        .unwrap();
    let mut streamed = 0usize;
    client
        .stream_job(ticket.job, |_reducer, _keys, records| {
            streamed += records.len();
        })
        .unwrap();
    assert_eq!(streamed, 24, "query1-tiny yields one mean per K′ row");

    // Every attempt ran on the fleet: the workers' own counts. That the
    // heartbeat carries them into `stats` is checked on virtual time by
    // the fleet search (`crates/check/tests/fleet.rs`), without a poll.
    let attempts = (workers.iter().map(Worker::stat)).fold((0, 0), |(m, r), w| {
        (m + w.map_attempts, r + w.reduce_attempts)
    });
    assert_eq!(
        attempts,
        (12, 4),
        "all 12 maps and all 4 reduces ran on the fleet"
    );
    let stats = handle.stats();
    assert_eq!(stats.workers.len(), 3, "every worker is reported");
    for w in &stats.workers {
        assert!(w.alive, "worker {} should be alive", w.addr);
        assert!(
            w.heartbeat_age_ms < 5_000,
            "heartbeat for {} is fresh",
            w.addr
        );
    }

    client.shutdown().ok();
}
