//! Distributed execution over real TCP: a loopback 3-worker fleet
//! produces output byte-identical to a single-process run, the serving
//! path dispatches to it, a panicking task attempt leaves a worker
//! serving, and a killed worker hangs up the connections it kept. Two
//! runs go over the in-memory transport on the wall clock: one cuts a
//! worker off while its job ends, one checks that a served fleet job's
//! record keeps one clock and one order, as an in-process job's does.
//!
//! Fleet faults — kills, rejoins, cut or tampered frames, lost
//! heartbeats, spill faults, speculation races — are explored by the
//! seeded fleet search in `crates/check/tests/fleet.rs`, which runs the
//! same coordinator and workers over the in-memory transport.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use sidr_analyze::{admit_spec, presets, AnalyzeOptions};
use sidr_coords::{Coord, Shape};
use sidr_core::exec::ExecOptions;
use sidr_core::framework::{
    run_query, run_spec_on_pool, FrameworkMode, RunOptions, SpecRunOptions,
};
use sidr_core::spec::JobSpec;
use sidr_core::{Operator, SidrPlanner, StructuralQuery};
use sidr_mapreduce::executor::TaskExecutor;
use sidr_mapreduce::{
    reexecuted_maps, run_job_with_executor, FaultPlan, InMemoryOutput, JobResult, SlotPool,
    SplitGenerator, TaskEvent, TaskKind,
};
use sidr_scifile::gen::{DatasetSpec, ValueModel};
use sidr_scifile::ScincFile;
use sidr_serve::fleet::{Roster, WorkerConn, WorkerRequest, WorkerResponse};
use sidr_serve::frame::{self, Role};
use sidr_serve::transport::{Fate, Transport};
use sidr_serve::{
    Client, Fleet, Mem, RemoteJob, ServeError, Server, ServerConfig, SubmitOptions, Tcp,
};
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

/// Committed keyblocks, `(reducer, records)`.
type Keyblocks = Vec<(usize, Vec<(Coord, f64)>)>;

/// The per-keyblock commits in reducer order: the exact record sequence
/// each keyblock streamed.
fn keyblock_commits(out: &InMemoryOutput<Coord, f64>) -> Keyblocks {
    let mut commits: Vec<_> = (out.commits().into_iter())
        .map(|c| (c.reducer, c.records))
        .collect();
    commits.sort_by_key(|(reducer, _)| *reducer);
    commits
}

/// Runs `spec`'s admitted plan with its attempts on `remote`, as the
/// server's job thread does.
fn run_remote(
    spec: &JobSpec,
    remote: &RemoteJob<'_>,
    out: &InMemoryOutput<Coord, f64>,
    pool: &SlotPool,
) -> JobResult {
    let (plan, report) = admit_spec(spec, None, &AnalyzeOptions::default()).unwrap();
    assert!(!report.has_errors(), "{report}");
    let config = spec.job_config(FaultPlan::none());
    run_job_with_executor(&spec.splits, &plan.job, out, &config, pool, None, remote).unwrap()
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
    let remote = fleet.prepare_job(&spec, &input, &ExecOptions::default());
    let pool = SlotPool::new(4, spec.num_reducers).unwrap();
    let out = InMemoryOutput::<Coord, f64>::new();
    let result = run_remote(&spec, &remote, &out, &pool);

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

/// Dispatch connections each worker's coordinator has opened, from its
/// `sidr_fleet_worker_dials_total` series (probes dial apart).
fn dispatch_dials(workers: &[Worker]) -> Vec<u64> {
    let series = |w: &Worker| {
        sidr_obs::global()
            .counter("sidr_fleet_worker_dials_total", "", &[("worker", w.addr())])
            .get()
    };
    workers.iter().map(series).collect()
}

/// One job on `fleet` through `pool`: its keyblocks and timeline.
fn fleet_job(
    fleet: &Fleet,
    pool: &SlotPool,
    (spec, input): (&JobSpec, &str),
) -> (Keyblocks, Vec<TaskEvent>) {
    let remote = fleet.prepare_job(spec, input, &ExecOptions::default());
    let out = InMemoryOutput::<Coord, f64>::new();
    let result = run_remote(spec, &remote, &out, pool);
    (keyblock_commits(&out), result.events)
}

/// The coordinator keeps its dispatch connections. A fig08-scale job
/// on 2 workers through 2 + 2 slots runs every attempt on worker 0 and
/// opens at most one connection per slot, plus one, to it, though it
/// takes more dispatches than that; worker 1 is never picked, so it
/// gets no dial and never holds the job. A second job opens none.
#[test]
fn dispatch_reuses_idle_connections() {
    const SLOTS: (usize, usize) = (2, 2);
    let bound = (SLOTS.0 + SLOTS.1 + 1) as u64;
    let (spec, input) = fig08_scale_fixture("reuse");
    let workers = spawn_workers(2);
    let fleet = Fleet::connect(Arc::new(Tcp), addrs(&workers)).expect("fleet connects");
    let pool = SlotPool::new(SLOTS.0, SLOTS.1).unwrap();

    let before = dispatch_dials(&workers);
    let remote = fleet.prepare_job(&spec, &input, &ExecOptions::default());
    let out = InMemoryOutput::<Coord, f64>::new();
    run_remote(&spec, &remote, &out, &pool);
    let prepared: Vec<usize> = workers.iter().map(Worker::prepared_jobs).collect();
    drop(remote);
    let first = keyblock_commits(&out);
    let opened: Vec<u64> = (dispatch_dials(&workers).iter().zip(&before))
        .map(|(now, then)| now - then)
        .collect();
    assert!(
        (1..=bound).contains(&opened[0]),
        "worker 0: {} dispatch connections for one job",
        opened[0]
    );
    assert_eq!(opened[1], 0, "the idle worker 1 was dialed");
    assert_eq!(prepared, vec![1, 0], "jobs held while the job ran");
    let idle = workers[1].stat();
    assert_eq!((idle.map_attempts, idle.reduce_attempts), (0, 0));
    // `Prepare` and every attempt it ran, each one dispatch.
    let busiest = workers[0].stat();
    let dispatches = 1 + busiest.map_attempts + busiest.reduce_attempts;
    assert!(
        dispatches > bound,
        "worker 0 took only {dispatches} dispatches"
    );

    let after = dispatch_dials(&workers);
    let (second, _) = fleet_job(&fleet, &pool, (&spec, &input));
    assert_eq!(
        dispatch_dials(&workers),
        after,
        "the second job dialed instead of reusing"
    );
    assert_eq!(first.len(), 11);
    assert_eq!(first, second, "both jobs stream the same keyblocks");
}

/// An idle connection to a worker that died, or died and came back, is
/// stale: the exchange on it fails, and the request goes once more on a
/// fresh dial, which alone decides whether the worker is dead. Every
/// job below streams the single-process keyblocks, and none charges an
/// attempt to its retry budget:
/// 1. a job leaves idle connections to w0;
/// 2. w0 is killed, and the next job runs on w1;
/// 3. a new worker takes w0's address, rejoins, and takes the next
///    job's maps;
/// 4. w0 joins a job and restarts once more: the new w0 answers the
///    job's next attempt `UnknownJob`, which costs no attempt and moves
///    it to w1; the next pick prepares the new w0 afresh, so it runs
///    later attempts, and the job's end reaches it on the heartbeat.
#[test]
fn stale_connections_are_never_a_death_verdict() {
    let (spec, input) = tiny_fixture("stale");
    let file = ScincFile::open(&input).unwrap();
    let local = InMemoryOutput::<Coord, f64>::new();
    let pool = SlotPool::new(2, 2).unwrap();
    let opts = SpecRunOptions::default();
    run_spec_on_pool(&file, &spec, &opts, &local, &pool, None).unwrap();
    let expected = keyblock_commits(&local);

    let mut workers = spawn_workers(2);
    let addr0 = workers[0].addr().to_string();
    let fleet = Fleet::connect(Arc::new(Tcp), addrs(&workers)).expect("fleet connects");
    let uncharged = |step: &str, (got, events): (Vec<_>, Vec<TaskEvent>)| {
        assert_eq!(got, expected, "{step}: output differs");
        let charged = (events.iter()).find(|e| {
            e.attempt > 0 || matches!(e.kind, TaskKind::MapFailed | TaskKind::ReduceFailed)
        });
        assert_eq!(charged, None, "{step}: an attempt was charged");
    };
    // Restarts w0 at its address, and waits until the fleet sees it
    // alive.
    let respawn = |workers: &mut Vec<Worker>| {
        workers[0].kill();
        workers[0] = Worker::spawn(Arc::new(Tcp), &addr0, WorkerOptions::default())
            .expect("w0's address is free again");
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !fleet.stats()[0].alive {
            assert!(std::time::Instant::now() < deadline, "w0 never rejoined");
            thread::sleep(Duration::from_millis(20));
        }
    };

    uncharged("first job", fleet_job(&fleet, &pool, (&spec, &input)));
    assert!(workers[0].stat().map_attempts > 0, "w0 took the first job");

    workers[0].kill();
    let before = workers[1].stat().map_attempts;
    uncharged("after the kill", fleet_job(&fleet, &pool, (&spec, &input)));
    let ran = workers[1].stat().map_attempts - before;
    assert_eq!(ran as usize, spec.splits.len(), "w1 ran every map");

    respawn(&mut workers);
    uncharged(
        "after the rejoin",
        fleet_job(&fleet, &pool, (&spec, &input)),
    );
    assert!(workers[0].stat().map_attempts > 0, "the new w0 took work");

    let remote = fleet.prepare_job(&spec, &input, &ExecOptions::default());
    let split = &spec.splits[0];
    (remote.execute_map(0, 0, false, split, &|_| true)).expect("w0 joins the job");
    assert_eq!(workers[0].prepared_jobs(), 1, "w0 holds the job");
    respawn(&mut workers);
    let out = InMemoryOutput::<Coord, f64>::new();
    let result = run_remote(&spec, &remote, &out, &pool);
    drop(remote);
    uncharged("restart mid-job", (keyblock_commits(&out), result.events));
    let w0 = workers[0].stat();
    assert!(
        w0.map_attempts + w0.reduce_attempts > 0,
        "the new w0 was never prepared afresh"
    );
    swept_within(&workers[0], "the job's end missed the new w0");
}

/// Waits for `worker` to hold no job and no partition, for at most 25
/// heartbeat periods of 200 ms.
fn swept_within(worker: &Worker, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while (worker.prepared_jobs(), worker.stat().partitions_held) != (0, 0) {
        assert!(Instant::now() < deadline, "{what}");
        thread::sleep(Duration::from_millis(20));
    }
}

/// A worker cut off while its job ends misses nothing: the end is in
/// every probe's roster, so the first probe that reaches the worker
/// again sweeps the job's executor and partitions off it.
#[test]
fn a_worker_that_misses_the_jobs_end_is_swept_once_reachable() {
    let (spec, input) = tiny_fixture("missed-end");
    let cut = Arc::new(AtomicBool::new(false));
    let net: Arc<dyn Transport> = Arc::new(Mem::with_faults({
        let cut = Arc::clone(&cut);
        move |crossing, _| {
            let to_w0 = crossing.inbound && crossing.endpoint == "w0";
            match to_w0 && cut.load(Ordering::SeqCst) {
                true => Fate::Cut,
                false => Fate::Deliver(Duration::ZERO),
            }
        }
    }));
    let workers: Vec<Worker> = (["w0", "w1"].iter())
        .map(|addr| Worker::spawn(Arc::clone(&net), addr, WorkerOptions::default()).unwrap())
        .collect();
    let fleet = Fleet::connect(Arc::clone(&net), vec!["w0".into(), "w1".into()]).unwrap();
    let remote = fleet.prepare_job(&spec, &input, &ExecOptions::default());
    for (task, split) in spec.splits.iter().enumerate().take(3) {
        (remote.execute_map(task, 0, false, split, &|_| true)).expect("w0 runs the map");
    }
    let held = workers[0].stat().partitions_held;
    assert!(held > 0, "w0 holds no partition");

    cut.store(true, Ordering::SeqCst);
    drop(remote);
    let deadline = Instant::now() + Duration::from_secs(5);
    while fleet.stats()[0].alive {
        assert!(Instant::now() < deadline, "the fleet never lost w0");
        thread::sleep(Duration::from_millis(20));
    }
    let w0 = &workers[0];
    assert_eq!(
        (w0.prepared_jobs(), w0.stat().partitions_held),
        (1, held),
        "w0 heard of the job's end while cut off"
    );

    cut.store(false, Ordering::SeqCst);
    swept_within(w0, "w0 kept the ended job once reachable");
    assert_eq!(workers[1].stat().map_attempts, 0, "w1 ran maps");
    std::fs::remove_file(&input).ok();
}

/// A killed worker hangs up every connection it accepted: a handler
/// parked on a kept dispatch connection returns within one heartbeat
/// (200 ms), with no further dispatch on it, and the connection reads
/// end-of-stream, not a timeout.
#[test]
fn kill_hangs_up_kept_connections() {
    const HEARTBEAT: Duration = Duration::from_millis(200);
    let worker = &spawn_workers(1)[0];
    // Two kept connections, each handler parked on its next request:
    // one served a `Ping`, one was only handshaken.
    let mut conns: Vec<_> = (0..2)
        .map(|_| {
            let mut conn = Tcp.dial(worker.addr(), Some(HEARTBEAT)).unwrap();
            frame::handshake_dial(&mut conn, Role::Coordinator, Role::Worker).unwrap();
            conn
        })
        .collect();
    let ping = WorkerRequest::Ping {
        roster: Roster::default(),
    };
    frame::send(&mut conns[0], &ping).unwrap();
    let pong = frame::recv::<WorkerResponse>(&mut conns[0]);
    assert!(
        matches!(pong, Ok(Some(WorkerResponse::Pong(_)))),
        "{pong:?}"
    );

    worker.kill();
    for (i, conn) in conns.iter_mut().enumerate() {
        let next = frame::recv::<WorkerResponse>(conn);
        assert!(matches!(next, Ok(None)), "connection {i}: {next:?}");
    }
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
    // Issues no job id, so it ends no job.
    let roster = Roster::default;
    let prepare = WorkerRequest::Prepare {
        roster: roster(),
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
    match ask(WorkerRequest::Ping { roster: roster() }).0 {
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

/// A coordinator never opens a fleet job's input: the path is the
/// workers' to read. A missing input fails the job with the workers'
/// `Prepare` refusal, not with the coordinator's own open error, so a
/// coordinator that cannot see the workers' files still serves them.
#[test]
fn fleet_job_input_is_opened_by_the_workers_only() {
    let (spec, _) = tiny_fixture("missing");
    let input = std::env::temp_dir()
        .join("sidr-worker-tests")
        .join(format!("absent-{}.scinc", std::process::id()));
    let workers = spawn_workers(2);
    let server = Server::bind(
        Arc::new(Tcp),
        "127.0.0.1:0",
        ServerConfig {
            workers: addrs(&workers),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let handle = server.handle();
    thread::spawn(move || server.run());

    let mut client = Client::connect(&addr).unwrap();
    let ticket = client
        .submit(&spec, &input.to_string_lossy(), SubmitOptions::default())
        .unwrap();
    match client.stream_job(ticket.job, |_, _, _| panic!("no keyblock can stream")) {
        Err(ServeError::JobFailed(why)) => {
            assert!(why.contains("rejected the job"), "{why}");
            assert!(!why.contains("cannot open input"), "{why}");
        }
        other => panic!("expected the workers' refusal, got {other:?}"),
    }
    assert_eq!(handle.stats().jobs_failed, 1);
    client.shutdown().ok();
}

/// One clock, one order: a job's events ascend, and each reduce
/// attempt's `ReduceMergeDone` lies between that attempt's
/// `ReduceBarrierMet` and its reducer's `ReduceEnd`. Returns how many
/// barriers each reducer met.
fn assert_one_clock_one_order(events: &[TaskEvent], reducers: usize) -> Vec<u32> {
    assert!(events.is_sorted_by_key(|e| e.at), "events out of order");
    let at = |kind, task, attempt: Option<u32>| {
        let of = |e: &TaskEvent| e.kind == kind && e.task == task;
        (events
            .iter()
            .position(|e| of(e) && attempt.is_none_or(|a| e.attempt == a)))
        .unwrap_or_else(|| panic!("no {kind:?} of {task} attempt {attempt:?}"))
    };
    let merges = (events.iter().enumerate()).filter(|(_, e)| e.kind == TaskKind::ReduceMergeDone);
    let mut merged = vec![0; reducers];
    for (i, e) in merges {
        let barrier = at(TaskKind::ReduceBarrierMet, e.task, Some(e.attempt));
        let end = at(TaskKind::ReduceEnd, e.task, None);
        assert!(
            barrier < i && i < end,
            "reducer {} attempt {}",
            e.task,
            e.attempt
        );
        merged[e.task] += 1;
    }
    assert_eq!(merged, vec![1; reducers], "one merge per reducer");
    let mut barriers = vec![0; reducers];
    for e in events
        .iter()
        .filter(|e| e.kind == TaskKind::ReduceBarrierMet)
    {
        barriers[e.task] += 1;
    }
    barriers
}

/// The in-process engine and a served fleet job over `Mem` keep their
/// record alike. Reducer 1's first attempt fails at its barrier, so it
/// meets two barriers and merges on its second attempt only.
#[test]
fn engine_and_fleet_records_keep_one_clock_and_one_order() {
    let (spec, input) = tiny_fixture("one-clock");
    let reducers = spec.num_reducers;
    let faults = FaultPlan::fail_reducers_first_attempt([1]);
    let mut expected = vec![1; reducers];
    expected[1] = 2;

    let job = presets::preset("query1-tiny").expect("preset exists");
    let mut opts = RunOptions::new(FrameworkMode::Sidr, reducers);
    opts.fault_plan = faults.clone();
    let local = run_query(&ScincFile::open(&input).unwrap(), &job.query, &opts).unwrap();
    assert_eq!(
        assert_one_clock_one_order(&local.result.events, reducers),
        expected
    );

    let net: Arc<dyn Transport> = Arc::new(Mem::default());
    let _workers: Vec<Worker> = (["w0", "w1"].iter())
        .map(|addr| Worker::spawn(Arc::clone(&net), addr, WorkerOptions::default()).unwrap())
        .collect();
    let config = ServerConfig {
        workers: vec!["w0".into(), "w1".into()],
        ..ServerConfig::default()
    };
    let server = Server::bind(Arc::clone(&net), "coord", config).unwrap();
    thread::spawn(move || server.run());
    let mut client = Client::dial(&*net, "coord").unwrap();
    let submit = SubmitOptions {
        fault_plan: faults,
        ..SubmitOptions::default()
    };
    let ticket = client.submit(&spec, &input, submit).unwrap();
    let outcome = client.stream_job(ticket.job, |_, _, _| {}).unwrap();
    assert!(outcome.completed);
    assert_eq!(
        assert_one_clock_one_order(&outcome.events, reducers),
        expected
    );
    client.shutdown().ok();
}
