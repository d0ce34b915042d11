//! Distributed-execution tests: a loopback 3-worker fleet must
//! produce output byte-identical to a single-process run, and a
//! worker killed mid-job must cost exactly the maps whose output it
//! held (§6) — no global or whole-`I_ℓ` re-execution, no lost or
//! duplicated keyblocks.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

use sidr_analyze::presets;
use sidr_coords::{Coord, Shape};
use sidr_core::exec::ExecOptions;
use sidr_core::framework::{run_spec_on_pool, run_spec_with_executor, SpecRunOptions};
use sidr_core::spec::JobSpec;
use sidr_core::{Operator, SidrPlanner, StructuralQuery};
use sidr_mapreduce::{
    reexecuted_maps, FaultKind, FaultPlan, FaultTarget, InMemoryOutput, JobResult, SlotPool,
    SpeculationPolicy, SplitGenerator, TaskKind,
};
use sidr_scifile::gen::{DatasetSpec, ValueModel};
use sidr_scifile::ScincFile;
use sidr_serve::binframe::{decode_keyblock, encode_keyblock};
use sidr_serve::fleet::{PartitionStatus, WorkerConn, WorkerRequest, WorkerResponse};
use sidr_serve::frame::{self, Hello, Role};
use sidr_serve::{Client, Fleet, FleetConfig, Server, ServerConfig, SubmitOptions};
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
    (0..n)
        .map(|_| Worker::spawn("127.0.0.1:0").expect("bind loopback"))
        .collect()
}

fn fleet_of(workers: &[Worker]) -> Fleet {
    let addrs = workers.iter().map(|w| w.addr().to_string()).collect();
    Fleet::connect(FleetConfig::new(addrs)).expect("fleet connects")
}

fn exec_opts(fault_plan: FaultPlan) -> ExecOptions {
    ExecOptions {
        validate_annotations: true,
        filter_pushdown: false,
        fault_plan,
    }
}

fn run_opts() -> SpecRunOptions {
    SpecRunOptions {
        validate_annotations: true,
        ..SpecRunOptions::default()
    }
}

/// The per-keyblock commits in canonical (reducer-sorted) order: the
/// exact record sequence each keyblock streamed, which is the
/// byte-identity invariant distributed execution must preserve.
type Keyblocks = Vec<(usize, Vec<(Coord, f64)>)>;

fn keyblock_commits(out: &InMemoryOutput<Coord, f64>) -> Keyblocks {
    let mut commits: Vec<_> = out
        .commits()
        .into_iter()
        .map(|c| (c.reducer, c.records))
        .collect();
    commits.sort_by_key(|(reducer, _)| *reducer);
    commits
}

/// Runs the spec on the local in-process engine (the reference).
fn run_local(spec: &JobSpec, input: &str) -> Keyblocks {
    run_local_counted(spec, input).1
}

/// [`run_local`], with the engine's result (counters, timeline).
fn run_local_counted(spec: &JobSpec, input: &str) -> (JobResult, Keyblocks) {
    let file = ScincFile::open(input).unwrap();
    let pool = SlotPool::new(4, 2).unwrap();
    let out = InMemoryOutput::<Coord, f64>::new();
    let result = run_spec_on_pool(&file, spec, &run_opts(), &out, &pool, None).unwrap();
    (result, keyblock_commits(&out))
}

/// Runs the spec against an already-connected fleet, with `mid_job`
/// invoked from the choreographing thread once the job is in flight.
///
/// Reduce slots cover every keyblock so all reduces dispatch up
/// front: under inverted scheduling a map only becomes eligible once
/// a reduce wanting it has started, and the chaos tests gate the copy
/// phase, so queued-up reduces would never free a slot.
///
/// If the choreography itself panics, every worker's gates reopen so
/// the engine run can finish and the panic surfaces as a test failure
/// instead of deadlocking the scope.
fn run_distributed(
    workers: &[Worker],
    fleet: &Fleet,
    spec: &JobSpec,
    input: &str,
    opts: ExecOptions,
    mid_job: impl FnOnce(u64) + Send,
) -> (JobResult, Keyblocks) {
    run_distributed_with(workers, fleet, spec, input, opts, &run_opts(), mid_job)
}

/// [`run_distributed`] with explicit engine-side run options (the
/// speculation tests need a non-default policy).
fn run_distributed_with(
    workers: &[Worker],
    fleet: &Fleet,
    spec: &JobSpec,
    input: &str,
    opts: ExecOptions,
    ropts: &SpecRunOptions,
    mid_job: impl FnOnce(u64) + Send,
) -> (JobResult, Keyblocks) {
    let remote = fleet.prepare_job(spec, input, &opts).expect("prepare");
    let pool = SlotPool::new(4, spec.num_reducers).unwrap();
    let out = InMemoryOutput::<Coord, f64>::new();
    let result = thread::scope(|s| {
        let runner = s.spawn(|| run_spec_with_executor(spec, ropts, &out, &pool, None, &remote));
        let mid =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| mid_job(remote.job_id())));
        if mid.is_err() {
            for w in workers {
                w.set_fetch_delay(Duration::ZERO);
                w.set_reduce_delay(Duration::ZERO);
            }
        }
        let result = runner.join().expect("runner thread");
        if let Err(panic) = mid {
            std::panic::resume_unwind(panic);
        }
        result
    })
    .expect("distributed run succeeds");
    remote.finish();
    (result, keyblock_commits(&out))
}

/// Total maps committed across the fleet for `job`.
fn committed_total(workers: &[Worker], job: u64) -> usize {
    workers.iter().map(|w| w.committed_maps(job).len()).sum()
}

/// Spins until `pred` holds (10 s cap — generous; loopback runs hit
/// these conditions in tens of milliseconds).
fn wait_until(mut pred: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !pred() {
        assert!(Instant::now() < deadline, "condition not reached in 10s");
        thread::sleep(Duration::from_millis(2));
    }
}

/// The tasks whose committed map output `worker` holds for `job`
/// (sorted): what a kill takes with it.
fn held_maps(worker: &Worker, job: u64) -> Vec<usize> {
    let mut held: Vec<usize> = worker
        .committed_maps(job)
        .into_iter()
        .map(|(task, _attempt)| task)
        .collect();
    held.dedup();
    held
}

/// Tentpole e2e at fig08 scale: a 3-worker loopback fleet streams the
/// same keyblocks with the same in-block record order as the
/// single-process engine — byte-identical results, per the paper's
/// claim that routing (not placement) determines output.
#[test]
fn fleet_output_is_byte_identical_to_single_process() {
    let (spec, input) = fig08_scale_fixture("fig08");
    let (local, expected) = run_local_counted(&spec, &input);

    let workers = spawn_workers(3);
    let fleet = fleet_of(&workers);
    let (result, got) = run_distributed(
        &workers,
        &fleet,
        &spec,
        &input,
        exec_opts(FaultPlan::none()),
        |_| {},
    );

    assert_eq!(got.len(), 11, "one commit per keyblock");
    assert_eq!(got, expected, "streamed keyblocks must match exactly");
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
    // Every map attempt landed on the fleet, none ran in-process.
    let map_attempts: u64 = workers.iter().map(|w| w.stat().map_attempts).sum();
    assert_eq!(map_attempts as usize, spec.splits.len());
}

/// Kill a worker whose reduces have finished copying and are about to
/// merge. A reduce attempt touches nothing until it has replied, so a
/// death anywhere before its keyblock frame is one path: the same
/// attempt runs on the next worker, uncharged, finds the victim's
/// partitions gone, and recovery re-executes exactly the maps the
/// victim held for those reducers — every survivor's finished copy is
/// undisturbed. Output matches the reference bit-for-bit.
#[test]
fn worker_death_mid_reduce_reexecutes_exactly_its_maps() {
    let (spec, input) = tiny_fixture("midreduce");
    let expected = run_local(&spec, &input);

    let workers = spawn_workers(3);
    // Hold every reduce between its copy and its merge until the kill
    // has landed. (The knob is re-read every pause tick, so setting it
    // back to zero releases the held attempts.)
    for w in &workers {
        w.set_reduce_delay(Duration::from_secs(600));
    }
    let fleet = fleet_of(&workers);

    let mut lost_maps: Vec<usize> = Vec::new();
    let (result, got) = {
        let workers = &workers;
        let lost = &mut lost_maps;
        let deps = &spec.reduce_deps;
        run_distributed(
            workers,
            &fleet,
            &spec,
            &input,
            exec_opts(FaultPlan::none()),
            move |job| {
                // Every reducer has copied all its sources.
                wait_until(|| {
                    workers
                        .iter()
                        .map(|w| w.held_reduces().len())
                        .sum::<usize>()
                        == deps.len()
                });
                let victim = workers
                    .iter()
                    .max_by_key(|w| w.held_reduces().len())
                    .expect("non-empty fleet");
                let merging = victim.held_reduces();
                *lost = held_maps(victim, job);
                lost.retain(|m| merging.iter().any(|&r| deps[r].contains(m)));
                assert!(!lost.is_empty(), "a reduce runs where its sources are");
                victim.kill();
                for w in workers.iter() {
                    w.set_reduce_delay(Duration::ZERO);
                }
            },
        )
    };

    assert_eq!(
        reexecuted_maps(&result.events),
        lost_maps,
        "recovery must re-execute exactly the victim's maps its reducers need"
    );
    assert_eq!(
        result.counters.reduce_failures, 0,
        "a worker dying before its reply costs no retry budget"
    );
    assert_eq!(got, expected, "output must survive the kill unchanged");
}

/// Kill a worker while one map attempt is still running somewhere in
/// the fleet: the straggling attempt is re-dispatched at the same
/// attempt number (not a recovery re-execution), and only the
/// victim's *committed* maps are re-executed.
#[test]
fn worker_death_mid_map_reexecutes_only_committed_maps() {
    let (spec, input) = tiny_fixture("midmap");
    let expected = run_local(&spec, &input);
    let num_maps = spec.splits.len();
    let straggler = num_maps - 1;

    // The last task straggles on its first attempt — the fault script
    // ships to the workers through ExecOptions, so the delay happens
    // wherever the attempt lands. Long enough that the kill always
    // beats the straggler's commit.
    let plan = FaultPlan::none().with(
        FaultTarget::Map(straggler),
        0,
        FaultKind::Straggle { delay_ms: 3_000 },
    );

    let workers = spawn_workers(3);
    for w in &workers {
        w.set_fetch_delay(Duration::from_secs(600));
    }
    let fleet = fleet_of(&workers);

    let mut lost_maps: Vec<usize> = Vec::new();
    let (result, got) = {
        let workers = &workers;
        let lost = &mut lost_maps;
        run_distributed(
            workers,
            &fleet,
            &spec,
            &input,
            exec_opts(plan),
            move |job| {
                // All maps but the straggler commit, then the kill lands
                // while the straggling attempt is still in flight.
                wait_until(|| committed_total(workers, job) >= num_maps - 1);
                thread::sleep(Duration::from_millis(50));
                // The highest-impact victim: the most committed maps.
                let victim = workers
                    .iter()
                    .max_by_key(|w| w.committed_maps(job).len())
                    .expect("non-empty fleet");
                *lost = held_maps(victim, job);
                victim.kill();
                for w in workers.iter() {
                    w.set_fetch_delay(Duration::ZERO);
                }
            },
        )
    };

    let reexecuted = reexecuted_maps(&result.events);
    assert_eq!(
        reexecuted, lost_maps,
        "only the victim's committed maps re-execute; the straggler \
         re-dispatches at its original attempt"
    );
    assert_eq!(got, expected, "output must survive the kill unchanged");
}

/// A man-in-the-middle on the coordinator ↔ worker protocol: relays
/// every request, on every connection, to the real worker at
/// `upstream`, and passes each reply through `hook(request, reply,
/// raw)` before forwarding it — `raw` is the frame that follows a
/// `ReduceDone` or `Partition { Data }` header. The hook may block (to
/// force an interleaving) or tamper. A fleet lists the returned
/// address in place of the worker's.
fn spawn_proxy(
    upstream: String,
    hook: impl Fn(&WorkerRequest, &mut WorkerResponse, Option<&mut Vec<u8>>) + Send + Sync + 'static,
) -> String {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let hook = Arc::new(hook);
    thread::spawn(move || {
        for conn in listener.incoming() {
            let (mut conn, upstream, hook) = (conn.unwrap(), upstream.clone(), Arc::clone(&hook));
            // One relayed connection; ends when either side hangs up.
            thread::spawn(move || -> Option<()> {
                let hello = frame::recv::<Hello>(&mut conn).ok()??;
                let mut up = WorkerConn::dial_as(&upstream, hello.role, None).ok()?;
                frame::handshake_accept(&mut conn, &hello, Role::Worker).ok()?;
                while let Ok(Some(req)) = frame::recv::<WorkerRequest>(&mut conn) {
                    let mut reply = up.send(&req).and_then(|()| up.recv()).ok()?;
                    let mut raw = match reply {
                        WorkerResponse::ReduceDone { .. }
                        | WorkerResponse::Partition {
                            status: PartitionStatus::Data,
                        } => up.recv_raw().ok(),
                        _ => None,
                    };
                    hook(&req, &mut reply, raw.as_mut());
                    frame::send(&mut conn, &reply).ok()?;
                    if let Some(raw) = raw {
                        frame::write_frame(&mut conn, &raw).ok()?;
                    }
                }
                Some(())
            });
        }
    });
    addr
}

/// A reduce attempt's output crosses the worker → coordinator socket
/// as exactly one `KeyblockBin` frame after `ReduceDone`, and the
/// coordinator trusts none of it: a frame that fails its CRC, names a
/// different reducer, or disagrees with the announced record count
/// costs that attempt and is never committed. The honest worker behind
/// the proxy released its sources once its reply was written, so each
/// retry finds exactly those partitions gone, exactly their maps
/// re-execute, and the job commits the honest bytes.
#[test]
fn rejected_keyblock_frame_costs_the_attempt_and_exactly_the_released_maps() {
    let (spec, input) = tiny_fixture("hostile");
    let expected = run_local(&spec, &input);
    let workers = spawn_workers(1);

    // Attempt 0 of reducers 0, 1 and 2 is tampered with, one way each.
    const TAMPERED: usize = 3;
    let released: Mutex<Vec<usize>> = Mutex::default();
    let proxy = spawn_proxy(
        workers[0].addr().to_string(),
        move |req, reply, raw| match (req, reply, raw) {
            (WorkerRequest::Release { reducer, .. }, _, _) => {
                released.lock().unwrap().push(*reducer)
            }
            (
                WorkerRequest::RunReduce {
                    reducer,
                    attempt: 0,
                    ..
                },
                WorkerResponse::ReduceDone { emitted, .. },
                Some(raw),
            ) if *reducer < TAMPERED => {
                // Hold the reply until the worker's release has
                // landed: the retry must find the sources gone.
                wait_until(|| released.lock().unwrap().contains(reducer));
                match reducer {
                    0 => *raw.last_mut().unwrap() ^= 0x10,
                    1 => {
                        let kb = decode_keyblock(raw).unwrap();
                        *raw = encode_keyblock(kb.job, kb.reducer + 1, 0, &kb.records).unwrap();
                    }
                    _ => *emitted += 1,
                }
            }
            _ => {}
        },
    );

    let fleet = Fleet::connect(FleetConfig::new(vec![proxy])).expect("fleet connects");
    let (result, got) = run_distributed(
        &workers,
        &fleet,
        &spec,
        &input,
        exec_opts(FaultPlan::none()),
        |_| {},
    );

    assert_eq!(got, expected, "only honest keyblocks may commit");
    assert_eq!(
        result.counters.reduce_failures, TAMPERED as u64,
        "each rejected frame costs exactly its attempt"
    );
    let mut released_maps = spec.reduce_deps[..TAMPERED].concat();
    released_maps.sort_unstable();
    released_maps.dedup();
    assert_eq!(
        reexecuted_maps(&result.events),
        released_maps,
        "recovery must re-execute exactly the maps whose partitions were released"
    );
}

/// Regression: a worker that `prepare_job` skipped as dead and the
/// heartbeat revived before `prepare_job` returned was marked prepared
/// without ever receiving `Prepare`, and then failed every `RunMap`
/// ("job N is not prepared here") against the maps' retry budgets.
/// Only a worker that answered `Prepare` is part of the job.
#[test]
fn worker_revived_during_prepare_is_not_part_of_the_job() {
    let (spec, input) = tiny_fixture("lateworker");
    let expected = run_local(&spec, &input);
    let workers = spawn_workers(1);

    // Slot 0 is down at `Fleet::connect`. It starts while the proxy
    // holds slot 1's `Prepared` — i.e. after `prepare_job` skipped it —
    // and the reply goes out only once the heartbeat has revived it.
    let late_addr = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .unwrap()
        .to_string();
    let fleet: Arc<OnceLock<Fleet>> = Arc::default();
    let late: OnceLock<Worker> = OnceLock::new();
    let proxy = spawn_proxy(workers[0].addr().to_string(), {
        let (fleet, late_addr) = (Arc::clone(&fleet), late_addr.clone());
        move |req, _, _| {
            if matches!(req, WorkerRequest::Prepare { .. }) {
                late.get_or_init(|| Worker::spawn(late_addr.as_str()).expect("late worker binds"));
                let fleet = fleet.get().expect("fleet is connected");
                wait_until(|| fleet.stats()[0].alive);
            }
        }
    });
    let connected = Fleet::connect(FleetConfig::new(vec![late_addr, proxy]));
    let fleet = fleet.get_or_init(|| connected.expect("fleet connects"));

    let (result, got) = run_distributed(
        &workers,
        fleet,
        &spec,
        &input,
        exec_opts(FaultPlan::none()),
        |_| {},
    );
    assert_eq!(got, expected);
    assert_eq!(
        result.counters.map_failures, 0,
        "no attempt may land on the unprepared worker"
    );
}

/// Held or gone, when most partitions were never produced: a filter
/// pushed below the shuffle leaves most `(map, reducer)` pairs of the
/// dependency matrix without data. The coordinator names only held
/// partitions as sources, so nothing is reported lost, the output is
/// byte-identical to the single-process run, and after `Finish` no
/// worker holds a partition.
#[test]
fn pushed_down_filter_leaves_most_partitions_unproduced() {
    let job = presets::preset("query1-tiny").expect("preset exists");
    let mut query = job.query.clone();
    // Values are the linear index: only the top tenth passes.
    query.operator = Operator::Filter {
        threshold: query.input_space().count() as f64 * 0.9,
    };
    let (spec, input) = fixture("pushdown", &query, &job.splits, job.reducer_counts[0]);
    let expected = run_local(&spec, &input);

    let workers = spawn_workers(3);
    let fleet = fleet_of(&workers);
    let (result, got) = run_distributed_with(
        &workers,
        &fleet,
        &spec,
        &input,
        ExecOptions {
            filter_pushdown: true,
            ..ExecOptions::default()
        },
        &SpecRunOptions {
            filter_pushdown: true,
            ..SpecRunOptions::default()
        },
        |_| {},
    );

    assert_eq!(got, expected, "push-down must not change a single byte");
    // Splits are contiguous in the linear index, so a tenth of the
    // records surviving means most maps emitted nothing at all.
    let c = &result.counters;
    assert!(c.map_records_out > 0 && c.map_records_out * 5 < c.map_records_in);
    assert!(
        reexecuted_maps(&result.events).is_empty(),
        "an unproduced partition is not a lost one"
    );
    assert!(workers.iter().all(|w| w.stat().partitions_held == 0));
}

/// Fleet speculation chaos: the straggling map's primary attempt
/// blocks on one worker for 2 s while the engine races a speculative
/// twin that placement steers to a *different* worker; the twin's
/// commit stands, output matches the fault-free reference
/// byte-for-byte, and `reexecuted_maps` stays empty — speculation is
/// not recovery.
#[test]
fn speculative_twin_runs_on_different_worker_and_wins() {
    let (spec, input) = fig08_scale_fixture("speculate");
    let expected = run_local(&spec, &input);
    let num_maps = spec.splits.len();
    let straggler = num_maps - 1;

    // The straggle ships to whichever worker the primary attempt lands
    // on; the twin (attempt 1) is not scripted and runs at full speed.
    let plan = FaultPlan::none().with(
        FaultTarget::Map(straggler),
        0,
        FaultKind::Straggle { delay_ms: 2_000 },
    );
    let workers = spawn_workers(3);
    let fleet = fleet_of(&workers);

    let ropts = SpecRunOptions {
        speculation: SpeculationPolicy::force([straggler]),
        ..run_opts()
    };
    // Which worker holds (task, attempt) — queried mid-job, since
    // `finish()` purges per-job worker state once the run returns.
    let host_of = |job: u64, attempt: u32| -> Option<usize> {
        workers
            .iter()
            .position(|w| w.committed_maps(job).contains(&(straggler, attempt)))
    };
    let mut hosts: (Option<usize>, Option<usize>) = (None, None);
    let (result, got) = {
        let captured = &mut hosts;
        let host_of = &host_of;
        run_distributed_with(
            &workers,
            &fleet,
            &spec,
            &input,
            exec_opts(plan),
            &ropts,
            move |job| {
                // Both racers' outputs register fleet-side: the twin
                // fast, the losing primary once its 2 s straggle
                // drains.
                wait_until(|| host_of(job, 0).is_some() && host_of(job, 1).is_some());
                *captured = (host_of(job, 0), host_of(job, 1));
            },
        )
    };

    assert_eq!(got, expected, "speculative fleet run diverged");
    assert!(
        reexecuted_maps(&result.events).is_empty(),
        "speculation must not register as recovery"
    );
    assert!(
        result
            .events
            .iter()
            .any(|e| e.kind == TaskKind::MapSpeculated && e.task == straggler && e.attempt == 1),
        "no speculative grant on the timeline"
    );
    assert!(
        result
            .events
            .iter()
            .any(|e| e.kind == TaskKind::MapEnd && e.task == straggler && e.attempt == 1),
        "the twin's commit must win the race"
    );
    // The winning twin must have been placed on a different worker
    // than the primary it raced.
    let (primary_host, twin_host) = hosts;
    let primary_host = primary_host.expect("primary drained on a worker");
    let twin_host = twin_host.expect("twin committed on a worker");
    assert_ne!(
        twin_host, primary_host,
        "speculative dispatch must prefer a worker not already running the primary"
    );
}

/// Spawns a fleet of budgeted workers, each with its own spill
/// directory under the test temp root.
fn spawn_budgeted_workers(
    n: usize,
    tag: &str,
    budget: u64,
    fail_spills: bool,
) -> (Vec<Worker>, Vec<PathBuf>) {
    let dirs: Vec<PathBuf> = (0..n)
        .map(|i| {
            std::env::temp_dir().join(format!("sidr-spill-test-{}-{tag}-{i}", std::process::id()))
        })
        .collect();
    let workers = dirs
        .iter()
        .map(|d| {
            Worker::spawn_with(
                "127.0.0.1:0",
                WorkerOptions {
                    budget_bytes: budget,
                    spill_dir: Some(d.clone()),
                    fail_spills,
                },
            )
            .expect("bind loopback")
        })
        .collect();
    (workers, dirs)
}

/// Every `.smof` (or stray `.tmp`) file under `dir`, recursively.
fn spill_files(dir: &Path) -> Vec<PathBuf> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut out = Vec::new();
    walk(dir, &mut out);
    out
}

/// Tentpole: a fleet squeezed under a 1-byte resident budget spills
/// *every* partition to the disk tier and reads each back (validated)
/// on fetch — and the output is still byte-identical to the
/// single-process reference, with zero recovery re-executions. After
/// `Finish`, the job's spill namespace is swept: volatile
/// intermediate data leaves no orphaned files on disk.
#[test]
fn budgeted_fleet_spills_everything_and_output_is_identical() {
    let (spec, input) = fig08_scale_fixture("spilled");
    let expected = run_local(&spec, &input);
    let num_maps = spec.splits.len();

    let (workers, dirs) = spawn_budgeted_workers(3, "spilled", 1, false);
    // Gate the copy phase so every committed partition is still held
    // (and therefore spilled) when we sample the pressure summary.
    for w in &workers {
        w.set_fetch_delay(Duration::from_secs(600));
    }
    let fleet = fleet_of(&workers);
    let mut spilled_at_peak = 0u64;
    let (result, got) = {
        let workers = &workers;
        let spilled = &mut spilled_at_peak;
        run_distributed(
            workers,
            &fleet,
            &spec,
            &input,
            exec_opts(FaultPlan::none()),
            move |job| {
                wait_until(|| committed_total(workers, job) == num_maps);
                *spilled = workers.iter().map(|w| w.stat().spilled_bytes).sum();
                for w in workers.iter() {
                    w.set_fetch_delay(Duration::ZERO);
                }
            },
        )
    };

    assert_eq!(got, expected, "spilling must not change a single byte");
    assert!(
        reexecuted_maps(&result.events).is_empty(),
        "healthy spills are not losses; nothing re-executes"
    );
    assert!(
        spilled_at_peak > 0,
        "a 1-byte budget must push partitions to the disk tier"
    );
    // Admission makes room before tallying, so the resident watermark
    // is a hard bound: a 1-byte budget admits nothing.
    for w in &workers {
        let stat = w.stat();
        assert!(
            stat.peak_resident_bytes <= stat.budget_bytes,
            "peak {} exceeds budget {}",
            stat.peak_resident_bytes,
            stat.budget_bytes
        );
        assert_eq!(stat.spill_failures, 0, "no injected failures here");
    }
    // Orphan sweep: Finish must have deleted every job namespace.
    for d in &dirs {
        let leftovers = spill_files(d);
        assert!(
            leftovers.is_empty(),
            "orphaned spill files after job end: {leftovers:?}"
        );
    }
}

/// ENOSPC degrades gracefully: with every spill write failing, the
/// over-budget partitions stay pinned resident (pressure advisory,
/// not data loss), the job completes byte-identical, and nothing
/// re-executes.
#[test]
fn enospc_spill_failures_stay_resident_and_complete() {
    let (spec, input) = tiny_fixture("enospc");
    let expected = run_local(&spec, &input);
    let num_maps = spec.splits.len();

    let (workers, _dirs) = spawn_budgeted_workers(3, "enospc", 1, true);
    for w in &workers {
        w.set_fetch_delay(Duration::from_secs(600));
    }
    let fleet = fleet_of(&workers);
    let mut failures_at_peak = 0u64;
    let (result, got) = {
        let workers = &workers;
        let failures = &mut failures_at_peak;
        run_distributed(
            workers,
            &fleet,
            &spec,
            &input,
            exec_opts(FaultPlan::none()),
            move |job| {
                wait_until(|| committed_total(workers, job) == num_maps);
                *failures = workers.iter().map(|w| w.stat().spill_failures).sum();
                for w in workers.iter() {
                    w.set_fetch_delay(Duration::ZERO);
                }
            },
        )
    };

    assert_eq!(got, expected, "a full disk must not change the output");
    assert!(
        reexecuted_maps(&result.events).is_empty(),
        "ENOSPC fallback keeps partitions resident — no data loss, no recovery"
    );
    assert!(
        failures_at_peak > 0,
        "every spill attempt must have failed and been counted"
    );
}

/// Spill-tier disk rot routes through the same `I_ℓ`-scoped recovery
/// as a dead worker: two maps' spilled replicas are damaged (one bit
/// flip, one truncation), their read-backs fail the CRC, the holders
/// report the partitions lost, and exactly those two maps re-execute
/// — output byte-identical to the fault-free reference.
#[test]
fn corrupt_spill_readback_reexecutes_exactly_the_damaged_maps() {
    let (spec, input) = tiny_fixture("readback");
    let expected = run_local(&spec, &input);
    let damaged = [2usize, 5usize];
    let plan = FaultPlan::none()
        .with(FaultTarget::Map(damaged[0]), 0, FaultKind::SpillReadCorrupt)
        .with(
            FaultTarget::Map(damaged[1]),
            0,
            FaultKind::SpillReadTruncate,
        );

    let (workers, _dirs) = spawn_budgeted_workers(3, "readback", 1, false);
    let fleet = fleet_of(&workers);
    let (result, got) = run_distributed(&workers, &fleet, &spec, &input, exec_opts(plan), |_| {});

    assert_eq!(
        reexecuted_maps(&result.events),
        damaged.to_vec(),
        "recovery must re-execute exactly the damaged partitions' maps"
    );
    assert_eq!(
        got, expected,
        "output must survive spill-tier rot unchanged"
    );
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
    let worker = Worker::spawn("127.0.0.1:0").expect("bind loopback");
    let addr = worker.addr().to_string();

    let mut conn = WorkerConn::dial(&addr, Some(Duration::from_secs(30))).expect("dial");
    conn.send(&WorkerRequest::Prepare {
        job: PANIC_JOB_ID,
        spec_json: spec.to_json(),
        input: input.clone(),
        opts: exec_opts(FaultPlan::none()),
    })
    .unwrap();
    assert!(matches!(
        conn.recv().unwrap(),
        WorkerResponse::Prepared { .. }
    ));

    // Arm the hook: the next task attempt panics on entry. The panic
    // is caught at the attempt boundary and reported as a retryable
    // failure — the connection stays up.
    sidr_worker::inject_task_panics(PANIC_JOB_ID, 1);
    conn.send(&WorkerRequest::RunMap {
        job: PANIC_JOB_ID,
        task: 0,
        attempt: 0,
    })
    .unwrap();
    match conn.recv().unwrap() {
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
    conn.send(&WorkerRequest::Ping).unwrap();
    match conn.recv().unwrap() {
        WorkerResponse::Pong(stat) => assert!(stat.alive, "worker must report alive"),
        other => panic!("expected Pong, got {other:?}"),
    }
    conn.send(&WorkerRequest::RunMap {
        job: PANIC_JOB_ID,
        task: 0,
        attempt: 1,
    })
    .unwrap();
    let partitions = match conn.recv().unwrap() {
        WorkerResponse::MapDone { partitions, .. } => partitions,
        other => panic!("map after the panic must succeed, got {other:?}"),
    };
    let reducer = *partitions.first().expect("map 0 feeds a reducer");
    conn.send(&WorkerRequest::FetchPartition {
        job: PANIC_JOB_ID,
        map: 0,
        reducer,
        epoch: 1,
    })
    .unwrap();
    match conn.recv().unwrap() {
        WorkerResponse::Partition { status } => assert_eq!(status, PartitionStatus::Data),
        other => panic!("expected Partition, got {other:?}"),
    }
    let bytes = conn.recv_raw().unwrap();
    assert!(!bytes.is_empty(), "fetched partition carries SMOF bytes");
}

/// The serving path end-to-end: a coordinator configured with
/// `--worker` addresses dispatches submitted jobs to the fleet and
/// reports per-worker occupancy through `stats` (the `sidr-submit
/// stats` fleet view).
#[test]
fn server_dispatches_to_fleet_and_reports_worker_stats() {
    let (spec, input) = tiny_fixture("server");
    let workers = spawn_workers(3);

    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: workers.iter().map(|w| w.addr().to_string()).collect(),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.handle();
    thread::spawn(move || server.run());

    let mut client = Client::connect(addr).unwrap();
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

    // The attempt counts are heartbeat-cached on the coordinator: poll
    // (≤ 3 s) until the beat after the job's last task has landed.
    let attempts = |stats: &sidr_serve::ServerStats| {
        stats.workers.iter().fold((0, 0), |(maps, reduces), w| {
            (maps + w.map_attempts, reduces + w.reduce_attempts)
        })
    };
    let deadline = Instant::now() + Duration::from_secs(3);
    let mut stats = handle.stats();
    while attempts(&stats) != (12, 4) && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(2));
        stats = handle.stats();
    }
    assert_eq!(stats.workers.len(), 3, "every worker is reported");
    for w in &stats.workers {
        assert!(w.alive, "worker {} should be alive", w.addr);
        assert!(
            w.heartbeat_age_ms < 5_000,
            "heartbeat for {} is fresh",
            w.addr
        );
    }
    assert_eq!(
        attempts(&stats),
        (12, 4),
        "all 12 maps and all 4 reduces ran on the fleet"
    );

    client.shutdown().ok();
}
