//! Distributed-execution tests: a loopback 3-worker fleet must
//! produce output byte-identical to a single-process run, and a
//! worker killed mid-job must cost exactly the maps whose output it
//! held (§6) — no global or whole-`I_ℓ` re-execution, no lost or
//! duplicated keyblocks.
//!
//! A fleet fault is a `FaultPlan` entry (what misbehaves) or a script
//! on the wire (which frame is held or tampered): a scenario that needs
//! an interleaving puts a proxy in front of every worker ([`Seam`]) and
//! gates on the frames it sees there; the workers are the plain daemon.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

use sidr_analyze::presets;
use sidr_coords::{Coord, Shape};
use sidr_core::exec::ExecOptions;
use sidr_core::framework::{run_spec_on_pool, run_spec_with_executor, SpecRunOptions};
use sidr_core::spec::JobSpec;
use sidr_core::{Operator, SidrPlanner, StructuralQuery};
use sidr_mapreduce::executor::TaskExecutor;
use sidr_mapreduce::{
    reexecuted_maps, Counters, FaultKind, FaultPlan, FaultTarget, InMemoryOutput, JobResult,
    SlotPool, SpeculationPolicy, SplitGenerator, TaskKind,
};
use sidr_scifile::gen::{DatasetSpec, ValueModel};
use sidr_scifile::ScincFile;
use sidr_serve::binframe::{decode_keyblock, encode_keyblock};
use sidr_serve::fleet::{send_reply, WorkerConn, WorkerRequest, WorkerResponse};
use sidr_serve::frame::{self, Hello, Role};
use sidr_serve::{Client, Fleet, Server, ServerConfig, SubmitOptions};
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

fn addrs(workers: &[Worker]) -> Vec<String> {
    workers.iter().map(|w| w.addr().to_string()).collect()
}

fn fleet_of(workers: &[Worker]) -> Fleet {
    Fleet::connect(addrs(workers)).expect("fleet connects")
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
/// a reduce wanting it has started, and the chaos tests hold reduce
/// dispatches at the door, so queued-up reduces would never free a
/// slot.
///
/// However the choreography ends, `gates` (every gate a script of this
/// run parks frames at) open with it: the engine run can finish, and a
/// panic in `mid_job` surfaces as a test failure instead of
/// deadlocking the scope.
fn run_distributed(
    fleet: &Fleet,
    spec: &JobSpec,
    input: &str,
    plan: FaultPlan,
    gates: &[Gate],
    mid_job: impl FnOnce() + Send,
) -> (JobResult, Keyblocks) {
    let opts = exec_opts(plan);
    run_distributed_with(fleet, spec, input, opts, &run_opts(), gates, mid_job)
}

/// [`run_distributed`] with explicit worker- and engine-side options
/// (push-down).
fn run_distributed_with(
    fleet: &Fleet,
    spec: &JobSpec,
    input: &str,
    opts: ExecOptions,
    ropts: &SpecRunOptions,
    gates: &[Gate],
    mid_job: impl FnOnce() + Send,
) -> (JobResult, Keyblocks) {
    let remote = fleet.prepare_job(spec, input, &opts).expect("prepare");
    let pool = SlotPool::new(4, spec.num_reducers).unwrap();
    let out = InMemoryOutput::<Coord, f64>::new();
    let result = thread::scope(|s| {
        let runner = s.spawn(|| run_spec_with_executor(spec, ropts, &out, &pool, None, &remote));
        let mid = std::panic::catch_unwind(std::panic::AssertUnwindSafe(mid_job));
        gates.iter().for_each(Gate::open);
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

/// Spins until `pred` — over state the test itself owns — holds
/// (≤ 10 s; loopback runs get there in tens of milliseconds).
fn wait_until(mut pred: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !pred() {
        assert!(Instant::now() < deadline, "condition not reached in 10s");
        thread::sleep(Duration::from_millis(2));
    }
}

/// A door on the wire: a proxy script parks the frames it holds in
/// `wait` until the choreography opens it (or ends).
#[derive(Default)]
struct Gate(Mutex<bool>, Condvar);

impl Gate {
    fn wait(&self) {
        let mut open = self.0.lock().unwrap();
        while !*open {
            open = self.1.wait(open).unwrap();
        }
    }

    fn open(&self) {
        *self.0.lock().unwrap() = true;
        self.1.notify_all();
    }
}

/// One frame crossing a proxy, as the scenario's script sees it.
enum Crossing<'a> {
    /// A request not yet forwarded: a script blocking here holds it.
    Door(&'a WorkerRequest),
    /// The worker's answer (and the raw frame after it, if any), not
    /// yet relayed: a script may block, or tamper.
    Reply(
        &'a WorkerRequest,
        &'a mut WorkerResponse,
        Option<&'a mut Vec<u8>>,
    ),
}

/// One logged crossing, `(worker, request, reply)`: no reply yet at the
/// door, then the worker's own words, before any tampering.
type Logged = (usize, WorkerRequest, Option<WorkerResponse>);

/// The fleet's wire as a test owns it. With a proxy in front of every
/// worker the coordinator lists the proxies, so peers dial them too:
/// every frame of the job — self-fetches included — crosses here, is
/// logged, and then passes through the scenario's script.
struct Seam {
    /// One per worker, for scripts to park frames at.
    gates: Vec<Gate>,
    log: Mutex<Vec<Logged>>,
}

impl Seam {
    /// What `pick` makes of the crossings so far, in order.
    fn seen<T>(&self, pick: impl Fn(&Logged) -> Option<T>) -> Vec<T> {
        self.log.lock().unwrap().iter().filter_map(pick).collect()
    }

    fn count(&self, wanted: impl Fn(&Logged) -> bool) -> usize {
        self.seen(|crossing| wanted(crossing).then_some(())).len()
    }

    /// Placement, read off the wire: `(worker, task, attempt)` of every
    /// `MapDone` relayed so far — what a kill of that worker takes.
    fn maps_done(&self) -> Vec<(usize, usize, u32)> {
        self.seen(|crossing| match crossing {
            (w, _, Some(WorkerResponse::MapDone { task, attempt, .. })) => {
                Some((*w, *task, *attempt))
            }
            _ => None,
        })
    }
}

/// The worker index occurring most often in `placed`: the
/// highest-impact victim.
fn busiest(placed: &[usize]) -> usize {
    let count = |v: &usize| placed.iter().filter(|w| *w == v).count();
    *(placed.iter().max_by_key(|w| count(w))).expect("something was placed")
}

/// A fleet with a man-in-the-middle in front of each of `upstreams`
/// (worker addresses, listening yet or not): proxy `w` relays every
/// request on every connection to worker `w`, logging each crossing
/// and passing it through `script` — at the door, before the worker
/// sees the request, and with the reply, before the dialer sees that.
fn proxied_fleet(
    upstreams: Vec<String>,
    script: impl Fn(&Seam, usize, Crossing<'_>) + Send + Sync + 'static,
) -> (Fleet, Arc<Seam>) {
    let seam = Arc::new(Seam {
        gates: upstreams.iter().map(|_| Gate::default()).collect(),
        log: Mutex::default(),
    });
    let script = Arc::new(script);
    let mut proxies = Vec::new();
    for (w, upstream) in upstreams.into_iter().enumerate() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        proxies.push(listener.local_addr().unwrap().to_string());
        let (seam, script) = (Arc::clone(&seam), Arc::clone(&script));
        thread::spawn(move || {
            for conn in listener.incoming() {
                let (mut conn, upstream) = (conn.unwrap(), upstream.clone());
                let (seam, script) = (Arc::clone(&seam), Arc::clone(&script));
                // One relayed connection; ends when either side hangs up.
                thread::spawn(move || -> Option<()> {
                    let hello = frame::recv::<Hello>(&mut conn).ok()??;
                    let mut up = WorkerConn::dial_as(&upstream, hello.role, None).ok()?;
                    frame::handshake_accept(&mut conn, &hello, Role::Worker).ok()?;
                    while let Ok(Some(req)) = frame::recv::<WorkerRequest>(&mut conn) {
                        seam.log.lock().unwrap().push((w, req.clone(), None));
                        script(&seam, w, Crossing::Door(&req));
                        let (mut reply, mut raw) = up.request(&req).ok()?;
                        let entry = (w, req.clone(), Some(reply.clone()));
                        seam.log.lock().unwrap().push(entry);
                        script(&seam, w, Crossing::Reply(&req, &mut reply, raw.as_mut()));
                        send_reply(&mut conn, &reply, raw.as_deref()).ok()?;
                    }
                    Some(())
                });
            }
        });
    }
    let fleet = Fleet::connect(proxies).expect("fleet connects");
    (fleet, seam)
}

/// The script most chaos scenarios run: every reduce dispatch waits at
/// its worker's door, so until the gates open no source is fetched or
/// released, and a worker killed meanwhile takes its attempts with it.
fn hold_reduces(seam: &Seam, w: usize, x: Crossing<'_>) {
    if let Crossing::Door(WorkerRequest::RunReduce { .. }) = x {
        seam.gates[w].wait();
    }
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
    let (result, got) = run_distributed(&fleet, &spec, &input, FaultPlan::none(), &[], || {});

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

/// Kill a worker whose reduce attempts are dispatched and unanswered,
/// once the survivors' reduces have replied. A reduce attempt touches
/// nothing until it has replied, so a death anywhere before its
/// keyblock frame is one path: the same attempt runs on the next
/// worker, uncharged, finds the victim's partitions gone, and recovery
/// re-executes exactly the maps the victim held for *those* reducers.
/// Output matches the reference bit-for-bit.
#[test]
fn worker_death_mid_reduce_reexecutes_exactly_its_maps() {
    let (spec, input) = tiny_fixture("midreduce");
    let expected = run_local(&spec, &input);
    let deps = &spec.reduce_deps;

    let workers = spawn_workers(3);
    let (fleet, seam) = proxied_fleet(addrs(&workers), hold_reduces);
    // `(worker, reducer)` of each reduce dispatch that reached a door,
    // and how many attempts have answered with a keyblock.
    let dispatched = || {
        seam.seen(|crossing| match crossing {
            (w, WorkerRequest::RunReduce { reducer, .. }, None) => Some((*w, *reducer)),
            _ => None,
        })
    };
    let replied = || seam.count(|c| matches!(c.2, Some(WorkerResponse::ReduceDone { .. })));

    let mut lost_maps: Vec<usize> = Vec::new();
    let clean = FaultPlan::none();
    let (result, got) = run_distributed(&fleet, &spec, &input, clean, &seam.gates, || {
        // Every reducer is dispatched, so every map has committed.
        wait_until(|| dispatched().len() == deps.len());
        let at_door = dispatched();
        let victim = busiest(&at_door.iter().map(|d| d.0).collect::<Vec<_>>());
        let dying: Vec<usize> = (at_door.iter().filter(|d| d.0 == victim).map(|d| d.1)).collect();
        // The survivors' reduces run to their replies; the victim's
        // stay at its door.
        for (w, gate) in seam.gates.iter().enumerate() {
            if w != victim {
                gate.open();
            }
        }
        wait_until(|| replied() == deps.len() - dying.len());
        lost_maps = seam
            .maps_done()
            .into_iter()
            .filter(|&(w, m, _)| w == victim && dying.iter().any(|&r| deps[r].contains(&m)))
            .map(|(_, m, _)| m)
            .collect();
        lost_maps.sort_unstable();
        assert!(!lost_maps.is_empty(), "a reduce runs where its sources are");
        workers[victim].kill();
    });

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

/// Kill a worker while one map attempt is still in flight somewhere in
/// the fleet — its dispatch held at a door: the attempt is
/// re-dispatched at the same attempt number (not a recovery
/// re-execution), and only the victim's *committed* maps are
/// re-executed.
#[test]
fn worker_death_mid_map_reexecutes_only_committed_maps() {
    let (spec, input) = tiny_fixture("midmap");
    let expected = run_local(&spec, &input);
    let num_maps = spec.splits.len();
    let straggler = num_maps - 1;

    let workers = spawn_workers(3);
    let (fleet, seam) = proxied_fleet(addrs(&workers), move |seam, w, x| match x {
        Crossing::Door(WorkerRequest::RunMap { task, .. }) if *task == straggler => {
            seam.gates[w].wait()
        }
        x => hold_reduces(seam, w, x),
    });

    let mut lost_maps: Vec<usize> = Vec::new();
    let clean = FaultPlan::none();
    let (result, got) = run_distributed(&fleet, &spec, &input, clean, &seam.gates, || {
        // All maps but the straggler have committed and the straggler's
        // dispatch is on the wire: the kill lands mid-attempt.
        let straggling =
            |c: &Logged| matches!(c.1, WorkerRequest::RunMap { task, .. } if task == straggler);
        wait_until(|| seam.maps_done().len() == num_maps - 1 && seam.count(straggling) > 0);
        let done = seam.maps_done();
        let victim = busiest(&done.iter().map(|d| d.0).collect::<Vec<_>>());
        lost_maps = done.iter().filter(|d| d.0 == victim).map(|d| d.1).collect();
        lost_maps.sort_unstable();
        workers[victim].kill();
    });

    let reexecuted = reexecuted_maps(&result.events);
    assert_eq!(
        reexecuted, lost_maps,
        "only the victim's committed maps re-execute; the straggler \
         re-dispatches at its original attempt"
    );
    assert_eq!(got, expected, "output must survive the kill unchanged");
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
    let (fleet, _seam) = proxied_fleet(addrs(&workers), |seam, _, x| {
        let Crossing::Reply(
            WorkerRequest::RunReduce {
                reducer,
                attempt: 0,
                ..
            },
            WorkerResponse::ReduceDone { emitted, .. },
            Some(raw),
        ) = x
        else {
            return;
        };
        if *reducer >= TAMPERED {
            return;
        }
        // Hold the reply until the worker's release has landed: the
        // retry must find the sources gone.
        let released = |c: &Logged| {
            matches!(&c.1, WorkerRequest::Release { reducer: r, .. } if r == reducer)
                && c.2.is_some()
        };
        wait_until(|| seam.count(released) > 0);
        match reducer {
            0 => *raw.last_mut().unwrap() ^= 0x10,
            1 => {
                let kb = decode_keyblock(raw).unwrap();
                *raw = encode_keyblock(kb.job, kb.reducer + 1, 0, &kb.records).unwrap();
            }
            _ => *emitted += 1,
        }
    });

    let (result, got) = run_distributed(&fleet, &spec, &input, FaultPlan::none(), &[], || {});

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

    // Slot 0 is down at `Fleet::connect`: nothing listens behind its
    // proxy. The worker there starts while slot 1's `Prepared` is held
    // — i.e. after `prepare_job` skipped it — and the reply goes out
    // only once the heartbeat has revived it.
    let late_addr = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .unwrap()
        .to_string();
    let fleet: Arc<OnceLock<Fleet>> = Arc::default();
    let late: OnceLock<Worker> = OnceLock::new();
    let script = {
        let (fleet, late_addr) = (Arc::clone(&fleet), late_addr.clone());
        move |_: &Seam, w, x: Crossing<'_>| {
            if let (1, Crossing::Reply(WorkerRequest::Prepare { .. }, ..)) = (w, x) {
                late.get_or_init(|| Worker::spawn(late_addr.as_str()).expect("late worker binds"));
                let fleet = fleet.get().expect("fleet is connected");
                wait_until(|| fleet.stats()[0].alive);
            }
        }
    };
    let (connected, _seam) = proxied_fleet(vec![late_addr, workers[0].addr().to_string()], script);
    let fleet = fleet.get_or_init(|| connected);

    let (result, got) = run_distributed(fleet, &spec, &input, FaultPlan::none(), &[], || {});
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
        &[],
        || {},
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
    let (fleet, seam) = proxied_fleet(addrs(&workers), |_, _, _| {});

    let racing = spec
        .clone()
        .with_speculation(SpeculationPolicy::force([straggler]));
    // Which worker answered `MapDone` for the straggler's `attempt`.
    let host_of = |attempt: u32| {
        let done = seam.maps_done().into_iter();
        (done
            .filter(|d| (d.1, d.2) == (straggler, attempt))
            .map(|d| d.0))
        .next()
    };
    let mut hosts = (0, 0);
    let opts = exec_opts(plan);
    let (result, got) =
        run_distributed_with(&fleet, &racing, &input, opts, &run_opts(), &[], || {
            // Both racers' outputs register fleet-side: the twin fast, the
            // losing primary once its 2 s straggle drains.
            wait_until(|| host_of(0).is_some() && host_of(1).is_some());
            hosts = (host_of(0).unwrap(), host_of(1).unwrap());
        });

    assert_eq!(got, expected, "speculative fleet run diverged");
    assert!(
        reexecuted_maps(&result.events).is_empty(),
        "speculation must not register as recovery"
    );
    let twin_on_timeline = |kind| {
        let mut events = result.events.iter();
        events.any(|e| e.kind == kind && e.task == straggler && e.attempt == 1)
    };
    assert!(
        twin_on_timeline(TaskKind::MapSpeculated),
        "no speculative grant on the timeline"
    );
    assert!(
        twin_on_timeline(TaskKind::MapEnd),
        "the twin's commit must win the race"
    );
    assert_ne!(
        hosts.1, hosts.0,
        "speculative dispatch must prefer a worker not already running the primary"
    );
}

/// Spawns workers squeezed to a 1-byte resident budget, each with its
/// own spill directory under the test temp root.
fn spawn_budgeted_workers(n: usize, tag: &str) -> (Vec<Worker>, Vec<PathBuf>) {
    let dir = |i| format!("sidr-spill-test-{}-{tag}-{i}", std::process::id());
    let dirs: Vec<PathBuf> = (0..n).map(|i| std::env::temp_dir().join(dir(i))).collect();
    let spawn = |d: &PathBuf| {
        let options = WorkerOptions {
            budget_bytes: 1,
            spill_dir: Some(d.clone()),
        };
        Worker::spawn_with("127.0.0.1:0", options).expect("bind loopback")
    };
    (dirs.iter().map(spawn).collect(), dirs)
}

/// Every `.smof` (or stray `.tmp`) file under `dir`, recursively.
fn spill_files(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let under = |p: PathBuf| if p.is_dir() { spill_files(&p) } else { vec![p] };
    entries.flatten().flat_map(|e| under(e.path())).collect()
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

    let (workers, dirs) = spawn_budgeted_workers(3, "spilled");
    // No reduce starts before the sample, so every committed partition
    // is still held (and therefore spilled) when it is taken.
    let (fleet, seam) = proxied_fleet(addrs(&workers), hold_reduces);
    let mut spilled_at_peak = 0u64;
    let clean = FaultPlan::none();
    let (result, got) = run_distributed(&fleet, &spec, &input, clean, &seam.gates, || {
        wait_until(|| seam.maps_done().len() == num_maps);
        spilled_at_peak = workers.iter().map(|w| w.stat().spilled_bytes).sum();
    });

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

/// ENOSPC degrades gracefully: with every spill write failing
/// (`SpillWriteFail` scripted on every map), the over-budget
/// partitions stay pinned resident (pressure advisory, not data
/// loss), the job completes byte-identical, and nothing re-executes.
#[test]
fn enospc_spill_failures_stay_resident_and_complete() {
    let (spec, input) = tiny_fixture("enospc");
    let expected = run_local(&spec, &input);
    let num_maps = spec.splits.len();
    let disk_full = (0..num_maps).fold(FaultPlan::none(), |plan, m| {
        plan.with(FaultTarget::Map(m), 0, FaultKind::SpillWriteFail)
    });

    let (workers, _dirs) = spawn_budgeted_workers(3, "enospc");
    let (fleet, seam) = proxied_fleet(addrs(&workers), hold_reduces);
    let mut failures_at_peak = 0u64;
    let (result, got) = run_distributed(&fleet, &spec, &input, disk_full, &seam.gates, || {
        wait_until(|| seam.maps_done().len() == num_maps);
        failures_at_peak = workers.iter().map(|w| w.stat().spill_failures).sum();
    });

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

    let (workers, _dirs) = spawn_budgeted_workers(3, "readback");
    let fleet = fleet_of(&workers);
    let (result, got) = run_distributed(&fleet, &spec, &input, plan, &[], || {});

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
    let mut ask = |req: WorkerRequest| conn.request(&req).expect("the connection stays up");
    let prepare = WorkerRequest::Prepare {
        job: PANIC_JOB_ID,
        spec,
        input,
        opts: exec_opts(FaultPlan::none()),
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
    match ask(WorkerRequest::Ping).0 {
        WorkerResponse::Pong(stat) => assert!(stat.alive, "worker must report alive"),
        other => panic!("expected Pong, got {other:?}"),
    }
    let partitions = match ask(run_map(1)).0 {
        WorkerResponse::MapDone { partitions, .. } => partitions,
        other => panic!("map after the panic must succeed, got {other:?}"),
    };
    let reducer = *partitions.first().expect("map 0 feeds a reducer");
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

/// Regression: one worker refusing `Prepare` fails the job, and those
/// that had already answered `Prepared` kept its executor, open input
/// and pending counts forever. They are told `Finish` first.
#[test]
fn prepare_refused_by_one_worker_finishes_the_others() {
    let (spec, input) = tiny_fixture("refused");
    let workers = spawn_workers(2);
    let (fleet, seam) = proxied_fleet(addrs(&workers), |_, w, x| {
        if let (1, Crossing::Reply(WorkerRequest::Prepare { .. }, reply, _)) = (w, x) {
            *reply = WorkerResponse::Failed {
                detail: "scripted refusal".into(),
                fatal: false,
                lost_sources: Vec::new(),
            };
        }
    });

    let refused = fleet.prepare_job(&spec, &input, &exec_opts(FaultPlan::none()));
    assert!(refused.is_err(), "one refusal fails the job");
    let told_worker_0 = seam.seen(|crossing| match crossing {
        (0, WorkerRequest::Prepare { job, .. }, None) => Some(("Prepare", *job)),
        (0, WorkerRequest::Finish { job }, None) => Some(("Finish", *job)),
        _ => None,
    });
    assert!(
        matches!(told_worker_0[..], [("Prepare", a), ("Finish", b)] if a == b),
        "the prepared worker must be told to let go: {told_worker_0:?}"
    );
}

/// Regression: a restarted coordinator counts its jobs from 1 again,
/// and `Prepare` for an id the worker already knew left the old job's
/// partitions held until a `Finish` that never comes. It sweeps first.
#[test]
fn prepare_sweeps_what_a_vanished_coordinator_left_behind() {
    let (spec, input) = tiny_fixture("restart");
    let workers = spawn_workers(1);
    let opts = exec_opts(FaultPlan::none());

    let first = fleet_of(&workers);
    let job = first.prepare_job(&spec, &input, &opts).expect("prepare");
    for (task, split) in spec.splits.iter().enumerate() {
        job.execute_map(task, 0, false, split, &Counters::default(), &|_| true)
            .expect("map runs");
    }
    assert!(workers[0].stat().partitions_held > 0);
    // It goes away without `Finish`; its successor reuses the job id.
    drop(first);

    let second = fleet_of(&workers);
    let job = second.prepare_job(&spec, &input, &opts).expect("prepare");
    let held = workers[0].stat().partitions_held;
    assert_eq!(held, 0, "only the new job's output may be held: none yet");
    job.finish();
}

/// Regression: `finish` skipped a prepared worker that was only marked
/// dead — it missed heartbeats, it did not crash — so that worker kept
/// the job's executor and every partition until a restarted coordinator
/// reused the job id. `Finish` goes to every prepared worker.
#[test]
fn finish_reaches_a_worker_marked_dead_by_missed_heartbeats() {
    let (spec, input) = tiny_fixture("missedbeat");
    let workers = spawn_workers(1);
    // Once armed, every `Ping` waits at the door: the worker stays up,
    // but the coordinator's probes time out.
    let hold_pings = Arc::new(AtomicBool::new(false));
    let script = {
        let hold_pings = Arc::clone(&hold_pings);
        move |seam: &Seam, w: usize, x: Crossing<'_>| {
            if matches!(x, Crossing::Door(WorkerRequest::Ping)) && hold_pings.load(Ordering::SeqCst)
            {
                seam.gates[w].wait();
            }
        }
    };
    let (fleet, seam) = proxied_fleet(addrs(&workers), script);

    let job = (fleet.prepare_job(&spec, &input, &exec_opts(FaultPlan::none()))).expect("prepare");
    for (task, split) in spec.splits.iter().enumerate() {
        job.execute_map(task, 0, false, split, &Counters::default(), &|_| true)
            .expect("map runs");
    }
    assert!(workers[0].stat().partitions_held > 0);
    hold_pings.store(true, Ordering::SeqCst);
    wait_until(|| !fleet.stats()[0].alive);
    job.finish();
    seam.gates[0].open();
    assert_eq!(
        workers[0].stat().partitions_held,
        0,
        "a worker marked dead by missed heartbeats must still be told to finish"
    );
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
            workers: addrs(&workers),
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
