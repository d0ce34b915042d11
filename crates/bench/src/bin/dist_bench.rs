//! `dist-bench`: macro-benchmark of the distributed execution path.
//!
//! Runs the CI-scale preset against a loopback `sidr-worker` fleet and
//! against the single-process engine, then kills one worker mid-job to
//! measure dependency-scoped recovery (§6) at the fleet level. Emits
//! `results/BENCH_dist.json`:
//!
//! ```text
//! cargo run --release -p sidr-bench --bin dist-bench
//! cargo run --release -p sidr-bench --bin dist-bench -- --workers 5 --runs 8
//! ```
//!
//! Reported: per-worker attempt throughput, coordinator-observed
//! dispatch latency p50/p99 (from the `sidr_fleet_dispatch_seconds`
//! histogram), distributed vs single-process wall time, and the wall
//! time of a run that loses a worker after every map has committed —
//! recovery cost is re-executing exactly the dead worker's share of
//! the dependency sets, not the whole map phase.

use std::process::ExitCode;
use std::thread;
use std::time::{Duration, Instant};

use serde::Serialize;

use sidr_analyze::presets;
use sidr_core::exec::ExecOptions;
use sidr_core::framework::{run_spec_on_pool, run_spec_with_executor, SpecRunOptions};
use sidr_core::spec::JobSpec;
use sidr_core::SidrPlanner;
use sidr_mapreduce::{reexecuted_maps, FaultPlan, InMemoryOutput, SlotPool};
use sidr_obs::metrics::Histogram;
use sidr_scifile::gen::{DatasetSpec, ValueModel};
use sidr_scifile::ScincFile;
use sidr_serve::{fleet_metrics, Fleet, FleetConfig};
use sidr_worker::Worker;

struct Args {
    workers: usize,
    runs: usize,
    out: String,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            workers: 3,
            runs: 5,
            out: "results/BENCH_dist.json".into(),
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut num = |name: &str| -> Result<usize, String> {
            let v = it.next().ok_or(format!("{name} needs a value"))?;
            v.parse().map_err(|_| format!("bad value {v:?} for {name}"))
        };
        match arg.as_str() {
            "--workers" => args.workers = num("--workers")?,
            "--runs" => args.runs = num("--runs")?,
            "--out" => args.out = it.next().ok_or("--out needs a path")?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workers == 0 || args.runs == 0 {
        return Err("--workers and --runs must be nonzero".into());
    }
    Ok(args)
}

#[derive(Serialize)]
struct Percentiles {
    p50_ms: u64,
    p99_ms: u64,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p / 100.0).round() as usize;
    sorted[idx]
}

fn percentiles(mut samples: Vec<u64>) -> Percentiles {
    samples.sort_unstable();
    Percentiles {
        p50_ms: percentile(&samples, 50.0),
        p99_ms: percentile(&samples, 99.0),
    }
}

/// Upper-bound percentile estimate from a histogram's cumulative
/// buckets, Prometheus-style: the smallest bucket bound covering the
/// requested quantile. `delta` subtracts a pre-run snapshot so the
/// estimate covers only the observations this phase added.
fn histogram_quantile_ms(after: &[(f64, u64)], before: &[(f64, u64)], q: f64) -> f64 {
    let total = after.last().map_or(0, |(_, c)| *c) - before.last().map_or(0, |(_, c)| *c);
    if total == 0 {
        return 0.0;
    }
    let rank = (q * total as f64).ceil() as u64;
    let mut last_finite = 0.0;
    for (i, (bound, after_c)) in after.iter().enumerate() {
        let before_c = before.get(i).map_or(0, |(_, c)| *c);
        if after_c - before_c >= rank {
            return if bound.is_finite() {
                bound * 1e3
            } else {
                last_finite * 1e3
            };
        }
        if bound.is_finite() {
            last_finite = *bound;
        }
    }
    last_finite * 1e3
}

fn snapshot(h: &Histogram) -> Vec<(f64, u64)> {
    h.cumulative_buckets()
}

#[derive(Serialize)]
struct WorkerSide {
    addr: String,
    map_attempts: u64,
    reduce_attempts: u64,
    /// Lifetime attempts over the distributed phase's total wall time.
    tasks_per_sec: f64,
}

#[derive(Serialize)]
struct DispatchLatency {
    p50_ms: f64,
    p99_ms: f64,
    observations: u64,
}

#[derive(Serialize)]
struct RecoverySide {
    /// Wall time of the run that loses a worker after all maps commit.
    wall_ms: u64,
    /// Maps the dead worker held (the union of the pending attempts'
    /// dependency sets `I_ℓ`).
    lost_maps: usize,
    /// Maps the engine actually re-executed — must equal `lost_maps`.
    reexecuted_maps: usize,
    /// Recovery run over the clean distributed p50: the fleet-level
    /// cost of losing one worker's map output.
    vs_distributed_p50: f64,
    /// Recovery run over the single-process p50.
    vs_single_process_p50: f64,
}

#[derive(Serialize)]
struct BenchReport {
    bench: String,
    preset: String,
    workers: usize,
    runs: usize,
    per_worker: Vec<WorkerSide>,
    dispatch: DispatchLatency,
    distributed_wall: Percentiles,
    single_process_wall: Percentiles,
    /// Distributed p50 over single-process p50: the loopback framing +
    /// shuffle-over-TCP overhead on a CI-scale job.
    dist_over_local_p50: f64,
    recovery: RecoverySide,
}

fn fixture() -> (JobSpec, String, usize) {
    let job = presets::preset("query1-tiny").expect("preset exists");
    let plan = SidrPlanner::new(&job.query, job.reducer_counts[0])
        .build(&job.splits)
        .expect("preset plans");
    let spec = JobSpec::from_plan(&job.query, &job.splits, &plan).expect("spec builds");
    let dir = std::env::temp_dir().join("sidr-dist-bench");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let input = dir.join(format!("tiny-{}.scinc", std::process::id()));
    let space = job.query.input_space().clone();
    DatasetSpec {
        variable: job.query.variable.clone(),
        dim_names: (0..space.rank()).map(|d| format!("d{d}")).collect(),
        space,
        model: ValueModel::LinearIndex,
        seed: 0,
    }
    .generate::<f32>(&input)
    .expect("dataset generates");
    let reducers = job.reducer_counts[0];
    (spec, input.to_string_lossy().into_owned(), reducers)
}

fn run_opts() -> SpecRunOptions {
    SpecRunOptions {
        validate_annotations: true,
        ..SpecRunOptions::default()
    }
}

fn spawn_fleet(n: usize) -> (Vec<Worker>, Fleet) {
    let workers: Vec<Worker> = (0..n)
        .map(|_| Worker::spawn("127.0.0.1:0").expect("bind loopback"))
        .collect();
    let addrs = workers.iter().map(|w| w.addr().to_string()).collect();
    let fleet = Fleet::connect(FleetConfig::new(addrs)).expect("fleet connects");
    (workers, fleet)
}

fn teardown(workers: Vec<Worker>, fleet: Fleet) {
    fleet.shutdown();
    for w in &workers {
        w.kill();
    }
    for w in &workers {
        w.wait();
    }
}

/// One distributed run; `mid_job` runs on the choreographing thread
/// once the job is in flight (see `crates/worker/tests/dist.rs` for
/// the gate-reopen rationale).
fn run_distributed(
    workers: &[Worker],
    fleet: &Fleet,
    spec: &JobSpec,
    input: &str,
    mid_job: impl FnOnce(u64) + Send,
) -> (Duration, Vec<sidr_mapreduce::TaskEvent>) {
    let opts = ExecOptions {
        validate_annotations: true,
        filter_pushdown: false,
        fault_plan: FaultPlan::none(),
    };
    let remote = fleet.prepare_job(spec, input, &opts).expect("prepare");
    let pool = SlotPool::new(4, spec.num_reducers).expect("pool");
    let out = InMemoryOutput::<sidr_coords::Coord, f64>::new();
    let started = Instant::now();
    let result = thread::scope(|s| {
        let runner =
            s.spawn(|| run_spec_with_executor(spec, &run_opts(), &out, &pool, None, &remote));
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
    let wall = started.elapsed();
    remote.finish();
    (wall, result.events)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("dist-bench: {msg}");
            return ExitCode::from(2);
        }
    };

    let (spec, input, reducers) = fixture();
    let num_maps = spec.splits.len();

    // ---- Single-process reference. ----
    let mut local_walls = Vec::new();
    {
        let file = ScincFile::open(&input).expect("dataset opens");
        for _ in 0..args.runs {
            let pool = SlotPool::new(4, reducers).expect("pool");
            let out = InMemoryOutput::<sidr_coords::Coord, f64>::new();
            let started = Instant::now();
            run_spec_on_pool(&file, &spec, &run_opts(), &out, &pool, None)
                .expect("local run succeeds");
            local_walls.push(started.elapsed().as_millis() as u64);
        }
    }

    // ---- Clean distributed runs. ----
    let dispatch_before = snapshot(&fleet_metrics().dispatch_seconds);
    let (workers, fleet) = spawn_fleet(args.workers);
    let mut dist_walls = Vec::new();
    let dist_started = Instant::now();
    for _ in 0..args.runs {
        let (wall, events) = run_distributed(&workers, &fleet, &spec, &input, |_| {});
        assert!(
            reexecuted_maps(&events).is_empty(),
            "clean run must not re-execute maps"
        );
        dist_walls.push(wall.as_millis() as u64);
    }
    let dist_total = dist_started.elapsed().as_secs_f64();
    let dispatch_after = snapshot(&fleet_metrics().dispatch_seconds);

    let per_worker: Vec<WorkerSide> = workers
        .iter()
        .map(|w| {
            let s = w.stat();
            WorkerSide {
                addr: s.addr,
                map_attempts: s.map_attempts,
                reduce_attempts: s.reduce_attempts,
                tasks_per_sec: (s.map_attempts + s.reduce_attempts) as f64 / dist_total,
            }
        })
        .collect();
    teardown(workers, fleet);

    let dispatch = DispatchLatency {
        p50_ms: histogram_quantile_ms(&dispatch_after, &dispatch_before, 0.50),
        p99_ms: histogram_quantile_ms(&dispatch_after, &dispatch_before, 0.99),
        observations: dispatch_after.last().map_or(0, |(_, c)| *c)
            - dispatch_before.last().map_or(0, |(_, c)| *c),
    };

    // ---- Recovery: lose one worker after every map has committed. ----
    // Shuffle fetches are gated so nothing is consumed before the
    // kill; the dead worker's entire committed share must re-execute.
    let (workers, fleet) = spawn_fleet(args.workers);
    for w in &workers {
        w.set_fetch_delay(Duration::from_secs(600));
    }
    let mut lost = 0usize;
    let (recovery_wall, events) = {
        let workers = &workers;
        let lost = &mut lost;
        run_distributed(workers, &fleet, &spec, &input, move |job| {
            let committed =
                |ws: &[Worker]| -> usize { ws.iter().map(|w| w.committed_maps(job).len()).sum() };
            let deadline = Instant::now() + Duration::from_secs(30);
            while committed(workers) < num_maps {
                assert!(Instant::now() < deadline, "maps did not commit in 30s");
                thread::sleep(Duration::from_millis(2));
            }
            thread::sleep(Duration::from_millis(50));
            let (victim, _) = workers
                .iter()
                .enumerate()
                .max_by_key(|(_, w)| w.committed_maps(job).len())
                .expect("non-empty fleet");
            let mut held: Vec<usize> = workers[victim]
                .committed_maps(job)
                .into_iter()
                .map(|(task, _)| task)
                .collect();
            held.sort_unstable();
            held.dedup();
            *lost = held.len();
            workers[victim].kill();
            for w in workers.iter() {
                w.set_fetch_delay(Duration::ZERO);
            }
        })
    };
    teardown(workers, fleet);
    std::fs::remove_file(&input).ok();

    let reexecuted = reexecuted_maps(&events).len();
    let distributed_wall = percentiles(dist_walls);
    let single_process_wall = percentiles(local_walls);
    let ratio = |num: u64, den: u64| -> f64 {
        if den > 0 {
            num as f64 / den as f64
        } else {
            f64::INFINITY
        }
    };
    let report = BenchReport {
        bench: "sidr distributed execution".into(),
        preset: "query1-tiny".into(),
        workers: args.workers,
        runs: args.runs,
        per_worker,
        dispatch,
        dist_over_local_p50: ratio(distributed_wall.p50_ms, single_process_wall.p50_ms),
        recovery: RecoverySide {
            wall_ms: recovery_wall.as_millis() as u64,
            lost_maps: lost,
            reexecuted_maps: reexecuted,
            vs_distributed_p50: ratio(recovery_wall.as_millis() as u64, distributed_wall.p50_ms),
            vs_single_process_p50: ratio(
                recovery_wall.as_millis() as u64,
                single_process_wall.p50_ms,
            ),
        },
        distributed_wall,
        single_process_wall,
    };

    let json = serde_json::to_string(&report).expect("report serializes");
    if let Some(parent) = std::path::Path::new(&args.out).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("dist-bench: cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    println!("{json}");
    ExitCode::SUCCESS
}
