//! `spill-bench`: graceful degradation of the worker fleet under
//! memory pressure, at the fig08-scale geometry. Emits
//! `results/BENCH_spill.json`:
//!
//! ```text
//! cargo run --release -p sidr-bench --bin spill-bench
//! cargo run --release -p sidr-bench --bin spill-bench -- --budget 65536
//! ```
//!
//! Four phases, all holding the full intermediate footprint open (the
//! copy phase is gated until every map commits, the worst case a slow
//! reducer fleet creates):
//!
//! 1. **Unbounded** — the pre-budget behavior: peak resident bytes
//!    equal the whole footprint.
//! 2. **Budgeted** — the same job under a per-worker byte budget: cold
//!    partitions degrade to the disk spill tier, peak resident never
//!    exceeds the budget (admission makes room *before* tallying, so
//!    the watermark is a hard bound), and the output is
//!    byte-identical with zero re-executions.
//! 3. **ENOSPC** — every spill write fails: partitions stay pinned
//!    resident (over budget, with pressure advisories), and the job
//!    still completes byte-identical with zero re-executions.
//! 4. **Corrupt read-back** — two spilled partitions rot on disk: the
//!    CRC check rejects them and recovery re-executes exactly the
//!    damaged partitions' maps, output again byte-identical.

use std::path::PathBuf;
use std::process::ExitCode;
use std::thread;
use std::time::{Duration, Instant};

use serde::Serialize;

use sidr_coords::{Coord, Shape};
use sidr_core::exec::ExecOptions;
use sidr_core::framework::{run_spec_on_pool, run_spec_with_executor, SpecRunOptions};
use sidr_core::spec::JobSpec;
use sidr_core::{Operator, SidrPlanner, StructuralQuery};
use sidr_mapreduce::{
    reexecuted_maps, FaultKind, FaultPlan, FaultTarget, InMemoryOutput, SlotPool, SplitGenerator,
};
use sidr_scifile::gen::{DatasetSpec, ValueModel};
use sidr_scifile::ScincFile;
use sidr_serve::{Fleet, FleetConfig};
use sidr_worker::{Worker, WorkerOptions};

struct Args {
    workers: usize,
    budget: u64,
    out: String,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            workers: 3,
            budget: 64 * 1024,
            out: "results/BENCH_spill.json".into(),
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut num = |name: &str| -> Result<u64, String> {
            let v = it.next().ok_or(format!("{name} needs a value"))?;
            v.parse().map_err(|_| format!("bad value {v:?} for {name}"))
        };
        match arg.as_str() {
            "--workers" => args.workers = num("--workers")? as usize,
            "--budget" => args.budget = num("--budget")?,
            "--out" => args.out = it.next().ok_or("--out needs a path")?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workers == 0 || args.budget == 0 {
        return Err("--workers and --budget must be nonzero".into());
    }
    Ok(args)
}

/// Figure-8's weekly-average geometry scaled to a CI artifact — the
/// same fixture the distributed tests stress: {112,25,20} f32 rows
/// averaged over {7,5,1} windows, 8 extraction-aligned splits, 11
/// keyblocks whose dependency sets overlap across splits.
fn fixture() -> (JobSpec, String) {
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
    let plan = SidrPlanner::new(&query, 11).build(&splits).expect("plans");
    let spec = JobSpec::from_plan(&query, &splits, &plan).expect("spec builds");

    let dir = std::env::temp_dir().join("sidr-spill-bench");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let input = dir.join(format!("fig08-{}.scinc", std::process::id()));
    let space = query.input_space().clone();
    DatasetSpec {
        variable: query.variable.clone(),
        dim_names: (0..space.rank()).map(|d| format!("d{d}")).collect(),
        space,
        model: ValueModel::LinearIndex,
        seed: 0,
    }
    .generate::<f32>(&input)
    .expect("dataset generates");
    (spec, input.to_string_lossy().into_owned())
}

fn run_opts() -> SpecRunOptions {
    SpecRunOptions {
        validate_annotations: true,
        ..SpecRunOptions::default()
    }
}

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

fn run_local(spec: &JobSpec, input: &str) -> Keyblocks {
    let file = ScincFile::open(input).expect("dataset opens");
    let pool = SlotPool::new(4, 2).expect("pool");
    let out = InMemoryOutput::<Coord, f64>::new();
    run_spec_on_pool(&file, spec, &run_opts(), &out, &pool, None).expect("local run");
    keyblock_commits(&out)
}

fn spawn_fleet(n: usize, tag: &str, budget: u64, fail_spills: bool) -> (Vec<Worker>, Fleet) {
    let workers: Vec<Worker> = (0..n)
        .map(|i| {
            let dir: PathBuf = std::env::temp_dir()
                .join(format!("sidr-spill-bench-{}-{tag}-{i}", std::process::id()));
            Worker::spawn_with(
                "127.0.0.1:0",
                WorkerOptions {
                    budget_bytes: budget,
                    spill_dir: Some(dir),
                    fail_spills,
                },
            )
            .expect("bind loopback")
        })
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

/// Fleet-wide stat maxima/sums sampled while the whole footprint is
/// still held (every map committed, copy phase gated shut).
#[derive(Default)]
struct PeakSample {
    spilled_bytes: u64,
    spill_failures: u64,
}

/// One gated distributed run: shuffle fetches are held shut until
/// every map has committed (the full-footprint worst case), the peak
/// is sampled, then the gates reopen and the job drains.
fn run_gated(
    workers: &[Worker],
    fleet: &Fleet,
    spec: &JobSpec,
    input: &str,
    fault_plan: FaultPlan,
) -> (
    Duration,
    Vec<sidr_mapreduce::TaskEvent>,
    Keyblocks,
    PeakSample,
) {
    let num_maps = spec.splits.len();
    for w in workers {
        w.set_fetch_delay(Duration::from_secs(600));
    }
    let opts = ExecOptions {
        validate_annotations: true,
        filter_pushdown: false,
        fault_plan,
    };
    let remote = fleet.prepare_job(spec, input, &opts).expect("prepare");
    let pool = SlotPool::new(4, spec.num_reducers).expect("pool");
    let out = InMemoryOutput::<Coord, f64>::new();
    let started = Instant::now();
    let mut peak = PeakSample::default();
    let result = thread::scope(|s| {
        let runner =
            s.spawn(|| run_spec_with_executor(spec, &run_opts(), &out, &pool, None, &remote));
        let job = remote.job_id();
        let mid = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let committed =
                |ws: &[Worker]| -> usize { ws.iter().map(|w| w.committed_maps(job).len()).sum() };
            let deadline = Instant::now() + Duration::from_secs(60);
            while committed(workers) < num_maps {
                assert!(Instant::now() < deadline, "maps did not commit in 60s");
                thread::sleep(Duration::from_millis(2));
            }
            let mut sample = PeakSample::default();
            for w in workers {
                let s = w.stat();
                sample.spilled_bytes += s.spilled_bytes;
                sample.spill_failures += s.spill_failures;
            }
            sample
        }));
        for w in workers {
            w.set_fetch_delay(Duration::ZERO);
        }
        let result = runner.join().expect("runner thread");
        match mid {
            Ok(sample) => peak = sample,
            Err(panic) => std::panic::resume_unwind(panic),
        }
        result
    })
    .expect("distributed run succeeds");
    let wall = started.elapsed();
    let events = result.events;
    remote.finish();
    (wall, events, keyblock_commits(&out), peak)
}

#[derive(Serialize)]
struct UnboundedSide {
    wall_ms: u64,
    /// Max per-worker resident high-water mark: the whole footprint of
    /// that worker's share, since nothing ever spills.
    peak_resident_bytes: u64,
    byte_identical: bool,
}

#[derive(Serialize)]
struct BudgetedSide {
    wall_ms: u64,
    /// Max per-worker resident high-water mark under the budget.
    peak_resident_bytes: u64,
    /// Bytes degraded to the disk tier at the full-footprint peak.
    spilled_bytes_at_peak: u64,
    /// `peak_resident <= budget`: admission spills coldest partitions
    /// to make room *before* tallying the incoming bytes resident, so
    /// the watermark is a hard bound (only ENOSPC pinning can breach
    /// it, and this phase injects no spill failures).
    peak_within_bound: bool,
    byte_identical: bool,
    reexecuted_maps: usize,
}

#[derive(Serialize)]
struct EnospcSide {
    wall_ms: u64,
    /// Failed spill writes observed at the peak — every one a
    /// partition that stayed pinned resident instead of being lost.
    spill_failures: u64,
    byte_identical: bool,
    reexecuted_maps: usize,
}

#[derive(Serialize)]
struct CorruptSide {
    wall_ms: u64,
    damaged_maps: Vec<usize>,
    /// Must equal `damaged_maps`: recovery is scoped to the dependency
    /// sets of exactly the partitions whose replicas rotted.
    reexecuted_maps: Vec<usize>,
    byte_identical: bool,
}

#[derive(Serialize)]
struct BenchReport {
    bench: String,
    scale: String,
    workers: usize,
    budget_bytes: u64,
    unbounded: UnboundedSide,
    budgeted: BudgetedSide,
    enospc: EnospcSide,
    corrupt_readback: CorruptSide,
}

fn max_peak(workers: &[Worker]) -> u64 {
    workers
        .iter()
        .map(|w| w.stat().peak_resident_bytes)
        .max()
        .unwrap_or(0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("spill-bench: {msg}");
            return ExitCode::from(2);
        }
    };

    let (spec, input) = fixture();
    let expected = run_local(&spec, &input);

    // ---- Phase 1: unbounded (budget 0 disables the tier). ----
    let (workers, fleet) = spawn_fleet(args.workers, "unbounded", 0, false);
    let (wall, events, got, _) = run_gated(&workers, &fleet, &spec, &input, FaultPlan::none());
    assert!(reexecuted_maps(&events).is_empty());
    let unbounded = UnboundedSide {
        wall_ms: wall.as_millis() as u64,
        peak_resident_bytes: max_peak(&workers),
        byte_identical: got == expected,
    };
    teardown(workers, fleet);

    // ---- Phase 2: budgeted. ----
    let (workers, fleet) = spawn_fleet(args.workers, "budgeted", args.budget, false);
    let (wall, events, got, peak) = run_gated(&workers, &fleet, &spec, &input, FaultPlan::none());
    let peak_resident = max_peak(&workers);
    let budgeted = BudgetedSide {
        wall_ms: wall.as_millis() as u64,
        peak_resident_bytes: peak_resident,
        spilled_bytes_at_peak: peak.spilled_bytes,
        peak_within_bound: peak_resident <= args.budget,
        byte_identical: got == expected,
        reexecuted_maps: reexecuted_maps(&events).len(),
    };
    teardown(workers, fleet);

    // ---- Phase 3: ENOSPC on every spill write. ----
    let (workers, fleet) = spawn_fleet(args.workers, "enospc", args.budget, true);
    let (wall, events, got, peak) = run_gated(&workers, &fleet, &spec, &input, FaultPlan::none());
    let enospc = EnospcSide {
        wall_ms: wall.as_millis() as u64,
        spill_failures: peak.spill_failures,
        byte_identical: got == expected,
        reexecuted_maps: reexecuted_maps(&events).len(),
    };
    teardown(workers, fleet);

    // ---- Phase 4: corrupt + truncated read-backs. ----
    let damaged = vec![1usize, 6usize];
    let plan = FaultPlan::none()
        .with(FaultTarget::Map(damaged[0]), 0, FaultKind::SpillReadCorrupt)
        .with(
            FaultTarget::Map(damaged[1]),
            0,
            FaultKind::SpillReadTruncate,
        );
    let (workers, fleet) = spawn_fleet(args.workers, "corrupt", args.budget, false);
    let (wall, events, got, _) = run_gated(&workers, &fleet, &spec, &input, plan);
    let mut re = reexecuted_maps(&events);
    re.sort_unstable();
    re.dedup();
    let corrupt_readback = CorruptSide {
        wall_ms: wall.as_millis() as u64,
        damaged_maps: damaged,
        reexecuted_maps: re,
        byte_identical: got == expected,
    };
    teardown(workers, fleet);
    std::fs::remove_file(&input).ok();

    let report = BenchReport {
        bench: "sidr spill tier".into(),
        scale: "fig08-scale".into(),
        workers: args.workers,
        budget_bytes: args.budget,
        unbounded,
        budgeted,
        enospc,
        corrupt_readback,
    };

    let ok = report.unbounded.byte_identical
        && report.budgeted.byte_identical
        && report.budgeted.peak_within_bound
        && report.budgeted.reexecuted_maps == 0
        && report.budgeted.spilled_bytes_at_peak > 0
        && report.enospc.byte_identical
        && report.enospc.reexecuted_maps == 0
        && report.enospc.spill_failures > 0
        && report.corrupt_readback.byte_identical
        && report.corrupt_readback.reexecuted_maps == report.corrupt_readback.damaged_maps;

    let json = serde_json::to_string(&report).expect("report serializes");
    if let Some(parent) = std::path::Path::new(&args.out).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("spill-bench: cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    println!("{json}");
    if !ok {
        eprintln!("spill-bench: acceptance check failed (see JSON above)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
