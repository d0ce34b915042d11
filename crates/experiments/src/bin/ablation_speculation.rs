//! Ablation: speculative execution under injected stragglers — now a
//! *closed-loop* benchmark against the real engine, not the simulator.
//!
//! §4.2 attributes reduce-completion variance to "abnormally
//! long-running Map tasks". Stock Hadoop's defense is speculative
//! execution — racing a second copy of the slowest map, first commit
//! wins. This binary injects a straggler into the fig08-scale
//! weekly-averages workload and measures, on the in-process engine:
//!
//! 1. wall time with speculation off vs on (the cohort-quantile
//!    trigger) — acceptance requires the rescue to cut wall time by
//!    at least 1.5x;
//! 2. the wasted-work ratio (losing racers per executed map attempt);
//! 3. the deadline-hit rate under the engine's deadline: speculation
//!    configured to never self-trigger and the spec carrying
//!    `deadline_ms`, so only the coordinator loop's deadline-pressure boost
//!    (SIDR-I014, `sidr_mr_deadline_boosts_total`) can rescue the run
//!    before the engine abandons it.
//!
//! Emits `results/BENCH_speculation.json`:
//!
//! ```text
//! cargo run --release -p sidr-experiments --bin ablation_speculation
//! cargo run --release -p sidr-experiments --bin ablation_speculation -- --tiny
//! ```
//!
//! Every run's keyblock commits are compared against a fault-free
//! baseline; the report is only healthy when all of them match.

use std::process::ExitCode;
use std::time::Instant;

use serde::Serialize;

use sidr_coords::{Coord, Shape};
use sidr_core::framework::{run_spec_on_pool, SpecRunOptions};
use sidr_core::spec::JobSpec;
use sidr_core::{Operator, SidrPlanner, StructuralQuery};
use sidr_mapreduce::{
    FaultPlan, InMemoryOutput, JobResult, MrError, SlotPool, SpeculationPolicy, SplitGenerator,
    TaskKind,
};
use sidr_scifile::gen::{DatasetSpec, ValueModel};
use sidr_scifile::ScincFile;

struct Args {
    tiny: bool,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        tiny: false,
        out: "results/BENCH_speculation.json".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--tiny" => args.tiny = true,
            "--out" => args.out = it.next().ok_or("--out needs a path")?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Figure-8's weekly-average geometry scaled to run in seconds:
/// {112,25,20} f32 rows averaged over {7,5,1} windows, 8
/// extraction-aligned splits; `--tiny` halves the time axis for CI.
struct Workload {
    name: &'static str,
    query: StructuralQuery,
    reducers: usize,
    splits_hint: u64,
    straggle_ms: u64,
    deadline_ms: u64,
    runs: usize,
}

fn workload(tiny: bool) -> Workload {
    let (rows, name, straggle_ms, runs) = if tiny {
        (56u64, "fig08-tiny", 600, 2)
    } else {
        (112u64, "fig08-scaled", 1_500, 3)
    };
    Workload {
        name,
        query: StructuralQuery::new(
            "temperature",
            Shape::new(vec![rows, 25, 20]).expect("valid"),
            Shape::new(vec![7, 5, 1]).expect("valid"),
            Operator::Mean,
        )
        .expect("query is structural"),
        reducers: 11,
        splits_hint: 4,
        straggle_ms,
        // The straggler alone busts the deadline; only a rescue
        // (speculative twin) can bring the job in under it.
        deadline_ms: straggle_ms,
        runs,
    }
}

/// The per-keyblock commits in canonical (reducer-sorted) order — the
/// byte-identity invariant every speculative run must preserve.
type Keyblocks = Vec<(usize, Vec<(Coord, f64)>)>;

struct RunOutput {
    wall_ms: u64,
    result: JobResult,
    keyblocks: Keyblocks,
}

fn run_once(
    file: &ScincFile,
    spec: &JobSpec,
    fault_plan: FaultPlan,
) -> sidr_core::Result<RunOutput> {
    let pool = SlotPool::new(4, 4).expect("pool");
    let out = InMemoryOutput::<Coord, f64>::new();
    let opts = SpecRunOptions {
        fault_plan,
        ..SpecRunOptions::default()
    };
    let started = Instant::now();
    let result = run_spec_on_pool(file, spec, &opts, &out, &pool, None)?;
    let wall_ms = started.elapsed().as_millis() as u64;
    let mut keyblocks: Keyblocks = out
        .commits()
        .into_iter()
        .map(|c| (c.reducer, c.records))
        .collect();
    keyblocks.sort_by_key(|(reducer, _)| *reducer);
    Ok(RunOutput {
        wall_ms,
        result,
        keyblocks,
    })
}

fn count_events(result: &JobResult, kind: TaskKind) -> u64 {
    result.events.iter().filter(|e| e.kind == kind).count() as u64
}

fn median(mut xs: Vec<u64>) -> u64 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

#[derive(Serialize)]
struct BenchReport {
    bench: String,
    workload: String,
    num_maps: usize,
    num_reducers: usize,
    straggle_ms: u64,
    runs: usize,
    /// Median wall time with the straggler and speculation disabled.
    wall_ms_off: u64,
    /// Median wall time with the cohort-quantile trigger racing the
    /// straggler.
    wall_ms_on: u64,
    speedup: f64,
    speculative_launched: u64,
    speculative_lost: u64,
    /// Losing racers per executed map attempt (speculation-on runs).
    wasted_work_ratio: f64,
    deadline_ms: u64,
    deadline_hits_off: usize,
    deadline_hits_on: usize,
    deadline_hit_rate_on: f64,
    /// Deadline-pressure boosts across the deadline runs
    /// (`sidr_mr_deadline_boosts_total`).
    deadline_boosts: u64,
    /// Every run, speculative or not, streamed keyblocks identical to
    /// the fault-free baseline.
    output_identical: bool,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("ablation_speculation: {msg}");
            return ExitCode::from(2);
        }
    };
    let w = workload(args.tiny);

    let dir = std::env::temp_dir().join("sidr-speculation-bench");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("{}-{}.scinc", w.name, std::process::id()));
    let space = w.query.input_space().clone();
    DatasetSpec {
        variable: w.query.variable.clone(),
        dim_names: (0..space.rank()).map(|d| format!("d{d}")).collect(),
        space,
        model: ValueModel::LinearIndex,
        seed: 0,
    }
    .generate::<f32>(&path)
    .expect("dataset generates");
    let file = ScincFile::open(&path).expect("dataset opens");

    let splits = SplitGenerator::new(w.query.input_space().clone(), w.splits_hint)
        .aligned(25 * 20 * 4 * 14, 7)
        .expect("splits generate");
    let plan = SidrPlanner::new(&w.query, w.reducers)
        .build(&splits)
        .expect("plan builds");
    let spec = JobSpec::from_plan(&w.query, &splits, &plan).expect("spec builds");
    let num_maps = splits.len();
    let straggler = num_maps - 1;
    let straggle_plan = || FaultPlan::straggle_maps([straggler], w.straggle_ms);

    // Fault-free ground truth.
    let baseline = run_once(&file, &spec, FaultPlan::none()).expect("baseline runs");
    let mut all_identical = true;

    println!("== Speculation ablation: closed loop on the engine ==");
    println!(
        "workload {} ({} maps, {} reducers), straggler on map {straggler} ({} ms)\n",
        w.name, num_maps, w.reducers, w.straggle_ms
    );

    // ---- Arm 1: straggler, speculation off. ----
    let mut walls_off = Vec::new();
    let mut deadline_hits_off = 0usize;
    for _ in 0..w.runs {
        let run = run_once(&file, &spec, straggle_plan()).expect("straggled run");
        all_identical &= run.keyblocks == baseline.keyblocks;
        deadline_hits_off += usize::from(run.wall_ms <= w.deadline_ms);
        walls_off.push(run.wall_ms);
    }

    // ---- Arm 2: straggler, cohort-quantile speculation on. ----
    let mut walls_on = Vec::new();
    let mut launched = 0u64;
    let mut lost = 0u64;
    let mut attempts = 0u64;
    let speculating = spec.clone().with_speculation(SpeculationPolicy::on());
    for _ in 0..w.runs {
        let run = run_once(&file, &speculating, straggle_plan()).expect("speculative run");
        all_identical &= run.keyblocks == baseline.keyblocks;
        launched += count_events(&run.result, TaskKind::MapSpeculated);
        lost += count_events(&run.result, TaskKind::MapSpeculationLost);
        attempts += count_events(&run.result, TaskKind::MapStart);
        walls_on.push(run.wall_ms);
    }

    // ---- Arm 3: deadline pressure, the engine's boost alone. ----
    // The trigger's slowdown factor is set astronomically high, so the
    // *only* way a twin launches is the loop projecting that the
    // job threatens its deadline and boosting the trigger (SIDR-I014).
    // A run the boost cannot rescue ends in `DeadlineExceeded`.
    let pressed = spec
        .clone()
        .with_speculation(SpeculationPolicy {
            slowdown: 1e9,
            ..SpeculationPolicy::on()
        })
        .with_deadline_ms(w.deadline_ms);
    let boosts = &sidr_mapreduce::metrics::runtime().deadline_boosts;
    let boosts_before = boosts.get();
    let mut deadline_hits_on = 0usize;
    for _ in 0..w.runs {
        match run_once(&file, &pressed, straggle_plan()) {
            Ok(run) => {
                all_identical &= run.keyblocks == baseline.keyblocks;
                deadline_hits_on += 1;
            }
            Err(sidr_core::SidrError::Engine(MrError::DeadlineExceeded { .. })) => {}
            Err(e) => panic!("deadline run failed: {e}"),
        }
    }
    let deadline_boosts = boosts.get() - boosts_before;

    let wall_ms_off = median(walls_off);
    let wall_ms_on = median(walls_on);
    let speedup = wall_ms_off as f64 / wall_ms_on.max(1) as f64;
    let report = BenchReport {
        bench: "speculative execution vs stragglers (closed loop)".into(),
        workload: w.name.into(),
        num_maps,
        num_reducers: w.reducers,
        straggle_ms: w.straggle_ms,
        runs: w.runs,
        wall_ms_off,
        wall_ms_on,
        speedup,
        speculative_launched: launched,
        speculative_lost: lost,
        wasted_work_ratio: lost as f64 / attempts.max(1) as f64,
        deadline_ms: w.deadline_ms,
        deadline_hits_off,
        deadline_hits_on,
        deadline_hit_rate_on: deadline_hits_on as f64 / w.runs as f64,
        deadline_boosts,
        output_identical: all_identical,
    };
    let json = serde_json::to_string(&report).expect("report serializes");
    if let Some(parent) = std::path::Path::new(&args.out).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("ablation_speculation: cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    println!("{json}");
    std::fs::remove_file(&path).ok();

    let mut healthy = true;
    if !all_identical {
        eprintln!("[!!] some speculative run diverged from the baseline");
        healthy = false;
    }
    if speedup < 1.5 {
        eprintln!("[!!] speculation cut wall time only {speedup:.2}x (acceptance: >= 1.5x)");
        healthy = false;
    }
    if deadline_hits_on < w.runs {
        eprintln!(
            "[!!] the deadline boost missed the deadline in {} of {} runs",
            w.runs - deadline_hits_on,
            w.runs
        );
        healthy = false;
    }
    if healthy {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
