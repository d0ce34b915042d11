//! `sidr-benchmark`: submit → first keyblock → done on the in-process
//! engine and on a `sidr-worker` fleet, five workloads, a staged
//! per-layer trace. See `benchmark/README.md`.

mod adapter;
mod compare;
mod engine_child;
mod expo;
mod metrics;
mod procs;
mod reference;
mod report;
mod run;
mod staged;
mod stats;
mod sut;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use adapter::BoxErr;

/// How long one run measures unless `--seconds` says otherwise; also
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 15;

const USAGE: &str = "\
usage: sidr-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                          [--out FILE] [--out-dir DIR] [--corrupt-reference]
       sidr-benchmark compare A.json B.json
       sidr-benchmark manifest
       sidr-benchmark engine-child --input F --spec F --map-slots N --reduce-slots N";

struct RunArgs {
    workload: Option<String>,
    out: Option<PathBuf>,
    opts: run::Options,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, BoxErr> {
    let mut parsed = RunArgs {
        workload: None,
        out: None,
        opts: run::Options {
            seed: 1,
            seconds: RUN_SECONDS as f64,
            trace: false,
            out_dir: PathBuf::from("benchmark/out"),
            corrupt_reference: false,
        },
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--corrupt-reference" {
            parsed.opts.corrupt_reference = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value.clone()),
            "--seed" => parsed.opts.seed = value.parse()?,
            "--seconds" => parsed.opts.seconds = value.parse()?,
            "--trace" => {
                parsed.opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}").into()),
                }
            }
            "--out" => parsed.out = Some(value.into()),
            "--out-dir" => parsed.opts.out_dir = value.into(),
            other => return Err(format!("unknown flag {other}").into()),
        }
    }
    if !(parsed.opts.seconds > 0.0 && parsed.opts.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(parsed)
}

fn run_command(args: &[String]) -> Result<bool, BoxErr> {
    let RunArgs {
        workload,
        out,
        opts,
    } = parse_run_args(args)?;
    let selected: Vec<&'static workload::Workload> = match &workload {
        Some(name) => vec![workload::find(name).ok_or_else(|| {
            let names: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload {name:?}; one of {names:?}")
        })?],
        None => workload::WORKLOADS.iter().collect(),
    };
    std::fs::create_dir_all(&opts.out_dir)?;
    let mut results = Vec::new();
    for w in selected {
        let result = run::run(w, &opts)?;
        report::print_table(w, &result);
        // The contract's result line: the last line of stdout.
        println!("{}", report::result_line(&result)?);
        results.push(result);
    }
    if let Some(path) = out {
        std::fs::write(&path, report::result_file(&opts, &results))?;
    }
    Ok(results.iter().all(run::RunResult::correct))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match command {
        "run" => run_command(rest),
        "compare" => compare::main(rest),
        "manifest" => {
            print!("{}", report::manifest());
            Ok(true)
        }
        "engine-child" => engine_child::main(rest).map(|()| true),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("sidr-benchmark {command}: {e}");
            ExitCode::FAILURE
        }
    }
}
