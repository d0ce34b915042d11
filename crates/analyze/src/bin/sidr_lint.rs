//! `sidr-lint`: static verification of SIDR plans from the command
//! line.
//!
//! Builds (or loads) a plan and proves the five invariant classes —
//! coverage/disjointness, dependency soundness, the skew certificate,
//! scheduling feasibility and annotation conservation — reporting
//! findings as `SIDR-Exxx` diagnostics. Exits nonzero when any error
//! diagnostic is found, so CI can gate on it.
//!
//! ```text
//! sidr-lint --preset fig08              # lint a named experiment config
//! sidr-lint --preset table3 --json      # machine-readable findings
//! sidr-lint --spec job.json             # lint a serialized JobSpec
//! sidr-lint --preset query1-small --reducers 7 --skew-bound 64
//! ```

use std::process::ExitCode;

use sidr_analyze::{analyze_spec, presets, AnalyzeOptions};
use sidr_core::spec::JobSpec;
use sidr_core::verify::verify;
use sidr_core::SidrPlanner;

struct Args {
    presets: Vec<String>,
    spec: Option<String>,
    reducers: Option<usize>,
    skew_bound: Option<u64>,
    json: bool,
    quiet: bool,
}

fn usage() -> String {
    let mut text = String::from(
        "usage: sidr-lint [--preset NAME]... [--spec FILE] [options]\n\
         \n\
         Statically verifies SIDR plans: coverage & disjointness,\n\
         dependency soundness, skew certificate, scheduling\n\
         feasibility and annotation conservation. Exits 1 when any\n\
         error-severity diagnostic is found.\n\
         \n\
         options:\n\
         \x20 --preset NAME     lint a named experiment config (repeatable)\n\
         \x20 --spec FILE       lint a serialized JobSpec JSON document\n\
         \x20 --reducers N      override the preset's reducer count(s)\n\
         \x20 --skew-bound B    permissible skew the plan must honor\n\
         \x20 --json            render findings as JSON\n\
         \x20 --quiet           only print failing reports\n\
         \n\
         presets:\n",
    );
    for &(name, about) in presets::preset_names() {
        text.push_str(&format!("  {name:<14} {about}\n"));
    }
    text
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        presets: Vec::new(),
        spec: None,
        reducers: None,
        skew_bound: None,
        json: false,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--preset" => {
                let name = it.next().ok_or("--preset needs a name")?;
                args.presets.push(name);
            }
            "--spec" => args.spec = Some(it.next().ok_or("--spec needs a file")?),
            "--reducers" => {
                let n = it.next().ok_or("--reducers needs a count")?;
                args.reducers = Some(n.parse().map_err(|_| format!("bad reducer count {n:?}"))?);
            }
            "--skew-bound" => {
                let b = it.next().ok_or("--skew-bound needs a key count")?;
                args.skew_bound = Some(b.parse().map_err(|_| format!("bad skew bound {b:?}"))?);
            }
            "--json" => args.json = true,
            "--quiet" | "-q" => args.quiet = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.presets.is_empty() && args.spec.is_none() {
        return Err("nothing to lint: pass --preset or --spec".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if msg.is_empty() {
                print!("{}", usage());
                return ExitCode::SUCCESS;
            }
            eprintln!("sidr-lint: {msg}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let opts = AnalyzeOptions {
        skew_bound: args.skew_bound,
    };

    let mut failed = false;
    for name in &args.presets {
        let Some(job) = presets::preset(name) else {
            eprintln!("sidr-lint: unknown preset {name:?}");
            return ExitCode::from(2);
        };
        let counts = match args.reducers {
            Some(n) => vec![n],
            None => job.reducer_counts.clone(),
        };
        for reducers in counts {
            let label = format!(
                "{} @ {reducers} keyblocks ({} splits)",
                job.name,
                job.splits.len()
            );
            let mut planner = SidrPlanner::new(&job.query, reducers);
            if let Some(b) = args.skew_bound {
                planner = planner.skew_bound(b);
            }
            let plan = match planner.build(&job.splits) {
                Ok(p) => p,
                Err(e) => {
                    // The build's proof rejected it.
                    println!("[FAIL] {label}\n{e}");
                    failed = true;
                    continue;
                }
            };
            // The build proved it; the report renders its warnings.
            let report = verify(&job.query, &job.splits, &plan, args.skew_bound);
            failed |= render(&label, &report, &args);
        }
    }

    if let Some(path) = &args.spec {
        match lint_spec_file(path, &opts) {
            Ok(report) => failed |= render(&format!("spec {path}"), &report, &args),
            Err(msg) => {
                eprintln!("sidr-lint: {msg}");
                return ExitCode::from(2);
            }
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn lint_spec_file(path: &str, opts: &AnalyzeOptions) -> Result<sidr_core::Report, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let spec = JobSpec::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
    analyze_spec(&spec, opts).map_err(|e| format!("{path}: {e}"))
}

/// Prints one report; returns true when it contains errors.
fn render(label: &str, report: &sidr_core::Report, args: &Args) -> bool {
    let failing = report.has_errors();
    if args.json {
        println!("{}", report.to_json());
    } else if failing {
        println!("[FAIL] {label}\n{report}");
    } else if !args.quiet {
        println!("[ ok ] {label}: {report}");
    }
    failing
}
