//! `sidr-submit`: client CLI for the `sidr-serve` daemon.
//!
//! ```text
//! sidr-submit submit --addr 127.0.0.1:7733 --preset query1-tiny \
//!     --input /tmp/tiny.scinc --generate
//! sidr-submit submit --addr ... --spec job.json --input data.scinc
//! sidr-submit stats  --addr 127.0.0.1:7733
//! sidr-submit metrics --addr 127.0.0.1:7733
//! sidr-submit cancel --addr 127.0.0.1:7733 --job 3
//! sidr-submit shutdown --addr 127.0.0.1:7733
//! ```
//!
//! `submit` streams keyblocks as the server commits them, printing
//! one line per early result, and exits nonzero if the job fails.
//! `metrics` scrapes the daemon's registry as Prometheus text
//! exposition; `submit --trace FILE` writes the finished job's events
//! as JSONL for timeline tooling, each task a start/end pair of lines.

use std::process::ExitCode;

use sidr_analyze::presets;
use sidr_coords::{Coord, Shape, Slab};
use sidr_core::spec::JobSpec;
use sidr_core::{SidrPlanner, StructuralQuery};
use sidr_mapreduce::{FaultPlan, SpeculationPolicy};
use sidr_scifile::gen::{DatasetSpec, ValueModel};
use sidr_serve::{Client, SubmitOptions};

struct Args {
    command: String,
    addr: String,
    preset: Option<String>,
    spec: Option<String>,
    input: Option<String>,
    reducers: Option<usize>,
    job: Option<u64>,
    priority: Option<String>,
    straggle: Option<String>,
    speculate: bool,
    generate: bool,
    quiet: bool,
    trace: Option<String>,
}

fn usage() -> String {
    let mut text = String::from(
        "usage: sidr-submit <submit|stats|metrics|cancel|shutdown> --addr ADDR [options]\n\
         \n\
         submit options:\n\
         \x20 --preset NAME       build the spec from a named config\n\
         \x20 --spec FILE         read a serialized JobSpec instead\n\
         \x20 --input PATH        server-side .scinc dataset path (required)\n\
         \x20 --generate          generate the dataset at PATH if missing\n\
         \x20 --reducers N        override the preset's keyblock count\n\
         \x20 --priority C:S      steer: schedule keyblocks covering the\n\
         \x20                     slab corner C shape S first (e.g. 0,0,0,0:8,1,1,1)\n\
         \x20 --straggle MAP:MS   chaos: delay map MAP's first attempt\n\
         \x20                     by MS milliseconds\n\
         \x20 --speculate         enable speculative execution; with\n\
         \x20                     --straggle the straggled map is raced\n\
         \x20                     deterministically\n\
         \x20 --quiet             suppress per-keyblock lines\n\
         \x20 --trace FILE        write the job's events as JSONL\n\
         \n\
         metrics: print the daemon's metric registry (Prometheus text\n\
         exposition) — slot occupancy, job-state gauges, task and\n\
         time-to-first-keyblock histograms.\n\
         \n\
         cancel options:\n\
         \x20 --job N             job id to cancel\n\
         \n\
         presets:\n",
    );
    for &(name, about) in presets::preset_names() {
        text.push_str(&format!("  {name:<14} {about}\n"));
    }
    text
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let command = match it.next() {
        Some(c) if ["submit", "stats", "metrics", "cancel", "shutdown"].contains(&c.as_str()) => c,
        Some(c) if c == "--help" || c == "-h" => return Err(String::new()),
        Some(c) => return Err(format!("unknown command {c:?}")),
        None => return Err("missing command".into()),
    };
    let mut args = Args {
        command,
        addr: "127.0.0.1:7733".into(),
        preset: None,
        spec: None,
        input: None,
        reducers: None,
        job: None,
        priority: None,
        straggle: None,
        speculate: false,
        generate: false,
        quiet: false,
        trace: None,
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => args.addr = it.next().ok_or("--addr needs an address")?,
            "--preset" => args.preset = Some(it.next().ok_or("--preset needs a name")?),
            "--spec" => args.spec = Some(it.next().ok_or("--spec needs a file")?),
            "--input" => args.input = Some(it.next().ok_or("--input needs a path")?),
            "--reducers" => {
                let n = it.next().ok_or("--reducers needs a count")?;
                args.reducers = Some(n.parse().map_err(|_| format!("bad count {n:?}"))?);
            }
            "--job" => {
                let n = it.next().ok_or("--job needs an id")?;
                args.job = Some(n.parse().map_err(|_| format!("bad job id {n:?}"))?);
            }
            "--priority" => args.priority = Some(it.next().ok_or("--priority needs C:S")?),
            "--straggle" => args.straggle = Some(it.next().ok_or("--straggle needs MAP:MS")?),
            "--speculate" => args.speculate = true,
            "--generate" => args.generate = true,
            "--quiet" | "-q" => args.quiet = true,
            "--trace" => args.trace = Some(it.next().ok_or("--trace needs a file")?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Parses `MAP:MS` into a straggler target.
fn parse_straggle(text: &str) -> Result<(usize, u64), String> {
    let (map, ms) = text.split_once(':').ok_or("straggle must be MAP:MS")?;
    Ok((
        map.trim()
            .parse()
            .map_err(|_| format!("bad map id {map:?}"))?,
        ms.trim().parse().map_err(|_| format!("bad delay {ms:?}"))?,
    ))
}

/// Parses `corner:shape`, both comma-separated, into a priority slab.
fn parse_priority(text: &str) -> Result<Slab, String> {
    let (corner, shape) = text
        .split_once(':')
        .ok_or("priority must be CORNER:SHAPE")?;
    let parse_dims = |s: &str| -> Result<Vec<u64>, String> {
        s.split(',')
            .map(|d| d.trim().parse().map_err(|_| format!("bad dimension {d:?}")))
            .collect()
    };
    let shape = Shape::new(parse_dims(shape)?).map_err(|e| e.to_string())?;
    Slab::new(Coord::new(parse_dims(corner)?), shape).map_err(|e| e.to_string())
}

/// Builds the submission document: either a preset re-planned at the
/// requested keyblock count, or a spec file as-is.
fn build_spec(args: &Args) -> Result<JobSpec, String> {
    match (&args.preset, &args.spec) {
        (Some(name), None) => {
            let job = presets::preset(name).ok_or(format!("unknown preset {name:?}"))?;
            let reducers = args.reducers.unwrap_or(job.reducer_counts[0]);
            let plan = SidrPlanner::new(&job.query, reducers)
                .build(&job.splits)
                .map_err(|e| e.to_string())?;
            JobSpec::from_plan(&job.query, &job.splits, &plan).map_err(|e| e.to_string())
        }
        (None, Some(path)) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
            JobSpec::from_json(&text).map_err(|e| e.to_string())
        }
        _ => Err("pass exactly one of --preset or --spec".into()),
    }
}

/// Generates the dataset the spec's query reads, if absent: f32,
/// deterministic linear-index values (what the integration tests
/// compare against).
fn ensure_input(spec: &JobSpec, path: &str) -> Result<(), String> {
    if std::path::Path::new(path).exists() {
        return Ok(());
    }
    let query: StructuralQuery = spec.query().map_err(|e| e.to_string())?;
    let space = query.input_space().clone();
    let ds = DatasetSpec {
        variable: query.variable.clone(),
        dim_names: (0..space.rank()).map(|d| format!("d{d}")).collect(),
        space,
        model: ValueModel::LinearIndex,
        seed: 0,
    };
    ds.generate::<f32>(path).map_err(|e| e.to_string())?;
    eprintln!("sidr-submit: generated {path}");
    Ok(())
}

/// Writes the terminal frame's events, the job's record, one JSON
/// object per line.
fn write_trace(path: &str, events: &[sidr_mapreduce::TaskEvent]) -> Result<(), String> {
    let mut lines = String::new();
    for e in events {
        lines += &serde_json::to_string(e).map_err(|e| e.to_string())?;
        lines.push('\n');
    }
    std::fs::write(path, lines).map_err(|e| format!("cannot write {path:?}: {e}"))
}

fn run(args: &Args) -> Result<(), String> {
    let mut client =
        Client::connect(&args.addr).map_err(|e| format!("cannot reach {}: {e}", args.addr))?;
    match args.command.as_str() {
        "stats" => {
            let s = client.stats().map_err(|e| e.to_string())?;
            println!(
                "jobs: {} queued, {} running, {} done, {} failed, {} cancelled",
                s.jobs_queued, s.jobs_running, s.jobs_done, s.jobs_failed, s.jobs_cancelled
            );
            println!(
                "slots: map {}/{}, reduce {}/{}",
                s.map_busy, s.map_total, s.reduce_busy, s.reduce_total
            );
            println!(
                "streamed: {} keyblocks, {} bytes",
                s.keyblocks_committed, s.bytes_streamed
            );
            if !s.workers.is_empty() {
                println!(
                    "workers: {}/{} alive",
                    s.workers.iter().filter(|w| w.alive).count(),
                    s.workers.len()
                );
                println!(
                    "  {:<22} {:>6} {:>10} {:>9} {:>8} {:>8} {:>10} {:>10} {:>10} {:>10}",
                    "ADDR",
                    "ALIVE",
                    "HEARTBEAT",
                    "IN-FLIGHT",
                    "MAPS",
                    "REDUCES",
                    "PARTITIONS",
                    "RESIDENT",
                    "SPILLED",
                    "BUDGET"
                );
                for w in &s.workers {
                    // Budget 0 means unbounded; a pressured worker is
                    // flagged so an operator scanning the table sees
                    // which machine the fleet is routing around.
                    let budget = if w.budget_bytes == 0 {
                        "-".to_string()
                    } else {
                        w.budget_bytes.to_string()
                    };
                    let flag = if w.pressured() { " !mem" } else { "" };
                    println!(
                        "  {:<22} {:>6} {:>8}ms {:>9} {:>8} {:>8} {:>10} {:>10} {:>10} {:>10}{flag}",
                        w.addr,
                        if w.alive { "yes" } else { "DEAD" },
                        w.heartbeat_age_ms,
                        w.tasks_in_flight,
                        w.map_attempts,
                        w.reduce_attempts,
                        w.partitions_held,
                        w.resident_bytes,
                        w.spilled_bytes,
                        budget,
                    );
                }
            }
            Ok(())
        }
        "metrics" => {
            let text = client.metrics().map_err(|e| e.to_string())?;
            print!("{text}");
            Ok(())
        }
        "cancel" => {
            let job = args.job.ok_or("cancel needs --job")?;
            client.cancel(job).map_err(|e| e.to_string())
        }
        "shutdown" => client.shutdown().map_err(|e| e.to_string()),
        "submit" => {
            let input = args.input.as_deref().ok_or("submit needs --input")?;
            let mut spec = build_spec(args)?;
            if args.generate {
                ensure_input(&spec, input)?;
            }
            let mut options = SubmitOptions::default();
            if let Some(p) = &args.priority {
                options.priority_region = Some(parse_priority(p)?);
            }
            let mut straggler = None;
            if let Some(text) = &args.straggle {
                let (map, delay_ms) = parse_straggle(text)?;
                straggler = Some(map);
                options.fault_plan = FaultPlan::straggle_maps([map], delay_ms);
            }
            if args.speculate {
                // A known straggler is raced deterministically; plain
                // --speculate leaves it to the cohort-quantile trigger.
                spec = spec.with_speculation(match straggler {
                    Some(map) => SpeculationPolicy::force([map]),
                    None => SpeculationPolicy::on(),
                });
            }
            let ticket = client
                .submit(&spec, input, options)
                .map_err(|e| e.to_string())?;
            eprintln!(
                "sidr-submit: job {} accepted ({} keyblocks, {} maps)",
                ticket.job, ticket.keyblocks, ticket.num_maps
            );
            let quiet = args.quiet;
            let mut first_ms = None;
            let mut streamed = 0u64;
            let outcome = client
                .stream_job(ticket.job, |reducer, at_ms, records| {
                    first_ms.get_or_insert(at_ms);
                    streamed += records.len() as u64;
                    if !quiet {
                        println!(
                            "keyblock {reducer:>4} final at {at_ms:>6} ms: {} records",
                            records.len()
                        );
                    }
                })
                .map_err(|e| e.to_string())?;
            if !outcome.completed {
                return Err(format!("job {} was cancelled", ticket.job));
            }
            eprintln!(
                "sidr-submit: job {} done: {} records in {} keyblocks, first result at {} ms",
                ticket.job,
                outcome.records,
                ticket.keyblocks,
                first_ms.map_or("-".to_string(), |ms| ms.to_string())
            );
            if streamed != outcome.records {
                return Err(format!(
                    "stream delivered {streamed} records but the job committed {}",
                    outcome.records
                ));
            }
            if let Some(path) = &args.trace {
                write_trace(path, &outcome.events)?;
                eprintln!("sidr-submit: wrote the job's events to {path}");
            }
            Ok(())
        }
        _ => unreachable!("parse_args validated the command"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if msg.is_empty() {
                print!("{}", usage());
                return ExitCode::SUCCESS;
            }
            eprintln!("sidr-submit: {msg}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("sidr-submit: {msg}");
            ExitCode::FAILURE
        }
    }
}
