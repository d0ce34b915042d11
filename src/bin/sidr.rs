//! `sidr` — command-line front end for the SIDR reproduction.
//!
//! ```text
//! sidr generate --kind temperature --shape 364,50,40 --seed 42 --out temps.scinc
//! sidr info temps.scinc
//! sidr query "mean(temperature) over {7,5,1}" --input temps.scinc --reducers 4
//! sidr query "median(windspeed) over {2,6,8,10}" --input w.scinc \
//!       --mode scihadoop --reducers 8 --output outdir
//! sidr plan  "mean(temperature) over {7,5,1}" --input temps.scinc --reducers 4
//! ```

use std::collections::HashMap;
use std::process::ExitCode;

use sidr_repro::coords::Shape;
use sidr_repro::core::framework::{generate_splits, RunOptions};
use sidr_repro::core::lang::parse_query;
use sidr_repro::core::output::{reassemble_dense_output, DenseSlabOutput};
use sidr_repro::core::spec::JobSpec;
use sidr_repro::core::{run_query, FrameworkMode, SidrPlanner};
use sidr_repro::scifile::gen::DatasetSpec;
use sidr_repro::scifile::ScincFile;

const USAGE: &str = "\
sidr — structure-aware intelligent data routing (SC '13 reproduction)

USAGE:
  sidr generate --kind <temperature|windspeed|normal> --shape <d0,d1,..>
                --out <file.scinc> [--seed N] [--dtype f32|f64]
  sidr info <file.scinc>
  sidr query \"<query text>\" --input <file.scinc>
             [--mode hadoop|scihadoop|sidr] [--reducers N] [--split-mib N]
             [--output <dir>] [--combined <file.scinc>]
  sidr plan  \"<query text>\" --input <file.scinc> [--reducers N] [--split-mib N]
             [--spec <plan.json>]  (export the submission document for sidr-lint)
  sidr simulate \"<query text>\" --space <d0,d1,..>
             [--mode hadoop|scihadoop|sidr] [--reducers N] [--selectivity F]
             (paper-scale cluster simulation: 24 nodes x 4 map + 3 reduce slots)

The query language: <op>(<variable>[, args]) over {shape} [stride {shape}]
with op one of mean, median, min, max, sum, count, sortvalues, variance,
stddev, range, filter(v, > x), countabove(v, x), percentile(v, p).";

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Splits args into positional and `--flag value` pairs.
fn parse_args(args: &[String]) -> (Vec<String>, HashMap<String, String>) {
    let mut positional = Vec::new();
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(name) = args[i].strip_prefix("--") {
            let value = args.get(i + 1).cloned().unwrap_or_default();
            flags.insert(name.to_string(), value);
            i += 2;
        } else {
            positional.push(args[i].clone());
            i += 1;
        }
    }
    (positional, flags)
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        println!("{USAGE}");
        return Ok(());
    };
    let (positional, flags) = parse_args(&args[1..]);
    match command.as_str() {
        "generate" => cmd_generate(&flags),
        "info" => cmd_info(&positional),
        "query" => cmd_query(&positional, &flags),
        "plan" => cmd_plan(&positional, &flags),
        "simulate" => cmd_simulate(&positional, &flags),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n\n{USAGE}")),
    }
}

fn required<'f>(flags: &'f HashMap<String, String>, name: &str) -> Result<&'f str, String> {
    flags
        .get(name)
        .map(String::as_str)
        .ok_or_else(|| format!("missing required flag --{name}"))
}

fn parse_shape(text: &str) -> Result<Shape, String> {
    let extents: Result<Vec<u64>, _> = text.split(',').map(|p| p.trim().parse()).collect();
    let extents = extents.map_err(|e| format!("bad --shape '{text}': {e}"))?;
    Shape::new(extents).map_err(|e| format!("bad --shape '{text}': {e}"))
}

fn cmd_generate(flags: &HashMap<String, String>) -> Result<(), String> {
    let kind = required(flags, "kind")?;
    let shape = parse_shape(required(flags, "shape")?)?;
    let out = required(flags, "out")?;
    let seed: u64 = flags
        .get("seed")
        .map(|s| s.parse().map_err(|e| format!("bad --seed: {e}")))
        .transpose()?
        .unwrap_or(42);
    let spec = match kind {
        "temperature" => DatasetSpec::temperature(shape, seed),
        "windspeed" => DatasetSpec::windspeed(shape, seed),
        "normal" => DatasetSpec::normal(shape, 0.0, 1.0, seed),
        other => return Err(format!("unknown dataset kind '{other}'")),
    };
    let dtype = flags.get("dtype").map(String::as_str).unwrap_or("f64");
    let file = match dtype {
        "f32" => spec.generate::<f32>(out),
        "f64" => spec.generate::<f64>(out),
        other => return Err(format!("unsupported --dtype '{other}' (f32|f64)")),
    }
    .map_err(|e| e.to_string())?;
    println!(
        "wrote {out} ({} elements)\n{}",
        spec.space.count(),
        file.metadata()
    );
    Ok(())
}

fn cmd_info(positional: &[String]) -> Result<(), String> {
    let path = positional.first().ok_or("usage: sidr info <file.scinc>")?;
    let file = ScincFile::open(path).map_err(|e| e.to_string())?;
    print!("{}", file.metadata());
    println!(
        "total size: {} bytes",
        file.total_len().map_err(|e| e.to_string())?
    );
    Ok(())
}

fn common_query(
    positional: &[String],
    flags: &HashMap<String, String>,
) -> Result<(ScincFile, sidr_repro::core::StructuralQuery, usize, u64), String> {
    let text = positional
        .first()
        .ok_or("usage: sidr query \"<query>\" --input <file>")?;
    let input = required(flags, "input")?;
    let file = ScincFile::open(input).map_err(|e| e.to_string())?;
    let query = parse_query(text, file.metadata()).map_err(|e| e.to_string())?;
    let reducers: usize = flags
        .get("reducers")
        .map(|s| s.parse().map_err(|e| format!("bad --reducers: {e}")))
        .transpose()?
        .unwrap_or(4);
    let split_bytes: u64 = flags
        .get("split-mib")
        .map(|s| {
            s.parse::<u64>()
                .map_err(|e| format!("bad --split-mib: {e}"))
        })
        .transpose()?
        .map(|mib| mib << 20)
        .unwrap_or(1 << 20);
    Ok((file, query, reducers, split_bytes))
}

fn cmd_query(positional: &[String], flags: &HashMap<String, String>) -> Result<(), String> {
    // The old boolean flag would swallow the next flag as its value.
    if flags.contains_key("validate") {
        return Err("--validate is gone: the §3.2.1 annotation check always runs".into());
    }
    let (file, query, reducers, split_bytes) = common_query(positional, flags)?;
    let mode = match flags.get("mode").map(String::as_str).unwrap_or("sidr") {
        "hadoop" => FrameworkMode::Hadoop,
        "scihadoop" => FrameworkMode::SciHadoop,
        "sidr" => FrameworkMode::Sidr,
        other => return Err(format!("unknown --mode '{other}'")),
    };
    let mut opts = RunOptions::new(mode, reducers);
    opts.split_bytes = split_bytes;
    let outcome = run_query(&file, &query, &opts).map_err(|e| e.to_string())?;
    println!(
        "{} produced {} records from {} maps / {} reducers in {:.0} ms \
         ({} shuffle connections; first result at {:.0} ms)",
        outcome.mode,
        outcome.records.len(),
        outcome.num_maps,
        reducers,
        outcome.result.elapsed.as_secs_f64() * 1e3,
        outcome.result.counters.shuffle_connections,
        outcome
            .result
            .first_result()
            .map(|d| d.as_secs_f64() * 1e3)
            .unwrap_or(0.0),
    );
    for (k, v) in outcome.records.iter().take(5) {
        println!("  {k} -> {v:.4}");
    }
    if outcome.records.len() > 5 {
        println!("  ... ({} more)", outcome.records.len() - 5);
    }

    if let Some(dir) = flags.get("output") {
        if mode != FrameworkMode::Sidr {
            return Err("--output (dense slabs) requires --mode sidr".into());
        }
        if !query.operator.single_valued() {
            return Err("dense output requires a single-valued operator".into());
        }
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let splits =
            generate_splits(&file, &query, mode, split_bytes).map_err(|e| e.to_string())?;
        let plan = SidrPlanner::new(&query, reducers)
            .build(&splits)
            .map_err(|e| e.to_string())?;
        let collector = DenseSlabOutput::new(dir, &query.variable, plan.partition())
            .map_err(|e| e.to_string())?;
        // Group records by keyblock and commit through the collector.
        use sidr_repro::mapreduce::{OutputCollector, RoutingPlan};
        let mut per_block: Vec<Vec<(sidr_repro::coords::Coord, f64)>> = vec![Vec::new(); reducers];
        for (k, v) in &outcome.records {
            per_block[RoutingPlan::partition(&plan, k)].push((k.clone(), *v));
        }
        for (r, records) in per_block.into_iter().enumerate() {
            collector.commit(r, records).map_err(|e| e.to_string())?;
        }
        println!(
            "wrote {} dense part files to {dir}",
            collector.files().len()
        );
        if let Some(combined) = flags.get("combined") {
            reassemble_dense_output(
                &collector.files(),
                &query.variable,
                &query.intermediate_space(),
                combined,
            )
            .map_err(|e| e.to_string())?;
            println!("reassembled into {combined}");
        }
    }
    Ok(())
}

fn cmd_simulate(positional: &[String], flags: &HashMap<String, String>) -> Result<(), String> {
    use sidr_repro::core::lang::parse;
    use sidr_repro::simcluster::{
        build_sim_job, simulate, CostModel, SimClusterConfig, SimWorkload,
    };

    let text = positional
        .first()
        .ok_or("usage: sidr simulate \"<query>\" --space <d0,d1,..>")?;
    let space = parse_shape(required(flags, "space")?)?;
    let parsed = parse(text).map_err(|e| e.to_string())?;
    let ext = Shape::new(parsed.extraction_shape.clone()).map_err(|e| e.to_string())?;
    let query = match &parsed.stride {
        None => sidr_repro::core::StructuralQuery::new(
            parsed.variable.clone(),
            space,
            ext,
            parsed.operator,
        ),
        Some(stride) => sidr_repro::core::StructuralQuery::with_stride(
            parsed.variable.clone(),
            space,
            ext,
            stride.clone(),
            parsed.operator,
        ),
    }
    .map_err(|e| e.to_string())?;
    let mode = match flags.get("mode").map(String::as_str).unwrap_or("sidr") {
        "hadoop" => FrameworkMode::Hadoop,
        "scihadoop" => FrameworkMode::SciHadoop,
        "sidr" => FrameworkMode::Sidr,
        other => return Err(format!("unknown --mode '{other}'")),
    };
    let reducers: usize = flags
        .get("reducers")
        .map(|s| s.parse().map_err(|e| format!("bad --reducers: {e}")))
        .transpose()?
        .unwrap_or(22);
    let mut workload = SimWorkload::new(query, mode, reducers);
    if let Some(sel) = flags.get("selectivity") {
        workload.selectivity = sel.parse().map_err(|e| format!("bad --selectivity: {e}"))?;
    }
    let job = build_sim_job(&workload).map_err(|e| e.to_string())?;
    let trace = simulate(&job, &SimClusterConfig::default(), &CostModel::default());
    println!(
        "{mode:?} on the paper's cluster: {} maps, {reducers} reducers",
        job.maps.len()
    );
    println!(
        "  first result {:.0} s ({:.1} % of maps done), complete {:.0} s",
        trace.first_result_s(),
        100.0 * trace.maps_done_at_first_result(),
        trace.makespan_s()
    );
    Ok(())
}

fn cmd_plan(positional: &[String], flags: &HashMap<String, String>) -> Result<(), String> {
    let (file, query, reducers, split_bytes) = common_query(positional, flags)?;
    let splits = generate_splits(&file, &query, FrameworkMode::Sidr, split_bytes)
        .map_err(|e| e.to_string())?;
    let plan = SidrPlanner::new(&query, reducers)
        .build(&splits)
        .map_err(|e| e.to_string())?;
    let spec = JobSpec::from_plan(&query, &splits, &plan).map_err(|e| e.to_string())?;
    if let Some(path) = flags.get("spec") {
        std::fs::write(path, spec.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("submission document written to {path} (verify with sidr-lint --spec {path})");
    }
    println!(
        "query space {} -> intermediate space {}",
        query.input_space(),
        query.intermediate_space()
    );
    println!(
        "{} splits, {} reducers, {} total connections (Hadoop would use {})",
        splits.len(),
        reducers,
        plan.total_connections(),
        splits.len() * reducers
    );
    println!(
        "submission document: {} bytes ({} bytes of dependency relationships)",
        spec.submission_bytes(),
        spec.dependency_bytes()
    );
    for r in 0..reducers.min(8) {
        let deps = plan.dependencies().reduce_deps(r);
        let keys = plan
            .partition()
            .keyblock_key_count(r)
            .map_err(|e| e.to_string())?;
        println!(
            "  keyblock {r}: {keys} keys, I_l = {} maps {:?}",
            deps.len(),
            deps
        );
    }
    if reducers > 8 {
        println!("  ... ({} more keyblocks)", reducers - 8);
    }
    Ok(())
}
