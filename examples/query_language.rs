//! The array query language front end (§2.4): parse a textual query,
//! bind it against a dataset's metadata, and execute it under SIDR —
//! then show when each keyblock's result committed (§6: early results
//! while maps still run).
//!
//! ```sh
//! cargo run --release --example query_language
//! cargo run --release --example query_language -- "max(windspeed) over {4, 6, 8, 10}"
//! ```

use sidr_repro::coords::Shape;
use sidr_repro::core::framework::RunOptions;
use sidr_repro::core::lang::parse_query;
use sidr_repro::core::{run_query, FrameworkMode};
use sidr_repro::mapreduce::TaskKind;
use sidr_repro::scifile::gen::DatasetSpec;

fn main() {
    let text = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "median(windspeed) over {2, 6, 8, 10}".to_string());

    // A laptop-sized wind-speed dataset.
    let space = Shape::new(vec![120, 12, 16, 10]).expect("valid shape");
    let spec = DatasetSpec::windspeed(space, 21);
    let path = std::env::temp_dir().join("sidr-lang-windspeed.scinc");
    let file = spec.generate::<f32>(&path).expect("dataset generates");
    println!("dataset metadata:\n{}", file.metadata());

    let query = match parse_query(&text, file.metadata()) {
        Ok(q) => q,
        Err(e) => {
            eprintln!("could not parse '{text}': {e}");
            std::process::exit(1);
        }
    };
    println!(
        "query: {text}\n  -> operator {:?}, intermediate space {}",
        query.operator,
        query.intermediate_space()
    );

    let mut opts = RunOptions::new(FrameworkMode::Sidr, 4);
    opts.split_bytes = 12 * 16 * 10 * 4 * 8; // eight f32 time steps
    let outcome = run_query(&file, &query, &opts).expect("query executes");
    let last_map = outcome.result.completions(TaskKind::MapEnd).last().copied();
    for e in (outcome.result.events.iter()).filter(|e| e.kind == TaskKind::ReduceEnd) {
        println!(
            "  [{:>6.1} ms] keyblock {} committed{}",
            e.at.as_secs_f64() * 1e3,
            e.task,
            if last_map.is_some_and(|m| e.at < m) {
                " (maps still running)"
            } else {
                ""
            },
        );
    }
    println!(
        "{} records from {} maps (first: {:?})",
        outcome.records.len(),
        outcome.num_maps,
        outcome
            .records
            .first()
            .map(|(k, v)| format!("{k} -> {v:.2}")),
    );

    std::fs::remove_file(&path).ok();
}
