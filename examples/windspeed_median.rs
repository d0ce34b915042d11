//! The paper's Query 1 at laptop scale, run under all three frameworks
//! the evaluation compares — verifying they produce identical output
//! while differing exactly where the paper says they differ
//! (connections, early results).
//!
//! ```sh
//! cargo run --release --example windspeed_median
//! ```

use sidr_repro::core::framework::{generate_splits, RunOptions};
use sidr_repro::core::{run_query, FrameworkMode, StructuralQuery};
use sidr_repro::mapreduce::FaultPlan;
use sidr_repro::scifile::gen::DatasetSpec;

fn main() {
    // Query 1: median wind speed over 2-day x region x elevation units
    // (§4.1), shrunk to {720, 36, 72, 50}.
    let query = StructuralQuery::query1_small().expect("paper query is valid");
    let spec = DatasetSpec::windspeed(query.input_space().clone(), 7);
    let path = std::env::temp_dir().join("sidr-windspeed.scinc");
    let file = spec.generate::<f32>(&path).expect("dataset generates");
    println!(
        "dataset: {} wind-speed samples; intermediate space {}",
        query.input_space().count(),
        query.intermediate_space()
    );

    let mut reference: Option<Vec<(sidr_repro::coords::Coord, f64)>> = None;
    for mode in [
        FrameworkMode::Hadoop,
        FrameworkMode::SciHadoop,
        FrameworkMode::Sidr,
    ] {
        let mut opts = RunOptions::new(mode, 6);
        opts.split_bytes = 1 << 20;
        // Every map straggles a little, so the timeline is visible.
        let maps = generate_splits(&file, &query, mode, opts.split_bytes)
            .expect("splits generate")
            .len();
        opts.fault_plan = FaultPlan::straggle_maps(0..maps, 3);
        let outcome = run_query(&file, &query, &opts).expect("query runs");

        let first = outcome.result.first_result().expect("results commit");
        let maps_at_first = outcome.result.maps_done_at_first_result().unwrap_or(1.0);
        println!(
            "\n{mode:>9}: {:>5} maps, {:>6} connections, first result at {:>6.0} ms \
             with {:>4.0} % of maps done, total {:>6.0} ms",
            outcome.num_maps,
            outcome.result.counters.shuffle_connections,
            first.as_secs_f64() * 1e3,
            100.0 * maps_at_first,
            outcome.result.elapsed.as_secs_f64() * 1e3,
        );

        match &reference {
            None => reference = Some(outcome.records),
            Some(expect) => {
                assert_eq!(
                    &outcome.records, expect,
                    "{mode} output differs from Hadoop's — all three must agree"
                );
                println!(
                    "{:>9}  output identical to Hadoop's ({} medians)",
                    "",
                    expect.len()
                );
            }
        }
    }

    std::fs::remove_file(&path).ok();
}
