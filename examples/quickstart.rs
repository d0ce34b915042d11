//! Quickstart: the paper's running example — down-sample a year of
//! daily temperature measurements (Figure 2) to weekly averages at
//! half-degree latitude resolution, executed under SIDR.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use sidr_repro::coords::Shape;
use sidr_repro::core::framework::RunOptions;
use sidr_repro::core::{run_query, FrameworkMode, Operator, StructuralQuery};
use sidr_repro::scifile::gen::DatasetSpec;

fn main() {
    // The Figure 1/2 dataset, laptop-sized: 364 days x 50 lat x 40 lon
    // (the paper's is 365 x 250 x 200; day 365 is discarded by the
    // weekly extraction anyway).
    let space = Shape::new(vec![364, 50, 40]).expect("valid shape");
    let spec = DatasetSpec::temperature(space.clone(), 42);
    let path = std::env::temp_dir().join("sidr-quickstart-temps.scinc");
    let file = spec.generate::<f64>(&path).expect("dataset generates");
    println!(
        "generated {} ({} elements)\n{}",
        path.display(),
        space.count(),
        file.metadata()
    );

    // "Find the weekly averages for every unique location", with
    // latitude down-sampled 1/10 deg -> 1/2 deg: extraction {7, 5, 1}.
    let query = StructuralQuery::new(
        "temperature",
        space,
        Shape::new(vec![7, 5, 1]).expect("valid shape"),
        Operator::Mean,
    )
    .expect("query is structural");
    println!(
        "query: weekly averages, extraction shape {} -> intermediate space {}",
        query.extraction.shape(),
        query.intermediate_space()
    );

    let opts = RunOptions::new(FrameworkMode::Sidr, 4);
    let outcome = run_query(&file, &query, &opts).expect("query runs");

    println!(
        "\n{} weekly averages computed by {} map tasks and 4 reduce tasks",
        outcome.records.len(),
        outcome.num_maps
    );
    println!(
        "shuffle connections: {} (stock Hadoop would need {})",
        outcome.result.counters.shuffle_connections,
        outcome.num_maps * 4
    );
    println!("\nfirst weeks at the dataset origin:");
    for (k, v) in outcome.records.iter().take(5) {
        println!("  week/lat/lon {k} -> {v:.2} F");
    }

    std::fs::remove_file(&path).ok();
}
