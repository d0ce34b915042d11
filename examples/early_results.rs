//! Early, correct, *prioritized* results (§3.4).
//!
//! Runs the same filter query twice under SIDR: once with the default
//! keyblock order and once prioritizing a region of the output space —
//! the computational-steering / burst-buffer scenario where "if the
//! user believes that a certain portion of the output would likely
//! contain the salient result(s), those keyblocks can be scheduled
//! first".
//!
//! ```sh
//! cargo run --release --example early_results
//! ```

use std::time::Duration;

use sidr_repro::coords::{Coord, Shape, Slab};
use sidr_repro::core::framework::{generate_splits, RunOptions};
use sidr_repro::core::{run_query, FrameworkMode, Operator, StructuralQuery};
use sidr_repro::mapreduce::{FaultPlan, TaskKind};
use sidr_repro::scifile::gen::DatasetSpec;

fn main() {
    let space = Shape::new(vec![240, 20, 20]).expect("valid shape");
    let spec = DatasetSpec::normal(space.clone(), 10.0, 2.0, 3);
    let path = std::env::temp_dir().join("sidr-early-results.scinc");
    let file = spec.generate::<f64>(&path).expect("dataset generates");

    // 2σ filter over 4x4x4 units.
    let query = StructuralQuery::new(
        "samples",
        space,
        Shape::new(vec![4, 4, 4]).expect("valid shape"),
        Operator::Filter { threshold: 14.0 },
    )
    .expect("query is structural");
    let kspace = query.intermediate_space();
    println!("intermediate space {kspace}, 8 reduce tasks");

    // The "salient" region: the last time-steps of the output.
    let hot = Slab::new(
        Coord::from([kspace[0] - 5, 0, 0]),
        Shape::new(vec![5, kspace[1], kspace[2]]).expect("valid shape"),
    )
    .expect("valid region");

    for (label, priority) in [
        ("default order", None),
        ("hot region first", Some(hot.clone())),
    ] {
        let mut opts = RunOptions::new(FrameworkMode::Sidr, 8);
        opts.reduce_slots = 2; // force scheduling waves so order matters

        // Every map straggles a little, so commits spread out in time.
        let maps = generate_splits(&file, &query, opts.mode, opts.split_bytes)
            .expect("splits generate")
            .len();
        opts.fault_plan = FaultPlan::straggle_maps(0..maps, 2);
        opts.priority_region = priority;
        let outcome = run_query(&file, &query, &opts).expect("query runs");

        // When does the first record inside the hot region commit?
        let hot_records: Vec<&Coord> = outcome
            .records
            .iter()
            .map(|(k, _)| k)
            .filter(|k| hot.contains(k))
            .collect();
        let commit_order: Vec<(usize, Duration)> = outcome
            .result
            .events
            .iter()
            .filter(|e| e.kind == TaskKind::ReduceEnd)
            .map(|e| (e.task, e.at))
            .collect();
        println!(
            "\n[{label}] {} anomalies total, {} inside the hot region",
            outcome.records.len(),
            hot_records.len()
        );
        println!(
            "  reduce commit order: {:?}",
            commit_order.iter().map(|(r, _)| *r).collect::<Vec<_>>()
        );
        if let Some((r, at)) = commit_order.first() {
            println!(
                "  first commit: reducer {r} at {:.0} ms",
                at.as_secs_f64() * 1e3
            );
        }
    }

    println!(
        "\nWith prioritization, the keyblocks covering the hot region commit \
         first — correct results for the salient output, long before the job ends."
    );
    std::fs::remove_file(&path).ok();
}
