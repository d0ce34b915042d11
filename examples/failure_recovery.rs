//! Dependency-based failure recovery (§6, future work, implemented).
//!
//! The paper proposes replacing the persistence of all intermediate
//! data with re-execution of exactly the Map tasks a failed Reduce
//! task depended on. This example injects a reduce failure under
//! both regimes and compares the recovery work.
//!
//! ```sh
//! cargo run --release --example failure_recovery
//! ```

use sidr_repro::coords::Shape;
use sidr_repro::core::framework::RunOptions;
use sidr_repro::core::{run_query, FrameworkMode, Operator, StructuralQuery};
use sidr_repro::mapreduce::TaskKind;
use sidr_repro::scifile::gen::DatasetSpec;

fn main() {
    let space = Shape::new(vec![240, 16, 16]).expect("valid shape");
    let spec = DatasetSpec::temperature(space.clone(), 11);
    let path = std::env::temp_dir().join("sidr-recovery.scinc");
    let file = spec.generate::<f64>(&path).expect("dataset generates");
    let query = StructuralQuery::new(
        "temperature",
        space,
        Shape::new(vec![8, 4, 4]).expect("valid shape"),
        Operator::Mean,
    )
    .expect("query is structural");

    let mut baseline = None;
    for (label, volatile) in [
        ("persist intermediate data (Hadoop's design)", false),
        ("volatile + re-execute dependents (§6)", true),
    ] {
        let mut opts = RunOptions::new(FrameworkMode::Sidr, 6);
        opts.split_bytes = 64 << 10; // ~8 KiB rows -> a couple dozen maps
                                     // Reducer 3's first attempt dies (deterministic fault script).
        opts.fault_plan = sidr_repro::mapreduce::FaultPlan::fail_reducers_first_attempt([3]);
        opts.volatile_intermediate = volatile;
        let outcome = run_query(&file, &query, &opts).expect("query survives the failure");
        println!(
            "{label}:\n  reduce failures: {}, maps re-executed: {} of {}, output records: {}",
            outcome.result.count(TaskKind::ReduceFailed),
            outcome.result.count(TaskKind::MapLost),
            outcome.num_maps,
            outcome.records.len()
        );
        match &baseline {
            None => baseline = Some(outcome.records),
            Some(expect) => {
                assert_eq!(
                    &outcome.records, expect,
                    "recovery must not change the answer"
                );
                println!("  output identical to the persisted-data run");
            }
        }
    }
    println!(
        "\nOnly the failed reducer's dependency set re-ran — the paper's \
         hypothesis that dependency information makes re-execution cheap."
    );
    std::fs::remove_file(&path).ok();
}
