//! §6 (future work, implemented): dependency-based failure recovery.
//!
//! "We plan to investigate altering the MapReduce failure recovery
//! model to use the data dependency information to re-execute subsets
//! of Map tasks in the event of a Reduce task failure in place of
//! persisting all intermediate data to disk. Our hypothesis is that
//! the performance savings in the non-failure case will offset said
//! re-execution cost."
//!
//! This experiment quantifies both sides on the *real* engine:
//! * the non-failure saving — intermediate records that never need to
//!   be persisted (everything the shuffle carries), and
//! * the failure cost — Map tasks re-executed per injected Reduce
//!   failure, which dependency information bounds at `|I_ℓ|` instead
//!   of "all maps".

use sidr_coords::Shape;
use sidr_core::framework::RunOptions;
use sidr_core::{run_query, FrameworkMode, Operator, StructuralQuery};
use sidr_experiments::{compare, write_csv};
use sidr_mapreduce::TaskKind;
use sidr_scifile::gen::{DatasetSpec, ValueModel};

fn main() {
    let space = Shape::new(vec![480, 16, 16]).expect("valid");
    let spec = DatasetSpec {
        variable: "v".into(),
        dim_names: vec!["t".into(), "y".into(), "x".into()],
        space: space.clone(),
        model: ValueModel::Uniform { lo: 0.0, hi: 1.0 },
        seed: 3,
    };
    let dir = std::env::temp_dir().join(format!("sidr-recovery-exp-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir creatable");
    let path = dir.join("data.scinc");
    let file = spec.generate::<f64>(&path).expect("dataset generates");
    let query = StructuralQuery::new(
        "v",
        space,
        Shape::new(vec![8, 4, 4]).expect("valid"),
        Operator::Mean,
    )
    .expect("query is structural");
    let reducers = 8;

    println!("== §6: recovery by re-execution vs persisting intermediate data ==\n");
    println!(
        "{:>12} {:>14} {:>16} {:>18} {:>14}",
        "failures", "maps total", "maps re-run", "records shuffled", "output ok"
    );

    let mut rows = Vec::new();
    let mut results = Vec::new();
    let mut baseline: Option<Vec<(sidr_coords::Coord, f64)>> = None;
    for n_failures in [0usize, 1, 2, 4] {
        let mut opts = RunOptions::new(FrameworkMode::Sidr, reducers);
        opts.split_bytes = 16 * 16 * 8 * 16; // 16 leading rows per split -> 30 maps
        opts.volatile_intermediate = true; // nothing persisted
        opts.fault_plan =
            sidr_mapreduce::FaultPlan::fail_reducers_first_attempt((0..n_failures).map(|i| i * 2));
        let outcome = run_query(&file, &query, &opts).expect("query survives failures");
        let ok = match &baseline {
            None => {
                baseline = Some(outcome.records.clone());
                true
            }
            Some(expect) => &outcome.records == expect,
        };
        let reexecuted = outcome.result.count(TaskKind::MapLost);
        println!(
            "{n_failures:>12} {:>14} {:>16} {:>18} {:>14}",
            outcome.num_maps, reexecuted, outcome.result.counters.shuffled_records, ok
        );
        rows.push(format!(
            "{n_failures},{},{},{}",
            outcome.num_maps, reexecuted, outcome.result.counters.shuffled_records
        ));
        results.push((n_failures, outcome.num_maps, reexecuted, ok));
    }
    let csv = write_csv(
        "recovery",
        "failures,maps,maps_reexecuted,shuffled_records",
        &rows,
    );
    println!("[csv] {}", csv.display());

    println!("\nChecks:");
    compare(
        "no failures -> nothing persisted, nothing re-run",
        "savings in the non-failure case",
        &format!("{} maps re-run", results[0].2),
        results[0].2 == 0,
    );
    let (_, maps, rerun_1, _) = results[1];
    compare(
        "one failure re-runs only the dependency subset",
        "re-execute subsets of Map tasks",
        &format!("{rerun_1} of {maps} maps"),
        rerun_1 > 0 && (rerun_1 as usize) < maps / 2,
    );
    compare(
        "recovery cost grows with failures, output always correct",
        "hypothesis holds",
        &format!(
            "{:?} re-runs, all correct: {}",
            results.iter().map(|r| r.2).collect::<Vec<_>>(),
            results.iter().all(|r| r.3)
        ),
        results.windows(2).all(|w| w[1].2 >= w[0].2) && results.iter().all(|r| r.3),
    );

    std::fs::remove_dir_all(&dir).expect("temp dir removable");
}
