//! §3.4's burst-buffer / computational-steering scenario.
//!
//! "The recently proposed burst buffer architecture presents an
//! opportunity for in-situ processing on SSD-based data staging nodes
//! … compute resources are not guaranteed and data may be evicted at
//! any point. Given this tenuous access to data on a fast medium, the
//! ability to prioritize the processing of certain portions of the
//! data allows the scientist to better capitalize on their window of
//! opportunity."
//!
//! We give the scientist a window of opportunity (a deadline at 40 %
//! of the SciHadoop makespan) and a hot region (the last tenth of the
//! output space), and measure how much of the hot region each policy
//! delivers before eviction.

use sidr_coords::{Coord, Shape, Slab};
use sidr_core::{FrameworkMode, SidrPlanner, StructuralQuery};
use sidr_experiments::{compare, write_csv};
use sidr_mapreduce::{SplitGenerator, TaskKind};
use sidr_simcluster::{
    build_sim_job, first_result_s, makespan_s, secs, simulate, CostModel, SimClusterConfig,
    SimWorkload,
};

fn main() {
    let query = StructuralQuery::query1().expect("paper query is valid");
    let reducers = 66;
    let cluster = SimClusterConfig::default();
    let model = CostModel::default();
    let kspace = query.intermediate_space();

    // Hot region: the final tenth of the output's leading dimension.
    let hot = Slab::new(
        Coord::from([kspace[0] - kspace[0] / 10, 0, 0, 0]),
        Shape::new(vec![kspace[0] / 10, kspace[1], kspace[2], kspace[3]]).expect("valid"),
    )
    .expect("valid region");

    // Per-keyblock hot-key counts, from the real partition geometry.
    let splits = SplitGenerator::new(query.input_space().clone(), 4)
        .aligned(128 << 20, query.extraction.shape()[0])
        .expect("splits generate");
    let plan = SidrPlanner::new(&query, reducers)
        .build(&splits)
        .expect("plan builds");
    let hot_keys_of = |r: usize| -> u64 {
        plan.partition
            .keyblock_cover(r)
            .expect("cover exists")
            .iter()
            .filter_map(|s| s.intersect(&hot).expect("same rank"))
            .map(|s| s.count())
            .sum()
    };
    let total_hot: u64 = (0..reducers).map(hot_keys_of).sum();

    // Deadline: 40 % of the SciHadoop makespan.
    let sh = simulate(
        &build_sim_job(&SimWorkload::new(
            query.clone(),
            FrameworkMode::SciHadoop,
            22,
        ))
        .expect("plans"),
        &cluster,
        &model,
    );
    let deadline = 0.4 * makespan_s(&sh);

    println!("== §3.4: hot-region output available before eviction at {deadline:.0} s ==\n");
    let mut rows = Vec::new();
    let mut fractions = Vec::new();
    for (label, region) in [
        ("SciHadoop", None),
        ("SIDR default order", None),
        ("SIDR hot-first", Some(hot.clone())),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, (l, r))| ((i, l), r))
    {
        let (i, label) = label;
        let trace = if i == 0 {
            sh.clone()
        } else {
            let mut w = SimWorkload::new(query.clone(), FrameworkMode::Sidr, reducers);
            w.priority_region = region;
            simulate(&build_sim_job(&w).expect("plans"), &cluster, &model)
        };
        // Which keyblocks committed before the deadline?
        let hot_done: u64 = (trace.events.iter())
            .filter(|e| e.kind == TaskKind::ReduceEnd && secs(e.at) <= deadline)
            .map(|e| if i == 0 { 0 } else { hot_keys_of(e.task) })
            .sum();
        let fraction = if total_hot == 0 {
            0.0
        } else {
            hot_done as f64 / total_hot as f64
        };
        println!(
            "{label:>20}: {:>5.1} % of the hot region delivered before eviction \
             (first result {:.0} s)",
            100.0 * fraction,
            first_result_s(&trace)
        );
        rows.push(format!(
            "{label},{fraction:.4},{:.1}",
            first_result_s(&trace)
        ));
        fractions.push(fraction);
    }
    let path = write_csv(
        "burst_buffer",
        "policy,hot_fraction_by_deadline,first_result_s",
        &rows,
    );
    println!("[csv] {}", path.display());

    println!("\nChecks:");
    compare(
        "SciHadoop delivers nothing before its global barrier",
        "window missed",
        &format!("{:.0} %", 100.0 * fractions[0]),
        fractions[0] == 0.0,
    );
    compare(
        "prioritization delivers the hot region within the window",
        "capitalize on the window",
        &format!(
            "{:.0} % vs {:.0} % unprioritized",
            100.0 * fractions[2],
            100.0 * fractions[1]
        ),
        fractions[2] > fractions[1] && fractions[2] > 0.9,
    );
}
