//! Figure 9: Map and Reduce task completion over time for Query 1
//! (median, extraction `{2,36,36,10}` over `{7200,360,720,50}`) with
//! 22 Reduce tasks, under Hadoop (H), SciHadoop (SH) and SIDR (SS).
//!
//! Paper observations to reproduce:
//! * SIDR's first result arrives long before SciHadoop's; Hadoop's is
//!   far behind both (625 s vs 1 132 s vs 2 797 s in the paper).
//! * SIDR's total time is within a few percent of SciHadoop's (1 264
//!   vs 1 250 s) — its last reduce owns a contiguous 1/22 of the data.
//! * Hadoop's whole query runs ≈2.5× longer than the other two.

use sidr_core::{FrameworkMode, StructuralQuery};
use sidr_experiments::{compare, report_curves, Curve};
use sidr_simcluster::{
    build_sim_job, first_result_s, makespan_s, simulate, CostModel, SimClusterConfig, SimWorkload,
};

fn main() {
    let query = StructuralQuery::query1().expect("paper query is valid");
    let cluster = SimClusterConfig::default();
    let model = CostModel::default();

    let mut curves = Vec::new();
    let mut stats = Vec::new();
    for (mode, tag) in [
        (FrameworkMode::Hadoop, "H"),
        (FrameworkMode::SciHadoop, "SH"),
        (FrameworkMode::Sidr, "SS"),
    ] {
        let w = SimWorkload::new(query.clone(), mode, 22);
        let job = build_sim_job(&w).expect("paper workload plans");
        let trace = simulate(&job, &cluster, &model);
        println!(
            "{tag:>3}: {} maps, first result {:.0} s, complete {:.0} s, maps done at first result {:.1} %",
            job.maps.len(),
            first_result_s(&trace),
            makespan_s(&trace),
            100.0 * trace.maps_done_at_first_result().expect("results")
        );
        curves.push(Curve::maps(format!("Map 22R ({tag})"), &trace));
        curves.push(Curve::reduces(format!("22 Reduces ({tag})"), &trace));
        stats.push((tag, trace));
    }

    report_curves(
        "fig09",
        "Figure 9: task completion over time, Query 1, 22 reducers",
        &curves,
    );

    let h = &stats[0].1;
    let sh = &stats[1].1;
    let ss = &stats[2].1;
    let ss_maps_done = ss.maps_done_at_first_result().expect("results");
    println!("\nShape checks vs paper:");
    compare(
        "SIDR first result well before SciHadoop's",
        "625 s vs 1132 s",
        &format!("{:.0} s vs {:.0} s", first_result_s(ss), first_result_s(sh)),
        first_result_s(ss) < 0.75 * first_result_s(sh),
    );
    compare(
        "Hadoop first result far behind both",
        "2797 s",
        &format!("{:.0} s", first_result_s(h)),
        first_result_s(h) > 1.8 * first_result_s(sh),
    );
    compare(
        "SIDR total within ~5% of SciHadoop",
        "1264 s vs 1250 s",
        &format!("{:.0} s vs {:.0} s", makespan_s(ss), makespan_s(sh)),
        (makespan_s(ss) / makespan_s(sh) - 1.0).abs() < 0.10,
    );
    compare(
        "Hadoop ~2.5x slower overall",
        "2.5x",
        &format!("{:.2}x", makespan_s(h) / makespan_s(ss)),
        makespan_s(h) / makespan_s(ss) > 1.8,
    );
    compare(
        "SIDR first result with small fraction of maps done",
        "6 % of query completed",
        &format!("{:.1} % of maps", 100.0 * ss_maps_done),
        ss_maps_done < 0.25,
    );
}
