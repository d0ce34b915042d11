//! Figure 10: Reduce completion for Query 1 as the SIDR reduce count
//! varies (22, 66, 176, 528), against SciHadoop with 22.
//!
//! Paper observations:
//! * More reducers → smaller dependency sets → earlier first result
//!   and earlier completion; at 528 the reduce curve nearly parallels
//!   the map curve ("close to optimal").
//! * At 528 reducers SIDR finishes ~29 % faster than SciHadoop.
//! * SciHadoop/Hadoop gain nothing from more reducers (global
//!   barrier).

use sidr_core::{FrameworkMode, StructuralQuery};
use sidr_experiments::{compare, report_curves, Curve};
use sidr_simcluster::{
    build_sim_job, first_result_s, makespan_s, simulate, CostModel, SimClusterConfig, SimWorkload,
};

fn main() {
    let query = StructuralQuery::query1().expect("paper query is valid");
    let cluster = SimClusterConfig::default();
    let model = CostModel::default();

    let sh = {
        let w = SimWorkload::new(query.clone(), FrameworkMode::SciHadoop, 22);
        simulate(&build_sim_job(&w).expect("plans"), &cluster, &model)
    };
    // The global barrier makes the reducer count irrelevant for
    // SciHadoop — verify rather than assert silently.
    let sh_528 = {
        let w = SimWorkload::new(query.clone(), FrameworkMode::SciHadoop, 528);
        simulate(&build_sim_job(&w).expect("plans"), &cluster, &model)
    };

    let mut curves = vec![
        Curve::maps("Map (SH 22R)", &sh),
        Curve::reduces("22R (SH)", &sh),
    ];
    let mut sidr_traces = Vec::new();
    for r in [22usize, 66, 176, 528] {
        let w = SimWorkload::new(query.clone(), FrameworkMode::Sidr, r);
        let trace = simulate(&build_sim_job(&w).expect("plans"), &cluster, &model);
        println!(
            "SIDR {r:>4} reducers: first result {:>6.0} s, complete {:>6.0} s, maps at first result {:>5.1} %",
            first_result_s(&trace),
            makespan_s(&trace),
            100.0 * trace.maps_done_at_first_result().expect("results")
        );
        curves.push(Curve::reduces(format!("{r}R (SS)"), &trace));
        sidr_traces.push((r, trace));
    }

    report_curves(
        "fig10",
        "Figure 10: Query 1 reduce completion, SciHadoop 22R vs SIDR 22/66/176/528R",
        &curves,
    );

    println!("\nShape checks vs paper:");
    let makespans: Vec<f64> = sidr_traces.iter().map(|(_, t)| makespan_s(t)).collect();
    let firsts: Vec<f64> = sidr_traces.iter().map(|(_, t)| first_result_s(t)).collect();
    compare(
        "first result improves monotonically with reducers",
        "22 -> 528 decreasing",
        &format!(
            "{:.0}/{:.0}/{:.0}/{:.0} s",
            firsts[0], firsts[1], firsts[2], firsts[3]
        ),
        firsts.windows(2).all(|w| w[1] <= w[0] * 1.02),
    );
    compare(
        "total time improves with reducers",
        "22 -> 528 decreasing",
        &format!(
            "{:.0}/{:.0}/{:.0}/{:.0} s",
            makespans[0], makespans[1], makespans[2], makespans[3]
        ),
        makespans.windows(2).all(|w| w[1] <= w[0] * 1.02),
    );
    let speedup = (makespan_s(&sh) - makespans[3]) / makespan_s(&sh);
    compare(
        "SIDR 528R faster than SciHadoop",
        "29 % faster",
        &format!("{:.0} % faster", 100.0 * speedup),
        speedup > 0.0,
    );
    // "Close to optimal": the 528R reduce curve parallels the map
    // curve — median gap between reduce completion and map completion
    // fractions is small relative to the map phase.
    let map_curve = Curve::maps("m", &sidr_traces[3].1);
    let red_curve = Curve::reduces("r", &sidr_traces[3].1);
    let gap_50 = red_curve.time_at_fraction(0.5) - map_curve.time_at_fraction(0.5);
    compare(
        "528R reduce curve parallels map curve",
        "near-optimal",
        &format!("{gap_50:.0} s lag at 50 %"),
        gap_50 < 0.15 * map_curve.last(),
    );
    compare(
        "SciHadoop gains nothing from 528 reducers",
        "no benefit",
        &format!("{:.0} s vs {:.0} s", makespan_s(&sh_528), makespan_s(&sh)),
        (makespan_s(&sh_528) / makespan_s(&sh) - 1.0).abs() < 0.05,
    );
}
