//! Figure 11: Reduce completion for Query 2 — a 3σ filter passing
//! 0.1 % of the data — SciHadoop 22R vs SIDR 22/66/176R.
//!
//! Paper observations:
//! * Each reduce processes far less data, so reduce tasks are short
//!   and the completion lines approach optimal with *fewer* total
//!   tasks than Query 1.
//! * The reduce phase is a small fraction of the query, so SIDR's
//!   total-time improvement is much smaller than for Query 1.

use sidr_core::{FrameworkMode, StructuralQuery};
use sidr_experiments::{compare, report_curves, Curve};
use sidr_simcluster::{
    build_sim_job, first_result_s, makespan_s, simulate, CostModel, SimClusterConfig, SimWorkload,
};

fn main() {
    let query = StructuralQuery::query2(0.0, 1.0).expect("paper query is valid");
    let cluster = SimClusterConfig::default();
    let model = CostModel::default();

    // 3σ one-sided: ~0.13 % of values pass; the paper says 0.1 %.
    let workload = |mode, r| {
        let mut w = SimWorkload::new(query.clone(), mode, r);
        w.selectivity = 0.001;
        w
    };

    let sh = simulate(
        &build_sim_job(&workload(FrameworkMode::SciHadoop, 22)).expect("plans"),
        &cluster,
        &model,
    );
    let mut curves = vec![
        Curve::maps("Map (SH 22R)", &sh),
        Curve::reduces("22R (SH)", &sh),
    ];
    let mut sidr = Vec::new();
    for r in [22usize, 66, 176] {
        let trace = simulate(
            &build_sim_job(&workload(FrameworkMode::Sidr, r)).expect("plans"),
            &cluster,
            &model,
        );
        println!(
            "SIDR {r:>4} reducers: first result {:>6.0} s, complete {:>6.0} s",
            first_result_s(&trace),
            makespan_s(&trace)
        );
        curves.push(Curve::reduces(format!("{r}R (SS)"), &trace));
        sidr.push((r, trace));
    }

    report_curves(
        "fig11",
        "Figure 11: Query 2 (filter) reduce completion, SciHadoop 22R vs SIDR 22/66/176R",
        &curves,
    );

    println!("\nShape checks vs paper:");
    // Reduce work is tiny → SIDR 66R already hugs the map curve.
    let map_curve = Curve::maps("m", &sidr[1].1);
    let red_curve = Curve::reduces("r", &sidr[1].1);
    let gap = red_curve.time_at_fraction(0.5) - map_curve.time_at_fraction(0.5);
    compare(
        "optimal approached with fewer reducers than Query 1",
        "66R near map curve",
        &format!("{gap:.0} s lag at 50 %"),
        gap < 0.10 * map_curve.last(),
    );
    let improvement = (makespan_s(&sh) - makespan_s(&sidr[2].1)) / makespan_s(&sh);
    compare(
        "total-time improvement smaller than Query 1's",
        "little room to improve",
        &format!("{:.1} % faster at 176R", 100.0 * improvement),
        improvement < 0.15,
    );
    // Reduce phase is a small fraction of the query under SciHadoop.
    let reduce_phase = makespan_s(&sh) - Curve::maps("m", &sh).last();
    compare(
        "reduce phase is a small fraction of total (SH)",
        "small slope in Fig 11",
        &format!("{:.0} s of {:.0} s", reduce_phase, makespan_s(&sh)),
        reduce_phase < 0.10 * makespan_s(&sh),
    );
}
