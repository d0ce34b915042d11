//! Figure 13: intermediate key skew. A down-sampling query whose
//! intermediate keys are extraction-instance *corner coordinates* —
//! all even — so Hadoop's modulo-of-the-binary-representation
//! partitioner assigns data only to a subset of reducers: "all
//! odd-numbered Reduce tasks being assigned no data to process while
//! their even-numbered counterparts receive twice as much" (§4.3).
//! SIDR's partition+ distributes evenly and "completes 42 % faster".

use sidr_coords::Shape;
use sidr_core::{FrameworkMode, Operator, StructuralQuery};
use sidr_experiments::{compare, report_curves, Curve};
use sidr_simcluster::{
    build_sim_job, makespan_s, simulate, workload::hash_key_weights, workload::HashKeyModel,
    CostModel, SimClusterConfig, SimWorkload,
};

fn main() {
    // A Query-1-sized down-sampling whose extraction shape has even
    // extents in every dimension → every corner coordinate is even.
    let query = StructuralQuery::new(
        "windspeed",
        Shape::new(vec![7200, 360, 720, 50]).expect("valid"),
        Shape::new(vec![2, 36, 36, 10]).expect("valid"),
        Operator::Mean,
    )
    .expect("paper-scale query");
    let reducers = 22;
    let cluster = SimClusterConfig::default();
    // The §4.3 query's reduce phase dominates (Fig 13's x-axis runs
    // past 4 500 s with maps done well before): its Reduce tasks are
    // write-heavy. Modeled as a low reduce-side byte rate.
    let model = CostModel {
        reduce_bps: 25.0e6,
        ..Default::default()
    };

    // Stock partitioning over patterned (corner-coordinate) keys.
    let stock = {
        let mut w = SimWorkload::new(query.clone(), FrameworkMode::SciHadoop, reducers);
        w.hash_keys = HashKeyModel::CornerCoords;
        simulate(&build_sim_job(&w).expect("plans"), &cluster, &model)
    };
    let sidr = {
        let w = SimWorkload::new(query.clone(), FrameworkMode::Sidr, reducers);
        simulate(&build_sim_job(&w).expect("plans"), &cluster, &model)
    };

    let weights = hash_key_weights(&query, reducers, HashKeyModel::CornerCoords);
    let starved = weights.iter().filter(|&&w| w == 0).count();
    let max_w = *weights.iter().max().expect("non-empty");
    let mean_w = weights.iter().sum::<u64>() as f64 / reducers as f64;
    println!(
        "stock hash over corner keys: {starved} of {reducers} reducers starved; \
         max keyblock {:.1}x the mean",
        max_w as f64 / mean_w
    );

    report_curves(
        "fig13",
        "Figure 13: skewed query task completion, stock partitioner vs SIDR, 22 reducers",
        &[
            Curve::maps("Mappers", &stock),
            Curve::reduces("22 Reducers (stock)", &stock),
            Curve::reduces("22 Reducers (SIDR)", &sidr),
        ],
    );

    println!("\nShape checks vs paper:");
    compare(
        "patterned keys starve half the reducers (stock)",
        "all odd reducers empty",
        &format!("{starved} of {reducers} starved"),
        starved >= reducers / 2,
    );
    compare(
        "overloaded reducers get ~2x the expected data",
        "twice as much data",
        &format!("{:.1}x mean", max_w as f64 / mean_w),
        max_w as f64 / mean_w > 1.8,
    );
    let speedup = (makespan_s(&stock) - makespan_s(&sidr)) / makespan_s(&stock);
    compare(
        "SIDR completes much faster on the skewed query",
        "42 % faster",
        &format!("{:.0} % faster", 100.0 * speedup),
        speedup > 0.15,
    );
    // Lightly loaded reducers finish very quickly while overloaded
    // ones straggle (the long tail of Fig 13's stock CDF).
    let stock_curve = Curve::reduces("s", &stock);
    let tail_gap = stock_curve.last() - stock_curve.time_at_fraction(0.5);
    let sidr_curve = Curve::reduces("x", &sidr);
    let sidr_gap = sidr_curve.last() - sidr_curve.time_at_fraction(0.5);
    compare(
        "stock reduce CDF has a long straggler tail; SIDR does not",
        "Fig 13 tail",
        &format!(
            "stock tail {:.0} s vs SIDR tail {:.0} s",
            tail_gap, sidr_gap
        ),
        tail_gap > 2.0 * sidr_gap,
    );
}
