//! Table 3: network connection scaling for Query 1.
//!
//! Hadoop "requires that every Reduce task contact every completed Map
//! task" — connections = maps × reducers. SIDR's reducers contact only
//! the Map tasks in their dependency set `I_ℓ`, so connections stay
//! near the map count (2 820 → 5 106 in the paper as reducers go
//! 22 → 1024, against 61 182 → 2 936 736 for Hadoop).

use sidr_core::{FrameworkMode, StructuralQuery};
use sidr_experiments::{compare, write_csv};
use sidr_simcluster::{build_sim_job, SimWorkload};

fn main() {
    let query = StructuralQuery::query1().expect("paper query is valid");
    // The paper's table uses the SciHadoop split count for both
    // columns (2 781 splits of the 348 GB dataset).
    let w0 = SimWorkload::new(query.clone(), FrameworkMode::Sidr, 22);
    let job0 = build_sim_job(&w0).expect("plans");
    let maps = job0.maps.len() as u64;
    println!("== Table 3: network connection scaling (Query 1, {maps} maps) ==\n");
    println!(
        "{:>14} {:>18} {:>18} {:>8}",
        "reduce count", "Hadoop (#conn)", "SIDR (#conn)", "ratio"
    );

    let mut rows = Vec::new();
    let mut sidr_counts = Vec::new();
    for reducers in [22usize, 66, 132, 264, 528, 1024] {
        let w = SimWorkload::new(query.clone(), FrameworkMode::Sidr, reducers);
        let job = build_sim_job(&w).expect("plans");
        let deps = job.plan.reduce_deps.expect("SIDR plans have deps");
        let sidr: u64 = deps.iter().map(|d| d.len() as u64).sum();
        let hadoop = maps * reducers as u64;
        println!(
            "{reducers:>10}/{maps} {hadoop:>18} {sidr:>18} {:>7.0}x",
            hadoop as f64 / sidr as f64
        );
        rows.push(format!("{reducers},{hadoop},{sidr}"));
        sidr_counts.push((reducers, sidr));
    }
    let path = write_csv(
        "table3",
        "reducers,hadoop_connections,sidr_connections",
        &rows,
    );
    println!("[csv] {}", path.display());

    println!("\nShape checks vs paper:");
    let first = sidr_counts[0].1;
    let last = sidr_counts.last().expect("non-empty").1;
    compare(
        "SIDR connections stay near the map count",
        "2820 at 22R (2781 maps)",
        &format!("{first} at 22R ({maps} maps)"),
        first < maps * 2,
    );
    compare(
        "SIDR grows slowly with reducers; Hadoop multiplies",
        "5106 at 1024R vs 2.94M",
        &format!("{last} at 1024R vs {}", maps * 1024),
        last < maps * 3 && (maps * 1024) / last > 100,
    );
    compare(
        "SIDR count is monotone in the reducer count",
        "2820 .. 5106 increasing",
        &format!(
            "{:?}",
            sidr_counts.iter().map(|&(_, c)| c).collect::<Vec<_>>()
        ),
        sidr_counts.windows(2).all(|w| w[1].1 >= w[0].1),
    );
}
