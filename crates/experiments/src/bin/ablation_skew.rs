//! Ablation (§3.1, footnote 1): the skew-bound trade-off.
//!
//! "Accepting a small amount of skew to create keyblocks of simpler
//! shapes can result in more efficient communications and reduced
//! data dependencies between tasks." A tiny skew bound makes blocks
//! near-perfectly balanced but geometrically ragged (more cover slabs
//! → more routing work, more split↔block boundary crossings); a large
//! bound makes blocks simple contiguous bricks at the cost of up to
//! one dealing-unit of imbalance.

use sidr_coords::Shape;
use sidr_core::deps;
use sidr_core::{Operator, PartitionPlus, StructuralQuery};
use sidr_experiments::{compare, write_csv};
use sidr_mapreduce::SplitGenerator;

fn main() {
    // A laptop-sized Query-1-like workload.
    let query = StructuralQuery::new(
        "windspeed",
        Shape::new(vec![720, 36, 72, 50]).expect("valid"),
        Shape::new(vec![2, 36, 36, 10]).expect("valid"),
        Operator::Median,
    )
    .expect("query is valid");
    let reducers = 22;
    let splits = SplitGenerator::new(query.input_space().clone(), 4)
        .aligned(36 * 72 * 50 * 4 * 4, 2)
        .expect("splits generate");

    println!("== Ablation: skew bound vs keyblock shape complexity ({reducers} reducers) ==\n");
    println!(
        "{:>12} {:>12} {:>14} {:>14} {:>14}",
        "skew bound", "max skew", "cover slabs", "connections", "deps/reduce"
    );

    let kspace = query.intermediate_space();
    let mut rows = Vec::new();
    let mut results = Vec::new();
    for bound in [1u64, 10, 100, 1_000, 10_000] {
        let pp = PartitionPlus::with_skew_bound(kspace.clone(), reducers, bound)
            .expect("partition builds");
        let skew = pp.max_skew().expect("geometry is valid");
        let slabs: usize = (0..reducers)
            .map(|r| pp.keyblock_cover(r).expect("cover exists").len())
            .sum();
        let deps = deps::derive(&query, &pp, &splits).expect("deps derive");
        let conns: usize = deps.iter().map(Vec::len).sum();
        println!(
            "{bound:>12} {skew:>12} {slabs:>14} {conns:>14} {:>14.1}",
            conns as f64 / reducers as f64
        );
        rows.push(format!("{bound},{skew},{slabs},{conns}"));
        results.push((bound, skew, slabs, conns));
    }
    let path = write_csv(
        "ablation_skew",
        "skew_bound,max_skew,cover_slabs,connections",
        &rows,
    );
    println!("[csv] {}", path.display());

    println!("\nChecks:");
    let tightest = results.first().expect("non-empty");
    let loosest = results.last().expect("non-empty");
    compare(
        "larger bound -> simpler keyblock shapes (fewer cover slabs)",
        "footnote 1 trade-off",
        &format!(
            "{} slabs at bound 1 vs {} at bound 10k",
            tightest.2, loosest.2
        ),
        loosest.2 <= tightest.2,
    );
    compare(
        "larger bound -> fewer dependencies / connections",
        "reduced data dependencies",
        &format!(
            "{} conns at bound 1 vs {} at bound 10k",
            tightest.3, loosest.3
        ),
        loosest.3 <= tightest.3,
    );
    compare(
        "skew never exceeds one dealing unit",
        "differ, at most, by one instance",
        "checked for every bound",
        results.iter().all(|&(bound, skew, _, _)| skew <= bound),
    );
}
