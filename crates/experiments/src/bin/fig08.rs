//! Figure 8: how partitioning interacts with the natural alignment
//! between structural queries and file order.
//!
//! "A modulo-based approach (Figure 8a) will result in both keyblocks
//! being dependent on `Iᵢ` spread throughout the dataset while
//! partition+ assigns logically contiguous ranges of `Iᵢ` to
//! keyblocks, exposing any natural alignment between structural
//! queries and the dataset" (§3.4). The paper draws this; we measure
//! it: per keyblock, how many splits it depends on and how wide a span
//! of the file those splits cover.

use std::collections::BTreeSet;

use sidr_coords::Shape;
use sidr_core::deps;
use sidr_core::{Operator, PartitionPlus, StructuralQuery};
use sidr_experiments::{compare, write_csv};
use sidr_mapreduce::{CoordHashPartitioner, Partitioner, SplitGenerator};

fn main() {
    // The paper's weekly-averages example: {364, 250, 200} with
    // extraction {7, 5, 1} (Figure 8 uses the weekly down-sampling).
    let query = StructuralQuery::new(
        "temperature",
        Shape::new(vec![364, 250, 200]).expect("valid"),
        Shape::new(vec![7, 5, 1]).expect("valid"),
        Operator::Mean,
    )
    .expect("query is structural");
    let reducers = 22;
    let splits = SplitGenerator::new(query.input_space().clone(), 4)
        .aligned(250 * 200 * 4 * 14, 7) // 14 rows (2 weeks) per split
        .expect("splits generate");
    let n_splits = splits.len();

    // (a) modulo-based: trace each split's image keys through the
    // stock hash partitioner.
    let hash = CoordHashPartitioner;
    let mut hash_deps: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); reducers];
    for (m, split) in splits.iter().enumerate() {
        if let Some(image) = query
            .image_of_split(&split.slab)
            .expect("geometry is valid")
        {
            let mut blocks = BTreeSet::new();
            for kp in image.iter_coords() {
                blocks.insert(hash.partition(&kp, reducers));
                if blocks.len() == reducers {
                    break;
                }
            }
            for b in blocks {
                hash_deps[b].insert(m);
            }
        }
    }

    // (b) partition+: the real dependency derivation.
    let pp = PartitionPlus::for_query(&query, reducers).expect("partition+ builds");
    let deps = deps::derive(&query, &pp, &splits).expect("deps derive");

    let span = |set: &BTreeSet<usize>| -> usize {
        match (set.iter().next(), set.iter().next_back()) {
            (Some(&lo), Some(&hi)) => hi - lo + 1,
            _ => 0,
        }
    };

    println!("== Figure 8: dependency footprint per keyblock ({n_splits} splits, {reducers} keyblocks) ==\n");
    println!(
        "{:>10} {:>22} {:>22}",
        "keyblock", "modulo |I_l| (span)", "partition+ |I_l| (span)"
    );
    let mut rows = Vec::new();
    let mut hash_total = 0usize;
    let mut plus_total = 0usize;
    let mut hash_span_total = 0usize;
    let mut plus_span_total = 0usize;
    for (b, hash_set) in hash_deps.iter().enumerate() {
        let plus_set: BTreeSet<usize> = deps[b].iter().copied().collect();
        let h_n = hash_set.len();
        let p_n = plus_set.len();
        let h_s = span(hash_set);
        let p_s = span(&plus_set);
        if b < 6 || b == reducers - 1 {
            println!("{b:>10} {h_n:>14} ({h_s:>4}) {p_n:>15} ({p_s:>4})");
        } else if b == 6 {
            println!("{:>10} ...", "");
        }
        rows.push(format!("{b},{h_n},{h_s},{p_n},{p_s}"));
        hash_total += h_n;
        plus_total += p_n;
        hash_span_total += h_s;
        plus_span_total += p_s;
    }
    let path = write_csv(
        "fig08",
        "keyblock,modulo_deps,modulo_span,plus_deps,plus_span",
        &rows,
    );
    println!("[csv] {}", path.display());

    let r = reducers as f64;
    println!(
        "\nmeans: modulo {:.1} deps over span {:.1}; partition+ {:.1} deps over span {:.1}",
        hash_total as f64 / r,
        hash_span_total as f64 / r,
        plus_total as f64 / r,
        plus_span_total as f64 / r
    );
    println!("\nShape checks vs paper:");
    compare(
        "modulo keyblocks depend on splits spread through the file",
        "Fig 8a: global spread",
        &format!(
            "mean span {:.0} of {n_splits} splits",
            hash_span_total as f64 / r
        ),
        hash_span_total as f64 / r > 0.9 * n_splits as f64,
    );
    compare(
        "partition+ keyblocks depend on contiguous, local ranges",
        "Fig 8b: contiguous ranges",
        &format!(
            "mean |I_l| {:.1} = mean span {:.1}",
            plus_total as f64 / r,
            plus_span_total as f64 / r
        ),
        plus_total == plus_span_total, // contiguous: span == count
    );
    compare(
        "partition+ dependency sets are far smaller",
        "exposes natural alignment",
        &format!(
            "{:.1} vs {:.1} deps per keyblock",
            plus_total as f64 / r,
            hash_total as f64 / r
        ),
        plus_total * 5 < hash_total,
    );
}
