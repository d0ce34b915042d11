//! §3.2.1's store-vs-recompute decision as a bench: deriving the full
//! dependency map at submission vs recomputing one keyblock's `I_ℓ`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use sidr_bench::bench_query;
use sidr_core::deps;
use sidr_core::PartitionPlus;
use sidr_mapreduce::SplitGenerator;

fn bench_deps(c: &mut Criterion) {
    let query = bench_query();
    let splits = SplitGenerator::new(query.input_space().clone(), 4)
        .aligned(36 * 72 * 50 * 4 * 4, 2)
        .expect("splits generate");

    let mut group = c.benchmark_group("dependencies");
    for reducers in [22usize, 176] {
        let pp = PartitionPlus::for_query(&query, reducers).expect("partition+ builds");
        group.bench_function(BenchmarkId::new("derive_all", reducers), |b| {
            b.iter(|| black_box(deps::derive(&query, &pp, &splits).expect("derives")))
        });
        group.bench_function(BenchmarkId::new("recompute_one_keyblock", reducers), |b| {
            let target = reducers / 2;
            b.iter(|| {
                let mut mine = Vec::new();
                for (m, split) in splits.iter().enumerate() {
                    let blocks =
                        deps::keyblocks_of_split(&query, &pp, &split.slab).expect("valid geometry");
                    if blocks.contains(&target) {
                        mine.push(m);
                    }
                }
                black_box(mine)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_deps);
criterion_main!(benches);
