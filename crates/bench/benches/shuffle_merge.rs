//! Reduce-side sort/merge of map-output files — the post-barrier cost
//! every reduce task pays (§2.3: "merge all their data into a sorted
//! list").
//!
//! Two benchmark groups:
//! * `shuffle_merge/legacy` — the seed's flatten-clone-stable-sort
//!   merge, reimplemented here as the baseline;
//! * `shuffle_merge/streaming` — the heap-based [`MergeIter`] the
//!   engine now runs, consuming one borrowed key group at a time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::sync::Arc;

use sidr_mapreduce::{MapOutputFile, MergeIter};

/// Builds `files` sorted map-output files of `per_file` keyed records,
/// with keys interleaved across files (the shuffle's worst case).
fn make_files(files: usize, per_file: usize) -> Vec<Arc<MapOutputFile<u64, f64>>> {
    (0..files)
        .map(|f| {
            let records: Vec<(u64, f64)> = (0..per_file)
                .map(|i| ((i * files + f) as u64, f as f64))
                .collect();
            Arc::new(MapOutputFile {
                records,
                raw_count: per_file as u64,
            })
        })
        .collect()
}

/// The seed implementation, kept as the baseline: clone every record,
/// re-sort the concatenation, group into owned vectors.
fn legacy_merge(files: &[Arc<MapOutputFile<u64, f64>>]) -> Vec<(u64, Vec<f64>)> {
    let mut all: Vec<(u64, f64)> = files
        .iter()
        .flat_map(|f| f.records.iter().cloned())
        .collect();
    all.sort_by_key(|a| a.0);
    let mut out: Vec<(u64, Vec<f64>)> = Vec::new();
    for (k, v) in all {
        match out.last_mut() {
            Some((lk, vs)) if *lk == k => vs.push(v),
            _ => out.push((k, vec![v])),
        }
    }
    out
}

fn bench_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("shuffle_merge");
    for (files, per_file) in [(8usize, 20_000usize), (64, 2_500), (256, 625)] {
        let input = make_files(files, per_file);
        let total = (files * per_file) as u64;
        group.throughput(Throughput::Elements(total));
        group.bench_function(BenchmarkId::new("legacy", format!("{files}files")), |b| {
            b.iter(|| {
                let merged = legacy_merge(&input);
                assert_eq!(merged.len(), files * per_file);
                merged
            })
        });
        group.bench_function(
            BenchmarkId::new("streaming", format!("{files}files")),
            |b| {
                b.iter(|| {
                    let mut merge = MergeIter::with_files(input.iter().map(Arc::clone));
                    let mut groups = 0usize;
                    let mut sum = 0.0f64;
                    while let Some((_, vs)) = merge.next_group() {
                        groups += 1;
                        sum += vs.iter().sum::<f64>();
                    }
                    assert_eq!(groups, files * per_file);
                    sum
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_merge);
criterion_main!(benches);
