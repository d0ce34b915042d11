//! The reduce→client wire path: encoding a committed keyblock into
//! its outbound frame, and ingesting fetched partition bytes into the
//! merge.
//!
//! Benchmark groups:
//! * `wire/keyblock_json` — the legacy path: serialize the keyblock
//!   as a JSON `Response::Keyblock` frame;
//! * `wire/keyblock_binary` — the negotiated path:
//!   [`binframe::encode_keyblock`] into one packed buffer;
//! * `wire/ingest` — validate a [`Smof3View`] over a SMOF partition's
//!   bytes and merge straight out of them.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::sync::Arc;

use sidr_coords::Coord;
use sidr_mapreduce::shuffle_file::encode_map_output;
use sidr_mapreduce::{MapOutputFile, MergeIter, Smof3View};
use sidr_serve::binframe;
use sidr_serve::{frame, Response};

fn keyblock(n: usize) -> Vec<(Coord, f64)> {
    (0..n)
        .map(|i| (Coord::from([(i / 53) as u64, (i % 53) as u64]), i as f64))
        .collect()
}

fn bench_keyblock_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire");
    for n in [1_000usize, 50_000] {
        let records = keyblock(n);
        let resp = Response::Keyblock {
            job: 7,
            reducer: 3,
            at_ms: 1500,
            records: records.clone(),
        };
        group.throughput(Throughput::Elements(n as u64));
        group.bench_function(BenchmarkId::new("keyblock_json", n), |b| {
            let mut buf = Vec::new();
            b.iter(|| {
                buf.clear();
                frame::send(&mut buf, &resp).unwrap();
                buf.len()
            });
        });
        group.bench_function(BenchmarkId::new("keyblock_binary", n), |b| {
            let mut buf = Vec::new();
            b.iter(|| {
                buf.clear();
                let bin = binframe::encode_keyblock(7, 3, 1500, &records).unwrap();
                frame::write_frame(&mut buf, &bin).unwrap();
                buf.len()
            });
        });
    }
    group.finish();
}

fn partition(n: usize) -> MapOutputFile<Coord, f64> {
    MapOutputFile {
        raw_count: n as u64,
        records: keyblock(n),
    }
}

fn bench_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire");
    let n = 40_000usize;
    let bytes = Arc::new(encode_map_output(&partition(n)).unwrap());
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function(BenchmarkId::new("ingest", n), |b| {
        b.iter(|| {
            let view = Smof3View::<Coord, f64>::parse(Arc::clone(&bytes))
                .unwrap()
                .unwrap();
            let mut merge: MergeIter<Coord, f64> = MergeIter::new();
            merge.push_frame(view);
            let mut records = 0u64;
            while let Some((_, vs)) = merge.next_group() {
                records += vs.len() as u64;
            }
            records
        });
    });
    group.finish();
}

criterion_group!(benches, bench_keyblock_encode, bench_ingest);
criterion_main!(benches);
