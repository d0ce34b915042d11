//! `wire-bench`: macro-benchmark of the zero-copy binary data path.
//!
//! Two measurements along the reduce→client wire, both at the
//! Figure 8 weekly-averages scale:
//!
//! * **shuffle ingest** — one reducer's partitions, bytes-in to
//!   groups-out: validate a [`Smof3View`] over each fetched SMOF
//!   buffer and merge straight out of the bytes. Reports
//!   records/sec/core and the bytes-in-to-first-group latency — the
//!   front half of time-to-first-keyblock.
//! * **frame encode** — a committed keyblock, records-in to
//!   frame-bytes-out: the JSON `Response::Keyblock` serialization
//!   against [`binframe::encode_keyblock`]. Reports per-frame
//!   latency, wire size, and — via a counting global allocator — the
//!   number of heap allocations per frame across a ladder of keyblock
//!   sizes, proving the binary encoder is O(1) allocations per
//!   keyblock while JSON scales with the record count.
//!
//! ```text
//! cargo run --release -p sidr-bench --bin wire-bench
//! cargo run --release -p sidr-bench --bin wire-bench -- --tiny   # CI smoke
//! ```
//!
//! Emits `results/BENCH_wire.json` (override with `--out`).

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use serde::Serialize;

use sidr_bench::{AllocScope, CountingAlloc};
use sidr_coords::Coord;
use sidr_mapreduce::shuffle_file::encode_map_output;
use sidr_mapreduce::{MapOutputFile, MergeIter, Smof3View};
use sidr_serve::binframe;
use sidr_serve::{frame, Response};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

// ---------------------------------------------------------------
// Workload: one reducer's partitions at fig08 scale.
// ---------------------------------------------------------------

/// Builds `files` key-sorted coordinate-keyed partitions where key
/// `k` lands in `overlap` consecutive files — groups span files, the
/// shuffle's steady state.
fn make_files(files: usize, keys: usize, overlap: usize) -> Vec<MapOutputFile<Coord, f64>> {
    let mut per_file: Vec<Vec<(Coord, f64)>> = vec![Vec::new(); files];
    for k in 0..keys {
        for j in 0..overlap {
            let f = (k + j) % files;
            per_file[f].push((
                Coord::from([(k / 53) as u64, (k % 53) as u64]),
                (k * 31 + j) as f64,
            ));
        }
    }
    per_file
        .into_iter()
        .map(|mut records| {
            records.sort_by(|a, b| a.0.cmp(&b.0));
            MapOutputFile {
                raw_count: records.len() as u64,
                records,
            }
        })
        .collect()
}

/// Consumption checksum: (groups, records, folded value sum).
#[derive(PartialEq, Debug)]
struct Digest {
    groups: u64,
    records: u64,
    sum: f64,
}

fn drain(mut merge: MergeIter<Coord, f64>, first_group_ms: &mut f64, t0: Instant) -> Digest {
    let mut d = Digest {
        groups: 0,
        records: 0,
        sum: 0.0,
    };
    while let Some((_, vs)) = merge.next_group() {
        if d.groups == 0 {
            *first_group_ms = t0.elapsed().as_secs_f64() * 1e3;
        }
        d.groups += 1;
        d.records += vs.len() as u64;
        d.sum += vs.iter().sum::<f64>();
    }
    d
}

/// Ingest: validate a view over each partition's bytes and merge the
/// records in place — no per-record decode, no copy.
fn consume(partitions: &[Arc<Vec<u8>>], first_group_ms: &mut f64) -> Digest {
    let t0 = Instant::now();
    let mut merge: MergeIter<Coord, f64> = MergeIter::new();
    for bytes in partitions {
        let view = Smof3View::<Coord, f64>::parse(Arc::clone(bytes))
            .expect("bench bytes are valid")
            .expect("parse never yields None");
        merge.push_frame(view);
    }
    drain(merge, first_group_ms, t0)
}

// ---------------------------------------------------------------
// Reports
// ---------------------------------------------------------------

#[derive(Serialize)]
struct IngestReport {
    elapsed_ms: f64,
    records_per_sec_per_core: f64,
    first_group_ms: f64,
    bytes_allocated: u64,
    peak_live_bytes: u64,
}

#[derive(Serialize)]
struct MergeSection {
    name: &'static str,
    files: usize,
    total_records: u64,
    input_bytes: u64,
    reps: usize,
    frames: IngestReport,
}

#[derive(Serialize)]
struct EncodeReport {
    first_frame_us: f64,
    frame_bytes: u64,
    allocs_per_frame: u64,
}

#[derive(Serialize)]
struct EncodeSection {
    records_per_keyblock: usize,
    json: EncodeReport,
    binary: EncodeReport,
    latency_speedup: f64,
    wire_size_ratio: f64,
}

#[derive(Serialize)]
struct AllocSection {
    keyblock_sizes: Vec<usize>,
    binary_allocs_per_keyblock: Vec<u64>,
    json_allocs_per_keyblock: Vec<u64>,
    /// True when the binary encoder's allocation count is the same
    /// for every keyblock size — O(1) per keyblock.
    alloc_o1: bool,
}

#[derive(Serialize)]
struct BenchReport {
    bench: String,
    tiny: bool,
    merge: MergeSection,
    frame_encode: EncodeSection,
    allocations: AllocSection,
}

fn measure_ingest<F: FnMut(&mut f64) -> Digest>(
    mut run: F,
    reps: usize,
    total_records: u64,
) -> IngestReport {
    let mut first = f64::NAN;
    let digest = run(&mut first); // warm-up + reference digest
    let scope = AllocScope::start();
    let check = run(&mut first);
    let (bytes_allocated, _calls, peak_live_bytes) = scope.finish();
    assert_eq!(digest, check, "ingest is deterministic");
    let mut best = f64::INFINITY;
    let mut best_first = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        let d = run(&mut first);
        let dt = t.elapsed().as_secs_f64();
        assert_eq!(d.records, total_records);
        best = best.min(dt);
        best_first = best_first.min(first);
    }
    IngestReport {
        elapsed_ms: best * 1e3,
        records_per_sec_per_core: total_records as f64 / best,
        first_group_ms: best_first,
        bytes_allocated,
        peak_live_bytes,
    }
}

/// One keyblock's worth of reduced records.
fn keyblock_records(n: usize) -> Vec<(Coord, f64)> {
    (0..n)
        .map(|i| (Coord::from([(i / 53) as u64, (i % 53) as u64]), i as f64))
        .collect()
}

fn encode_json_frame(buf: &mut Vec<u8>, resp: &Response) {
    buf.clear();
    frame::send(buf, resp).expect("keyblock serializes");
}

fn encode_binary_frame(buf: &mut Vec<u8>, records: &[(Coord, f64)]) {
    buf.clear();
    let bin = binframe::encode_keyblock(7, 3, 1500, records).expect("uniform rank");
    frame::write_frame(buf, &bin).expect("frame fits");
}

/// Best-of-`reps` per-frame encode latency plus one run's counters.
fn measure_encode<F: FnMut(&mut Vec<u8>)>(mut run: F, reps: usize) -> EncodeReport {
    let mut buf = Vec::new();
    run(&mut buf); // warm-up; leaves the frame in `buf`
    let frame_bytes = buf.len() as u64;
    // Fresh buffer so the region counts the steady-state allocations
    // of one frame, not capacity reuse.
    let mut cold = Vec::new();
    let scope = AllocScope::start();
    run(&mut cold);
    let (_bytes, allocs_per_frame, _peak) = scope.finish();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        run(&mut buf);
        best = best.min(t.elapsed().as_secs_f64());
    }
    EncodeReport {
        first_frame_us: best * 1e6,
        frame_bytes,
        allocs_per_frame,
    }
}

/// Allocator calls for one cold-buffer frame encode of `n` records.
fn allocs_for(n: usize, binary: bool) -> u64 {
    let records = keyblock_records(n);
    let resp = Response::Keyblock {
        job: 7,
        reducer: 3,
        at_ms: 1500,
        records: records.clone(),
    };
    let mut buf = Vec::new();
    let scope = AllocScope::start();
    if binary {
        encode_binary_frame(&mut buf, &records);
    } else {
        encode_json_frame(&mut buf, &resp);
    }
    let (_bytes, calls, _peak) = scope.finish();
    calls
}

fn main() -> ExitCode {
    let mut tiny = false;
    let mut out = String::from("results/BENCH_wire.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--tiny" => tiny = true,
            "--out" => match args.next() {
                Some(path) => out = path,
                None => {
                    eprintln!("wire-bench: --out needs a path");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("wire-bench: unknown argument {other:?}");
                return ExitCode::from(2);
            }
        }
    }

    // fig08 scale: 52 weekly map outputs, ~832k combined records per
    // reducer, 4-file key overlap. --tiny shrinks for the CI smoke.
    let files = 52;
    let keys = if tiny { 4_160 } else { 208_000 };
    let reps = if tiny { 3 } else { 7 };

    let sources = make_files(files, keys, 4);
    let total: u64 = sources.iter().map(|f| f.records.len() as u64).sum();
    let partitions: Vec<Arc<Vec<u8>>> = sources
        .iter()
        .map(|f| Arc::new(encode_map_output(f).expect("encodes")))
        .collect();
    let input_bytes: u64 = partitions.iter().map(|b| b.len() as u64).sum();

    let merge = MergeSection {
        name: "fig08-scale",
        files,
        total_records: total,
        input_bytes,
        reps,
        frames: measure_ingest(|first| consume(&partitions, first), reps, total),
    };
    println!(
        "{:>12}: {} files, {} records | {:>10.0} rec/s/core, first group {:>7.3} ms",
        merge.name,
        files,
        total,
        merge.frames.records_per_sec_per_core,
        merge.frames.first_group_ms,
    );

    // fig08's 18.2M-pair shuffle over 22 keyblocks ≈ 827k records per
    // streamed keyblock frame.
    let per_keyblock = if tiny { 8_000 } else { 827_000 };
    let records = keyblock_records(per_keyblock);
    let resp = Response::Keyblock {
        job: 7,
        reducer: 3,
        at_ms: 1500,
        records: records.clone(),
    };
    let json = measure_encode(|buf| encode_json_frame(buf, &resp), reps);
    let binary = measure_encode(|buf| encode_binary_frame(buf, &records), reps);
    let frame_encode = EncodeSection {
        records_per_keyblock: per_keyblock,
        latency_speedup: json.first_frame_us / binary.first_frame_us,
        wire_size_ratio: json.frame_bytes as f64 / binary.frame_bytes as f64,
        json,
        binary,
    };
    println!(
        "frame encode: {} records | json {:>9.1} us, {:>9} B, {:>5} allocs | \
         binary {:>9.1} us, {:>9} B, {:>2} allocs | {:.2}x faster, {:.2}x smaller",
        per_keyblock,
        frame_encode.json.first_frame_us,
        frame_encode.json.frame_bytes,
        frame_encode.json.allocs_per_frame,
        frame_encode.binary.first_frame_us,
        frame_encode.binary.frame_bytes,
        frame_encode.binary.allocs_per_frame,
        frame_encode.latency_speedup,
        frame_encode.wire_size_ratio,
    );

    // O(1)-allocations proof: the binary encoder's allocator-call
    // count must not grow with the keyblock size.
    let sizes: Vec<usize> = if tiny {
        vec![100, 1_000, 8_000]
    } else {
        vec![1_000, 10_000, 100_000, 827_000]
    };
    let bin_allocs: Vec<u64> = sizes.iter().map(|&n| allocs_for(n, true)).collect();
    let json_allocs: Vec<u64> = sizes.iter().map(|&n| allocs_for(n, false)).collect();
    let alloc_o1 = bin_allocs.iter().all(|&c| c == bin_allocs[0]);
    println!(
        "allocs per keyblock over sizes {sizes:?}: binary {bin_allocs:?} (O(1): {alloc_o1}), \
         json {json_allocs:?}"
    );
    let allocations = AllocSection {
        keyblock_sizes: sizes,
        binary_allocs_per_keyblock: bin_allocs,
        json_allocs_per_keyblock: json_allocs,
        alloc_o1,
    };

    let report = BenchReport {
        bench: "wire path: SMOF frame-merge ingest; JSON vs binary keyblock encode".into(),
        tiny,
        merge,
        frame_encode,
        allocations,
    };
    let json_text = serde_json::to_string(&report).expect("report serializes");
    if let Some(parent) = std::path::Path::new(&out).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    if let Err(e) = std::fs::write(&out, &json_text) {
        eprintln!("wire-bench: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("{json_text}");
    ExitCode::SUCCESS
}
