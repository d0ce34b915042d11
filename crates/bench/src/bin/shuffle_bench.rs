//! `shuffle-bench`: macro-benchmark of the reduce-side shuffle merge.
//!
//! Compares the legacy flatten-clone-stable-sort merge (the seed's
//! merge, kept here verbatim as the baseline) against the
//! streaming k-way [`MergeIter`] pipeline the engine now runs, on
//! inputs shaped like the paper workloads:
//!
//! * `fig08-scale` — one reducer's merge under the Figure 8 weekly-
//!   averages config: 52 map-output files, ~832k combined records,
//!   each key present in 4 files;
//! * `query1-tiny-scale` — the CI-scale Query 1 analog: 12 files,
//!   24k records, 3-file key overlap.
//!
//! Both paths consume every key group (fold the values), so the
//! numbers measure delivered groups, not construction alone. A
//! counting global allocator reports bytes allocated and the peak
//! live-byte high-water mark per run — the "peak RSS" proxy that
//! shows the streaming path never materializes the keyspace.
//!
//! ```text
//! cargo run --release -p sidr-bench --bin shuffle-bench
//! cargo run --release -p sidr-bench --bin shuffle-bench -- --tiny   # CI smoke
//! ```
//!
//! Emits `results/BENCH_shuffle.json` (override with `--out`).

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use serde::Serialize;

use sidr_bench::{AllocScope, CountingAlloc};
use sidr_mapreduce::{MapOutputFile, MergeIter};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

// ---------------------------------------------------------------
// Baseline: the seed's merge, verbatim.
// ---------------------------------------------------------------

/// The flatten-clone-stable-sort merge `MergeIter` replaced: clones
/// every record, re-sorts the concatenation, materializes the whole
/// `Vec<(K, Vec<V>)>` keyspace before the first group is usable.
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

// ---------------------------------------------------------------
// Workload
// ---------------------------------------------------------------

struct Scale {
    name: &'static str,
    about: &'static str,
    files: usize,
    /// Distinct keys; each appears in `overlap` files.
    keys: usize,
    overlap: usize,
}

/// Builds `files` key-sorted map-output files where key `k` appears
/// in files `k % files .. k % files + overlap` (mod `files`) — every
/// group spans several files, the shuffle's steady state.
fn make_files(s: &Scale) -> Vec<Arc<MapOutputFile<u64, f64>>> {
    let mut per_file: Vec<Vec<(u64, f64)>> = vec![Vec::new(); s.files];
    for k in 0..s.keys {
        for j in 0..s.overlap {
            let f = (k + j) % s.files;
            per_file[f].push((k as u64, (k * 31 + j) as f64));
        }
    }
    per_file
        .into_iter()
        .map(|mut records| {
            records.sort_by_key(|(k, _)| *k);
            Arc::new(MapOutputFile {
                raw_count: records.len() as u64,
                records,
            })
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

fn consume_legacy(files: &[Arc<MapOutputFile<u64, f64>>]) -> Digest {
    let merged = legacy_merge(files);
    let mut d = Digest {
        groups: 0,
        records: 0,
        sum: 0.0,
    };
    for (_, vs) in &merged {
        d.groups += 1;
        d.records += vs.len() as u64;
        d.sum += vs.iter().sum::<f64>();
    }
    d
}

fn consume_streaming(files: &[Arc<MapOutputFile<u64, f64>>]) -> Digest {
    let mut merge = MergeIter::with_files(files.iter().map(Arc::clone));
    let mut d = Digest {
        groups: 0,
        records: 0,
        sum: 0.0,
    };
    while let Some((_, vs)) = merge.next_group() {
        d.groups += 1;
        d.records += vs.len() as u64;
        d.sum += vs.iter().sum::<f64>();
    }
    d
}

// ---------------------------------------------------------------
// Measurement + report
// ---------------------------------------------------------------

#[derive(Serialize)]
struct PathReport {
    elapsed_ms: f64,
    records_per_sec: f64,
    bytes_allocated: u64,
    peak_live_bytes: u64,
}

#[derive(Serialize)]
struct ScaleReport {
    name: &'static str,
    about: &'static str,
    files: usize,
    distinct_keys: usize,
    key_overlap: usize,
    total_records: u64,
    reps: usize,
    legacy: PathReport,
    streaming: PathReport,
    /// streaming records/sec over legacy records/sec.
    throughput_speedup: f64,
    /// legacy peak live bytes over streaming peak live bytes.
    peak_memory_ratio: f64,
}

#[derive(Serialize)]
struct BenchReport {
    bench: String,
    tiny: bool,
    scales: Vec<ScaleReport>,
}

/// Best-of-`reps` wall time plus one instrumented run's counters.
fn measure<F: Fn() -> Digest>(run: F, reps: usize, total_records: u64) -> (PathReport, Digest) {
    let digest = run(); // warm-up, and the digest for equivalence
    let scope = AllocScope::start();
    let check = run();
    let (bytes_allocated, _calls, peak_live_bytes) = scope.finish();
    assert_eq!(digest, check, "merge is deterministic");
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        let d = run();
        let dt = t.elapsed().as_secs_f64();
        assert_eq!(d.records, total_records);
        best = best.min(dt);
    }
    (
        PathReport {
            elapsed_ms: best * 1e3,
            records_per_sec: total_records as f64 / best,
            bytes_allocated,
            peak_live_bytes,
        },
        digest,
    )
}

fn main() -> ExitCode {
    let mut tiny = false;
    let mut out = String::from("results/BENCH_shuffle.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--tiny" => tiny = true,
            "--out" => match args.next() {
                Some(path) => out = path,
                None => {
                    eprintln!("shuffle-bench: --out needs a path");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("shuffle-bench: unknown argument {other:?}");
                return ExitCode::from(2);
            }
        }
    }

    // ~832k records ≈ one reducer's share of fig08's 18.2M-pair
    // shuffle across 22 keyblocks; 24k ≈ query1-tiny's per-reducer
    // combined load. --tiny shrinks both for the CI smoke run.
    let scales = [
        Scale {
            name: "fig08-scale",
            about: "one reducer of the Fig. 8 weekly-averages shuffle",
            files: 52,
            keys: if tiny { 4_160 } else { 208_000 },
            overlap: 4,
        },
        Scale {
            name: "query1-tiny-scale",
            about: "one reducer of the CI-scale Query 1 analog",
            files: 12,
            keys: if tiny { 800 } else { 8_000 },
            overlap: 3,
        },
    ];
    let reps = if tiny { 3 } else { 7 };

    let mut reports = Vec::new();
    for scale in &scales {
        let files = make_files(scale);
        let total: u64 = files.iter().map(|f| f.records.len() as u64).sum();
        let (legacy, legacy_digest) = measure(|| consume_legacy(&files), reps, total);
        let (streaming, streaming_digest) = measure(|| consume_streaming(&files), reps, total);
        assert_eq!(
            legacy_digest, streaming_digest,
            "streaming merge must consume identical groups"
        );
        let speedup = streaming.records_per_sec / legacy.records_per_sec;
        let mem_ratio = legacy.peak_live_bytes as f64 / streaming.peak_live_bytes.max(1) as f64;
        println!(
            "{:>18}: {} files, {} records | legacy {:>10.0} rec/s, {:>6.1} MiB peak | \
             streaming {:>10.0} rec/s, {:>6.3} MiB peak | {:.2}x throughput, {:.0}x less memory",
            scale.name,
            scale.files,
            total,
            legacy.records_per_sec,
            legacy.peak_live_bytes as f64 / (1 << 20) as f64,
            streaming.records_per_sec,
            streaming.peak_live_bytes as f64 / (1 << 20) as f64,
            speedup,
            mem_ratio,
        );
        reports.push(ScaleReport {
            name: scale.name,
            about: scale.about,
            files: scale.files,
            distinct_keys: scale.keys,
            key_overlap: scale.overlap,
            total_records: total,
            reps,
            legacy,
            streaming,
            throughput_speedup: speedup,
            peak_memory_ratio: mem_ratio,
        });
    }

    let report = BenchReport {
        bench: "shuffle merge: legacy flatten-sort vs streaming k-way".into(),
        tiny,
        scales: reports,
    };
    let json = serde_json::to_string(&report).expect("report serializes");
    if let Some(parent) = std::path::Path::new(&out).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("shuffle-bench: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("{json}");
    ExitCode::SUCCESS
}
