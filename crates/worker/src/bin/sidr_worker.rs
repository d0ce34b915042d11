//! `sidr-worker` — run one worker daemon.
//!
//! ```text
//! sidr-worker --listen 127.0.0.1:7072 --memory-budget 64m
//! ```
//!
//! The worker binds the given address, serves task dispatches from a
//! `sidr-serve` coordinator (started with matching `--worker` flags)
//! and shuffle fetches from peer workers, and runs until killed.
//!
//! With `--memory-budget` the worker caps resident partition bytes:
//! past the budget the coldest partitions degrade to a disk spill
//! tier (read back and re-validated on fetch) instead of growing the
//! heap without bound. A spill directory that cannot be written (a
//! full or read-only disk) degrades gracefully: those partitions stay
//! pinned resident and the worker reports memory pressure.

use std::path::PathBuf;

use sidr_worker::{Worker, WorkerOptions};

fn usage() -> ! {
    eprintln!(
        "usage: sidr-worker --listen HOST:PORT [options]\n\n\
         Runs one worker of a sidr-serve coordinator's fleet. The\n\
         coordinator must list this worker's address in its --worker\n\
         flags; input paths are resolved on this machine, so\n\
         coordinator and workers must share the dataset filesystem.\n\n\
         options:\n\
         \x20 --memory-budget N[k|m|g]  resident partition byte budget;\n\
         \x20                           past it the coldest partitions\n\
         \x20                           spill to disk (default unbounded)\n\
         \x20 --spill-dir PATH          spill directory (default: a\n\
         \x20                           per-process temp directory)"
    );
    std::process::exit(2);
}

/// Parses `64`, `64k`, `64m`, `64g` (case-insensitive) into bytes.
fn parse_bytes(s: &str) -> Option<u64> {
    let s = s.trim();
    let (num, mult) = match s.chars().last()? {
        'k' | 'K' => (&s[..s.len() - 1], 1u64 << 10),
        'm' | 'M' => (&s[..s.len() - 1], 1u64 << 20),
        'g' | 'G' => (&s[..s.len() - 1], 1u64 << 30),
        _ => (s, 1),
    };
    num.parse::<u64>().ok()?.checked_mul(mult)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut listen: Option<String> = None;
    let mut options = WorkerOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--listen" => {
                i += 1;
                listen = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--memory-budget" => {
                i += 1;
                let raw = args.get(i).cloned().unwrap_or_else(|| usage());
                options.budget_bytes = parse_bytes(&raw).unwrap_or_else(|| {
                    eprintln!("sidr-worker: bad --memory-budget {raw:?}");
                    std::process::exit(2);
                });
            }
            "--spill-dir" => {
                i += 1;
                options.spill_dir = Some(PathBuf::from(
                    args.get(i).cloned().unwrap_or_else(|| usage()),
                ));
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 1;
    }
    let listen = listen.unwrap_or_else(|| usage());
    let worker = match Worker::spawn_with(&listen, options.clone()) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("sidr-worker: cannot bind {listen}: {e}");
            std::process::exit(1);
        }
    };
    if options.budget_bytes > 0 {
        println!(
            "sidr-worker listening on {} (memory budget {} bytes)",
            worker.addr(),
            options.budget_bytes
        );
    } else {
        println!("sidr-worker listening on {}", worker.addr());
    }
    worker.wait();
}
