//! `sidr-serve`: the structural-query daemon.
//!
//! ```text
//! sidr-serve --listen 127.0.0.1:7733 --map-slots 8 --reduce-slots 4
//! ```
//!
//! Accepts `JobSpec` submissions over the length-prefixed JSON
//! protocol, proves each one's plan at admission, runs the admitted
//! plans concurrently on one shared slot pool and streams
//! every keyblock back the moment its reduce commits. Submit with
//! `sidr-submit`.

use std::process::ExitCode;
use std::sync::Arc;

use sidr_serve::{Server, ServerConfig, Tcp};

struct Args {
    listen: String,
    map_slots: usize,
    reduce_slots: usize,
    workers: Vec<String>,
}

fn usage() -> &'static str {
    "usage: sidr-serve [options]\n\
     \n\
     Runs the structural-query service: admits serialized JobSpecs,\n\
     executes them concurrently on one shared slot pool and streams\n\
     each keyblock back the moment its reduce commits.\n\
     \n\
     options:\n\
     \x20 --listen ADDR      bind address (default 127.0.0.1:7733)\n\
     \x20 --map-slots N      cluster-wide map slots (default 4)\n\
     \x20 --reduce-slots N   cluster-wide reduce slots (default 2)\n\
     \x20 --worker ADDR      dispatch task attempts to the sidr-worker\n\
     \x20                    at ADDR (repeatable; with no --worker the\n\
     \x20                    server executes jobs in-process)\n"
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        listen: "127.0.0.1:7733".into(),
        map_slots: 4,
        reduce_slots: 2,
        workers: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--listen" => args.listen = it.next().ok_or("--listen needs an address")?,
            "--map-slots" => {
                let n = it.next().ok_or("--map-slots needs a count")?;
                args.map_slots = n.parse().map_err(|_| format!("bad slot count {n:?}"))?;
            }
            "--reduce-slots" => {
                let n = it.next().ok_or("--reduce-slots needs a count")?;
                args.reduce_slots = n.parse().map_err(|_| format!("bad slot count {n:?}"))?;
            }
            "--worker" => args
                .workers
                .push(it.next().ok_or("--worker needs an address")?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if msg.is_empty() {
                print!("{}", usage());
                return ExitCode::SUCCESS;
            }
            eprintln!("sidr-serve: {msg}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let fleet_size = args.workers.len();
    let config = ServerConfig {
        map_slots: args.map_slots,
        reduce_slots: args.reduce_slots,
        workers: args.workers,
    };
    let server = match Server::bind(Arc::new(Tcp), &args.listen, config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sidr-serve: cannot bind {}: {e}", args.listen);
            return ExitCode::FAILURE;
        }
    };
    let mode = if fleet_size > 0 {
        format!("coordinating {fleet_size} worker(s)")
    } else {
        "in-process execution".to_string()
    };
    println!(
        "sidr-serve: listening on {} ({} map + {} reduce slots, {mode})",
        server.local_addr(),
        args.map_slots,
        args.reduce_slots
    );
    if let Err(e) = server.run() {
        eprintln!("sidr-serve: accept loop failed: {e}");
        return ExitCode::FAILURE;
    }
    println!("sidr-serve: shut down");
    ExitCode::SUCCESS
}
