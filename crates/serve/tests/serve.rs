//! End-to-end serving tests: the acceptance path of the multi-tenant
//! service. Two clients run concurrently on one shared slot pool;
//! each job's streamed keyblocks are byte-identical to the batch
//! answer, and the first keyblock frame lands before the job's last
//! map task finishes (§3.4 early results, proven via the engine's
//! task timeline).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::thread;

use sidr_analyze::presets;
use sidr_coords::Coord;
use sidr_core::framework::{run_query, FrameworkMode, RunOptions};
use sidr_core::spec::JobSpec;
use sidr_core::SidrPlanner;
use sidr_mapreduce::{FaultPlan, RetryPolicy, TaskEvent, TaskKind};
use sidr_scifile::gen::{DatasetSpec, ValueModel};
use sidr_serve::frame::{read_frame, write_frame};
use sidr_serve::{Client, Response, ServeError, Server, ServerConfig, SubmitOptions, Tcp};

/// Builds the CI-scale preset's spec and (once per path) its dataset.
fn tiny_fixture(tag: &str) -> (JobSpec, String) {
    let job = presets::preset("query1-tiny").expect("preset exists");
    let plan = SidrPlanner::new(&job.query, job.reducer_counts[0])
        .build(&job.splits)
        .unwrap();
    let spec = JobSpec::from_plan(&job.query, &job.splits, &plan).unwrap();

    let dir = std::env::temp_dir().join("sidr-serve-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path: PathBuf = dir.join(format!("tiny-{}-{tag}.scinc", std::process::id()));
    if !path.exists() {
        let space = job.query.input_space().clone();
        DatasetSpec {
            variable: job.query.variable.clone(),
            dim_names: (0..space.rank()).map(|d| format!("d{d}")).collect(),
            space,
            model: ValueModel::LinearIndex,
            seed: 0,
        }
        .generate::<f32>(&path)
        .unwrap();
    }
    (spec, path.to_string_lossy().into_owned())
}

/// Submit options that slow the first attempt of every map of `spec`
/// by `delay_ms`, so a job stays in flight long enough to observe.
fn straggled(spec: &JobSpec, delay_ms: u64) -> SubmitOptions {
    SubmitOptions {
        fault_plan: FaultPlan::straggle_maps(0..spec.splits.len(), delay_ms),
        ..SubmitOptions::default()
    }
}

/// Spins up a server on an ephemeral port; returns its address and a
/// control handle.
fn spawn_server(config: ServerConfig) -> (std::net::SocketAddr, sidr_serve::ServerHandle) {
    let server = Server::bind(Arc::new(Tcp), "127.0.0.1:0", config).unwrap();
    let addr: std::net::SocketAddr = server.local_addr().parse().unwrap();
    let handle = server.handle();
    thread::spawn(move || server.run());
    (addr, handle)
}

/// The tentpole acceptance test: two clients submit concurrently, the
/// jobs share one slot pool, every streamed keyblock is final and the
/// union is byte-identical to the batch answer — delivered early.
#[test]
fn two_concurrent_clients_stream_exact_results_early() {
    let (spec, input) = tiny_fixture("concurrent");
    let (addr, handle) = spawn_server(ServerConfig {
        map_slots: 2,
        reduce_slots: 2,
        ..ServerConfig::default()
    });

    // The batch truth: the same query through the non-serving path.
    let file = sidr_scifile::ScincFile::open(&input).unwrap();
    let query = spec.query().unwrap();
    let batch = run_query(&file, &query, &RunOptions::new(FrameworkMode::Sidr, 4)).unwrap();

    let static_first_frames = AtomicU32::new(0);
    thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let spec = spec.clone();
                let input = input.clone();
                let batch_records = batch.records.clone();
                let first_frames = &static_first_frames;
                s.spawn(move || {
                    let mut client = Client::connect(&addr.to_string()).unwrap();
                    let ticket = client
                        .submit(
                            &spec,
                            &input,
                            // Maps trickle so early delivery is
                            // observable, not raced.
                            straggled(&spec, 10),
                        )
                        .unwrap();
                    assert_eq!(ticket.keyblocks, 4);
                    assert_eq!(ticket.num_maps, 12);

                    let mut streamed: Vec<(Coord, f64)> = Vec::new();
                    let mut seen_blocks = Vec::new();
                    let outcome = client
                        .stream_job(ticket.job, |reducer, _at_ms, records| {
                            seen_blocks.push(reducer);
                            streamed.extend(records.iter().cloned());
                        })
                        .unwrap();
                    assert!(outcome.completed);

                    // Every keyblock arrived exactly once.
                    seen_blocks.sort_unstable();
                    assert_eq!(seen_blocks, vec![0, 1, 2, 3]);

                    // Byte-identical to the batch answer.
                    streamed.sort_by(|a, b| a.0.cmp(&b.0));
                    assert_eq!(streamed, batch_records);
                    assert_eq!(outcome.records, streamed.len() as u64);

                    // Early delivery: the first reduce committed
                    // before the job's final map finished.
                    let first_reduce = outcome
                        .events
                        .iter()
                        .filter(|e| e.kind == TaskKind::ReduceEnd)
                        .map(|e| e.at)
                        .min()
                        .expect("job had reduces");
                    let last_map = outcome
                        .events
                        .iter()
                        .filter(|e| e.kind == TaskKind::MapEnd)
                        .map(|e| e.at)
                        .max()
                        .expect("job had maps");
                    assert!(
                        first_reduce < last_map,
                        "first keyblock at {first_reduce:?} did not precede \
                         the last map at {last_map:?}"
                    );
                    first_frames.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
    });
    assert_eq!(static_first_frames.load(Ordering::Relaxed), 2);

    // The pool drained and the lifetime counters saw both jobs.
    let stats = handle.stats();
    assert_eq!(stats.jobs_done, 2);
    assert_eq!(stats.jobs_running, 0);
    assert_eq!(stats.keyblocks_committed, 8);
    assert!(stats.bytes_streamed > 0);
    assert_eq!(stats.map_busy, 0);
    assert_eq!(stats.reduce_busy, 0);
    handle.shutdown();
}

/// Admission rejects a tampered spec with the verifier's diagnostics
/// — nothing is scheduled. So are robustness-hostile specs, with their
/// stable codes: a zero retry budget (SIDR-E011) and a zero deadline
/// (SIDR-E012).
#[test]
fn tampered_spec_is_rejected_at_admission() {
    let (spec, input) = tiny_fixture("reject");
    let (addr, handle) = spawn_server(ServerConfig::default());

    let mut bad = spec.clone();
    bad.reduce_deps[0].pop();
    let no_retries = spec.clone().with_retry(RetryPolicy {
        max_task_attempts: 0,
        backoff_ms: 1,
    });
    let zero_deadline = spec.with_deadline_ms(0);
    let mut client = Client::connect(&addr.to_string()).unwrap();
    for (bad, code) in [
        (bad, ""),
        (no_retries, "SIDR-E011"),
        (zero_deadline, "SIDR-E012"),
    ] {
        match client.submit(&bad, &input, SubmitOptions::default()) {
            Err(ServeError::Rejected { diagnostics, .. }) => {
                assert!(
                    diagnostics.iter().any(|d| d.contains(code)),
                    "missing {code:?}: {diagnostics:?}"
                );
            }
            other => panic!("tampered spec was not rejected: {other:?}"),
        }
    }
    assert_eq!(handle.stats().jobs_done + handle.stats().jobs_failed, 0);
    handle.shutdown();
}

/// Satellite 3 at the socket level: malformed and oversized frames
/// draw a protocol `Error` frame (never a panic, never a hang).
#[test]
fn malformed_frames_draw_a_protocol_error() {
    let (addr, handle) = spawn_server(ServerConfig::default());

    // Garbage payload in a well-formed frame.
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    write_frame(&mut stream, b"this is not a request").unwrap();
    let payload = read_frame(&mut stream).unwrap().expect("an error frame");
    let resp: Response = serde_json::from_str(std::str::from_utf8(&payload).unwrap()).unwrap();
    assert!(matches!(resp, Response::Error { .. }), "got {resp:?}");
    // The server closes the unsalvageable connection afterwards.
    assert_eq!(read_frame(&mut stream).unwrap(), None);

    // Hostile length prefix.
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    use std::io::Write as _;
    stream.write_all(&u32::MAX.to_le_bytes()).unwrap();
    stream.flush().unwrap();
    let payload = read_frame(&mut stream).unwrap().expect("an error frame");
    let resp: Response = serde_json::from_str(std::str::from_utf8(&payload).unwrap()).unwrap();
    assert!(matches!(resp, Response::Error { .. }), "got {resp:?}");
    handle.shutdown();
}

/// The first frame on a connection must be the `Hello`: a well-formed
/// `Request` sent without one is refused like any other garbage — a
/// protocol `Error` frame, then a close — and is never executed.
#[test]
fn request_without_hello_draws_a_protocol_error() {
    let (addr, handle) = spawn_server(ServerConfig::default());

    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    sidr_serve::frame::send(&mut stream, &sidr_serve::Request::Stats).unwrap();
    let payload = read_frame(&mut stream).unwrap().expect("an error frame");
    let resp: Response = serde_json::from_str(std::str::from_utf8(&payload).unwrap()).unwrap();
    assert!(matches!(resp, Response::Error { .. }), "got {resp:?}");
    assert_eq!(read_frame(&mut stream).unwrap(), None);
    handle.shutdown();
}

/// Computational steering over the wire (§3.4): a client-supplied
/// priority region reorders delivery — the keyblock covering the
/// region's corner streams back first. It must hold whether keyblocks take
/// reduce slots one at a time or (4 slots) are all in flight at once,
/// where only the order their maps are served in can steer. At one
/// reduce slot the whole order is admission's plan: the region's
/// keyblock, then the rest in the spec's stored (hand-permuted) order.
#[test]
fn priority_region_steers_first_delivery() {
    let (mut spec, input) = tiny_fixture("steer");
    spec.reduce_order = vec![2, 0, 3, 1];
    // K′ᵀ is {24,1,1,1} over 4 keyblocks of 6 keys; steer to block 3's
    // region, which neither the stored nor the default order leads with.
    let region = sidr_coords::Slab::new(
        Coord::new(vec![20, 0, 0, 0]),
        sidr_coords::Shape::new(vec![2, 1, 1, 1]).unwrap(),
    )
    .unwrap();

    for reduce_slots in [1, 4] {
        let (addr, handle) = spawn_server(ServerConfig {
            map_slots: 1,
            reduce_slots,
            ..ServerConfig::default()
        });
        let mut client = Client::connect(&addr.to_string()).unwrap();
        let ticket = client
            .submit(
                &spec,
                &input,
                SubmitOptions {
                    priority_region: Some(region.clone()),
                    ..straggled(&spec, 5)
                },
            )
            .unwrap();
        let mut order = Vec::new();
        client
            .stream_job(ticket.job, |reducer, _, _| order.push(reducer))
            .unwrap();
        assert_eq!(
            order.first(),
            Some(&3),
            "{reduce_slots} reduce slot(s): steered keyblock did not stream first: {order:?}"
        );
        if reduce_slots == 1 {
            assert_eq!(order, [3, 2, 0, 1], "the served order is not the plan's");
        }
        handle.shutdown();
    }
}

/// `sidr-submit submit --trace FILE` writes the job's record: each line
/// of FILE is one `TaskEvent`, with one `MapEnd` per map and one
/// `ReduceEnd` per keyblock of the preset.
#[test]
fn submit_trace_writes_the_jobs_events() {
    let (addr, _handle) = spawn_server(ServerConfig::default());
    let dir = std::env::temp_dir().join("sidr-serve-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let tag = format!("{}-trace", std::process::id());
    let (input, trace) = (
        dir.join(format!("tiny-{tag}.scinc")),
        dir.join(format!("{tag}.jsonl")),
    );
    let run = std::process::Command::new(env!("CARGO_BIN_EXE_sidr-submit"))
        .args([
            "submit",
            "--addr",
            &addr.to_string(),
            "--preset",
            "query1-tiny",
        ])
        .args(["--generate", "--quiet"])
        .arg("--input")
        .arg(&input)
        .arg("--trace")
        .arg(&trace)
        .output()
        .unwrap();
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );

    let text = std::fs::read_to_string(&trace).unwrap();
    let events: Vec<TaskEvent> = (text.lines())
        .map(|line| serde_json::from_str(line).unwrap())
        .collect();
    let tasks = |kind| {
        let mut tasks: Vec<usize> = (events.iter())
            .filter(|e| e.kind == kind)
            .map(|e| e.task)
            .collect();
        tasks.sort_unstable();
        tasks
    };
    let job = presets::preset("query1-tiny").expect("preset exists");
    let maps: Vec<usize> = (0..job.splits.len()).collect();
    let keyblocks: Vec<usize> = (0..job.reducer_counts[0]).collect();
    assert_eq!(tasks(TaskKind::MapEnd), maps, "one MapEnd per map");
    assert_eq!(
        tasks(TaskKind::ReduceEnd),
        keyblocks,
        "one ReduceEnd per keyblock"
    );

    Client::connect(&addr.to_string()).unwrap().shutdown().ok();
    std::fs::remove_file(&input).ok();
    std::fs::remove_file(&trace).ok();
}
