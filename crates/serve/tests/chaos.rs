//! Chaos tests for the serving layer: per-job deadlines degrade to a
//! typed terminal state, injected mid-stream task failures are
//! absorbed by the engine's retry machinery without the client ever
//! noticing, and robustness-hostile specs (zero retry budget, zero
//! deadline) are rejected at admission with stable diagnostic codes.

use std::path::PathBuf;
use std::thread;

use sidr_analyze::presets;
use sidr_coords::Coord;
use sidr_core::framework::{run_query, FrameworkMode, RunOptions};
use sidr_core::spec::JobSpec;
use sidr_core::SidrPlanner;
use sidr_mapreduce::{FaultKind, FaultPlan, FaultTarget, RetryPolicy, TaskKind};
use sidr_scifile::gen::{DatasetSpec, ValueModel};
use sidr_serve::{Client, ServeError, Server, ServerConfig, SubmitOptions};

/// Builds the CI-scale preset's spec and (once per path) its dataset.
fn tiny_fixture(tag: &str) -> (JobSpec, String) {
    let job = presets::preset("query1-tiny").expect("preset exists");
    let plan = SidrPlanner::new(&job.query, job.reducer_counts[0])
        .build(&job.splits)
        .unwrap();
    let spec = JobSpec::from_plan(&job.query, &job.splits, &plan).unwrap();

    let dir = std::env::temp_dir().join("sidr-serve-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path: PathBuf = dir.join(format!("chaos-{}-{tag}.scinc", std::process::id()));
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

fn spawn_server(config: ServerConfig) -> (std::net::SocketAddr, sidr_serve::ServerHandle) {
    let server = Server::bind("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.handle();
    thread::spawn(move || server.run());
    (addr, handle)
}

/// A job that blows its deadline is abandoned by the engine and the
/// submitter receives the typed `DeadlineExceeded` terminal frame —
/// distinguishable from a user cancellation. The server records the
/// terminal state before it sends the frame, so the stats are final
/// when the stream ends.
#[test]
fn blown_deadline_degrades_to_typed_terminal_state() {
    let (spec, input) = tiny_fixture("deadline");
    let (addr, handle) = spawn_server(ServerConfig {
        map_slots: 1,
        reduce_slots: 1,
        ..ServerConfig::default()
    });

    // 12 maps straggling 50 ms each on one slot can never meet 40 ms.
    let spec = spec.with_deadline_ms(40);
    let mut client = Client::connect(addr).unwrap();
    let options = SubmitOptions {
        fault_plan: FaultPlan::straggle_maps(0..12, 50),
        ..SubmitOptions::default()
    };
    let ticket = client.submit(&spec, &input, options).unwrap();

    match client.stream_job(ticket.job, |_, _, _| {}) {
        Err(ServeError::DeadlineExceeded { job, deadline_ms }) => {
            assert_eq!(job, ticket.job);
            assert_eq!(deadline_ms, 40);
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }

    let stats = handle.stats();
    assert_eq!(stats.jobs_deadline_exceeded, 1, "{stats:?}");
    assert_eq!(stats.jobs_cancelled, 0, "deadline miscounted as cancel");
    handle.shutdown();
}

/// A map task that dies mid-stream is retried inside the engine; the
/// client's stream completes with results byte-identical to a
/// fault-free batch run, and the retry is visible on the timeline.
#[test]
fn mid_stream_map_failure_is_invisible_to_the_client() {
    let (spec, input) = tiny_fixture("mapfail");
    let (addr, handle) = spawn_server(ServerConfig {
        map_slots: 2,
        reduce_slots: 2,
        ..ServerConfig::default()
    });

    let file = sidr_scifile::ScincFile::open(&input).unwrap();
    let query = spec.query().unwrap();
    let batch = run_query(&file, &query, &RunOptions::new(FrameworkMode::Sidr, 4)).unwrap();

    // Map 3's first attempt fails while the other maps straggle, so
    // the retry lands mid-stream.
    let mut client = Client::connect(addr).unwrap();
    let options = SubmitOptions {
        fault_plan: FaultPlan::straggle_maps((0..12).filter(|&m| m != 3), 5).with(
            FaultTarget::Map(3),
            0,
            FaultKind::Fail,
        ),
        ..SubmitOptions::default()
    };
    let ticket = client.submit(&spec, &input, options).unwrap();

    let mut streamed: Vec<(Coord, f64)> = Vec::new();
    let outcome = client
        .stream_job(ticket.job, |_, _, records| {
            streamed.extend(records.iter().cloned())
        })
        .unwrap();
    assert!(outcome.completed, "job did not survive the injected fault");
    streamed.sort_by(|a, b| a.0.cmp(&b.0));
    assert_eq!(streamed, batch.records);
    assert!(
        outcome
            .events
            .iter()
            .any(|e| e.kind == TaskKind::MapRetry && e.task == 3 && e.attempt == 1),
        "retry not visible on the streamed timeline"
    );
    assert_eq!(handle.stats().jobs_failed, 0);
    handle.shutdown();
}

/// Admission rejects robustness-hostile specs with the stable codes:
/// a zero retry budget (SIDR-E011) and a zero deadline (SIDR-E012).
#[test]
fn hostile_retry_and_deadline_specs_are_rejected_at_admission() {
    let (spec, input) = tiny_fixture("hostile");
    let (addr, handle) = spawn_server(ServerConfig::default());
    let mut client = Client::connect(addr).unwrap();

    let no_retries = spec.clone().with_retry(RetryPolicy {
        max_task_attempts: 0,
        backoff_ms: 1,
    });
    match client.submit(&no_retries, &input, SubmitOptions::default()) {
        Err(ServeError::Rejected { diagnostics, .. }) => {
            assert!(
                diagnostics.iter().any(|d| d.contains("SIDR-E011")),
                "missing SIDR-E011: {diagnostics:?}"
            );
        }
        other => panic!("zero retry budget was admitted: {other:?}"),
    }

    let mut client = Client::connect(addr).unwrap();
    let zero_deadline = spec.with_deadline_ms(0);
    match client.submit(&zero_deadline, &input, SubmitOptions::default()) {
        Err(ServeError::Rejected { diagnostics, .. }) => {
            assert!(
                diagnostics.iter().any(|d| d.contains("SIDR-E012")),
                "missing SIDR-E012: {diagnostics:?}"
            );
        }
        other => panic!("zero deadline was admitted: {other:?}"),
    }

    assert_eq!(handle.stats().jobs_done + handle.stats().jobs_failed, 0);
    handle.shutdown();
}
