//! End-to-end agreement between the two observability surfaces: after
//! a known workload, the `Metrics` frame's Prometheus exposition must
//! tell the same story as the `Stats` frame's [`ServerStats`]
//! snapshot, and the engine's histograms must have seen the work.
//!
//! This test lives alone in its own integration-test binary on
//! purpose: the metric registry is process-global, so any other test
//! running jobs in the same process would perturb the counters.

use std::path::PathBuf;
use std::sync::Arc;
use std::thread;

use sidr_analyze::presets;
use sidr_core::spec::JobSpec;
use sidr_core::SidrPlanner;
use sidr_obs::text::{self, Exposition};
use sidr_scifile::gen::{DatasetSpec, ValueModel};
use sidr_serve::{Client, Server, ServerConfig, SubmitOptions, Tcp};

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

/// The sole sample of a label-free series, as a count.
fn value(exp: &Exposition, name: &str) -> u64 {
    let s = exp
        .sample(name, &[])
        .unwrap_or_else(|| panic!("metric {name} missing from exposition"));
    s.value as u64
}

fn gauge(exp: &Exposition, name: &str, label: (&str, &str)) -> i64 {
    let s = exp
        .sample(name, &[label])
        .unwrap_or_else(|| panic!("metric {name}{{{}={:?}}} missing", label.0, label.1));
    s.value as i64
}

#[test]
fn metrics_frame_agrees_with_stats_after_known_workload() {
    let (spec, input) = tiny_fixture("metrics");
    let server = Server::bind(
        Arc::new(Tcp),
        "127.0.0.1:0",
        ServerConfig {
            map_slots: 2,
            reduce_slots: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr: std::net::SocketAddr = server.local_addr().parse().unwrap();
    let handle = server.handle();
    thread::spawn(move || server.run());

    let mut client = Client::connect(&addr.to_string()).unwrap();

    // An idle daemon already exposes the full inventory, all zero.
    let idle = text::parse(&client.metrics().unwrap()).expect("idle exposition parses");
    assert_eq!(value(&idle, "sidr_serve_jobs_done_total"), 0);
    assert_eq!(value(&idle, "sidr_serve_keyblocks_total"), 0);
    assert_eq!(gauge(&idle, "sidr_slots_busy", ("class", "map")), 0);

    // Known workload: two jobs to completion, plus one rejected
    // submission (a spec whose plan admission refuses).
    let mut keyblock_frames = 0u64;
    for _ in 0..2 {
        let ticket = client
            .submit(&spec, &input, SubmitOptions::default())
            .unwrap();
        let outcome = client
            .stream_job(ticket.job, |_reducer, _at_ms, _records| {
                keyblock_frames += 1;
            })
            .unwrap();
        assert!(outcome.completed);
    }
    let mut bad = spec.clone();
    bad.reduce_deps[0].pop();
    assert!(client
        .submit(&bad, &input, SubmitOptions::default())
        .is_err());

    let stats = client.stats().unwrap();
    let scraped = client.metrics().unwrap();
    let exp = text::parse(&scraped).expect("exposition parses");

    // The scrape and the stats snapshot agree on the lifetime story.
    assert_eq!(stats.jobs_done, 2);
    assert_eq!(value(&exp, "sidr_serve_jobs_done_total"), stats.jobs_done);
    assert_eq!(
        value(&exp, "sidr_serve_jobs_failed_total"),
        stats.jobs_failed
    );
    assert_eq!(
        value(&exp, "sidr_serve_jobs_cancelled_total"),
        stats.jobs_cancelled
    );
    assert_eq!(value(&exp, "sidr_serve_rejections_total"), 1);
    assert_eq!(
        value(&exp, "sidr_serve_keyblocks_total"),
        stats.keyblocks_committed
    );
    assert_eq!(keyblock_frames, stats.keyblocks_committed);

    // Both jobs terminal: the occupancy gauges are back to zero, and
    // slot totals mirror the pool.
    assert_eq!(gauge(&exp, "sidr_serve_jobs", ("state", "queued")), 0);
    assert_eq!(gauge(&exp, "sidr_serve_jobs", ("state", "running")), 0);
    assert_eq!(
        gauge(&exp, "sidr_slots_total", ("class", "map")),
        stats.map_total as i64
    );
    assert_eq!(
        gauge(&exp, "sidr_slots_total", ("class", "reduce")),
        stats.reduce_total as i64
    );
    assert_eq!(gauge(&exp, "sidr_slots_busy", ("class", "map")), 0);
    assert_eq!(gauge(&exp, "sidr_slots_busy", ("class", "reduce")), 0);

    // Streamed-byte accounting matches (all keyblock frames were
    // written to this, the only, client).
    assert_eq!(
        value(&exp, "sidr_serve_streamed_bytes_total"),
        stats.bytes_streamed
    );
    assert!(stats.bytes_streamed > 0);

    // The engine's histograms saw the work: every map and reduce task
    // of both jobs, and a TTFB observation per job.
    let num_maps = spec.splits.len() as u64;
    let num_reducers = spec.num_reducers as u64;
    assert_eq!(
        value(&exp, "sidr_map_task_seconds_count"),
        2 * num_maps,
        "map-task histogram count"
    );
    assert_eq!(
        value(&exp, "sidr_reduce_task_seconds_count"),
        2 * num_reducers,
        "reduce-task histogram count"
    );
    assert_eq!(value(&exp, "sidr_serve_ttfb_seconds_count"), 2);

    // The scrape went over the wire, so frame counters are live; this
    // scrape's own request is included, its response not yet.
    let frames_in = gauge(&exp, "sidr_serve_frames_total", ("dir", "in"));
    let frames_out = gauge(&exp, "sidr_serve_frames_total", ("dir", "out"));
    assert!(frames_in >= 5, "at least 5 requests sent, saw {frames_in}");
    assert!(
        frames_out >= 5,
        "at least 5 responses written, saw {frames_out}"
    );

    handle.shutdown();
}
