//! The serving layer's metric inventory, registered in the
//! process-global [`sidr_obs`] registry alongside the engine's
//! (`sidr_mapreduce::metrics`). One scrape — [`Request::Metrics`] or
//! `sidr-submit metrics` — sees both.
//!
//! The lifetime counters here deliberately mirror
//! [`ServerStats`](crate::ServerStats): the `Metrics` frame and the
//! `Stats` frame must tell the same story (asserted end-to-end in
//! `tests/metrics.rs`).
//!
//! [`Request::Metrics`]: crate::Request::Metrics

use sidr_obs::{global, Counter, Gauge, Histogram};
use std::sync::{Arc, OnceLock};

/// Buckets for time-to-first-keyblock: serving-scale latencies, from
/// a few milliseconds (tiny CI jobs) to a minute.
const TTFB_BUCKETS: &[f64] = &[
    0.001, 0.002_5, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
];

/// Every metric the serving layer emits.
pub struct ServeMetrics {
    /// `sidr_serve_jobs{state="queued"}` — admitted, not yet running
    /// (queued or planning).
    pub jobs_queued: Arc<Gauge>,
    /// `sidr_serve_jobs{state="running"}` — executing on the pool.
    pub jobs_running: Arc<Gauge>,
    /// Lifetime terminal-state counters.
    pub jobs_done: Arc<Counter>,
    pub jobs_failed: Arc<Counter>,
    pub jobs_cancelled: Arc<Counter>,
    /// Jobs the engine abandoned at their deadline (graceful
    /// degradation, not failure).
    pub jobs_deadline_exceeded: Arc<Counter>,
    /// Submissions admission turned away.
    pub rejections: Arc<Counter>,
    /// Frames decoded from / written to client connections.
    pub frames_in: Arc<Counter>,
    pub frames_out: Arc<Counter>,
    /// Keyblocks committed and keyblock payload bytes streamed.
    pub keyblocks: Arc<Counter>,
    pub streamed_bytes: Arc<Counter>,
    /// Job start → first keyblock commit (the paper's
    /// time-to-first-result, as served).
    pub ttfb_seconds: Arc<Histogram>,
}

/// The serving layer's metrics, registered on first use.
pub fn serve() -> &'static ServeMetrics {
    static METRICS: OnceLock<ServeMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = global();
        let jobs_help = "Jobs currently in this state";
        ServeMetrics {
            jobs_queued: r.gauge("sidr_serve_jobs", jobs_help, &[("state", "queued")]),
            jobs_running: r.gauge("sidr_serve_jobs", jobs_help, &[("state", "running")]),
            jobs_done: r.counter("sidr_serve_jobs_done_total", "Jobs completed cleanly", &[]),
            jobs_failed: r.counter("sidr_serve_jobs_failed_total", "Jobs that failed", &[]),
            jobs_cancelled: r.counter(
                "sidr_serve_jobs_cancelled_total",
                "Jobs cancelled mid-flight",
                &[],
            ),
            jobs_deadline_exceeded: r.counter(
                "sidr_serve_jobs_deadline_exceeded_total",
                "Jobs abandoned at their deadline",
                &[],
            ),
            rejections: r.counter(
                "sidr_serve_rejections_total",
                "Submissions rejected at admission",
                &[],
            ),
            frames_in: r.counter(
                "sidr_serve_frames_total",
                "Protocol frames by direction",
                &[("dir", "in")],
            ),
            frames_out: r.counter(
                "sidr_serve_frames_total",
                "Protocol frames by direction",
                &[("dir", "out")],
            ),
            keyblocks: r.counter(
                "sidr_serve_keyblocks_total",
                "Keyblocks committed across all jobs",
                &[],
            ),
            streamed_bytes: r.counter(
                "sidr_serve_streamed_bytes_total",
                "Keyblock payload bytes streamed to clients",
                &[],
            ),
            ttfb_seconds: r.histogram(
                "sidr_serve_ttfb_seconds",
                "Job start to first keyblock commit, seconds",
                &[],
                TTFB_BUCKETS,
            ),
        }
    })
}
