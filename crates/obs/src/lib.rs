//! `sidr-obs` — the observability substrate for the SIDR runtime.
//!
//! SIDR's whole argument is made with measurements — task timelines,
//! time-to-first-result, skew and slot occupancy — so the runtime
//! carries a metrics layer that is always on and cheap enough to stay
//! on. Two pieces, both dependency-free:
//!
//! * **Metrics** ([`metrics`]) — atomic [`Counter`]s, [`Gauge`]s and
//!   fixed-bucket [`Histogram`]s registered in a [`MetricsRegistry`].
//!   Handles are `Arc`s handed out once and updated lock-free on hot
//!   paths; the registry itself is only locked at registration and
//!   render time. A process-global registry ([`global`]) collects
//!   every subsystem's metrics so one scrape sees the whole process.
//! * **Exposition** ([`text`]) — the Prometheus text format
//!   (`# HELP` / `# TYPE` / `name{label="v"} value`), rendered by
//!   [`MetricsRegistry::render`] and parsed back by [`text::parse`]
//!   (round-trip property-tested; the parser also powers scrape
//!   shape-checks in CI).
//!
//! A job's trace is its engine record, not a layer here: the events of
//! its `JobResult`, which `sidr-submit submit --trace` writes as JSONL.

pub mod metrics;
pub mod text;

pub use metrics::{
    global, Counter, Gauge, Histogram, MetricsRegistry, BYTE_BUCKETS, DURATION_BUCKETS,
};

/// Renders the process-global registry's full exposition text.
pub fn render_global() -> String {
    global().render()
}
