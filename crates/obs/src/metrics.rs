//! Atomic metric primitives and the registry that exposes them.
//!
//! Hot paths hold an `Arc` handle and update it lock-free; the
//! registry's mutex is only taken at registration and render time.
//! Registration is idempotent: asking for the same (name, labels)
//! again returns the existing handle, so per-job code can "register"
//! freely without leaking series.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Gauge: a value that goes up and down (occupancy, queue depths).
#[derive(Debug, Default)]
pub struct Gauge(std::sync::atomic::AtomicI64);

impl Gauge {
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Default duration buckets (seconds): microsecond resolution at the
/// bottom for in-process task phases, minutes at the top for whole
/// jobs.
pub const DURATION_BUCKETS: &[f64] = &[
    0.000_1, 0.000_25, 0.000_5, 0.001, 0.002_5, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
    5.0, 10.0, 30.0, 60.0,
];

/// Default size buckets (bytes): kilobytes at the bottom for single
/// spill files, gigabytes at the top for whole-worker residency.
pub const BYTE_BUCKETS: &[f64] = &[
    1_024.0,
    4_096.0,
    16_384.0,
    65_536.0,
    262_144.0,
    1_048_576.0,
    4_194_304.0,
    16_777_216.0,
    67_108_864.0,
    268_435_456.0,
    1_073_741_824.0,
];

/// Fixed-bucket histogram. Observations land in the first bucket whose
/// upper bound is `>=` the value; everything larger lands in the
/// implicit `+Inf` bucket. The sum is accumulated in integer
/// micro-units so it stays atomic without a CAS loop.
#[derive(Debug)]
pub struct Histogram {
    /// Finite upper bounds, strictly increasing.
    bounds: Box<[f64]>,
    /// Per-bucket (non-cumulative) counts; `len = bounds.len() + 1`,
    /// the last entry being the `+Inf` bucket.
    buckets: Box<[AtomicU64]>,
    /// Σ observations, in micro-units (value × 1e6, rounded).
    sum_micros: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite (+Inf is implicit)"
        );
        Histogram {
            bounds: bounds.into(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum_micros: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn observe(&self, value: f64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        let micros = (value.max(0.0) * 1e6).round() as u64;
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// Records a `Duration` observation in seconds.
    pub fn observe_duration(&self, d: std::time::Duration) {
        self.observe(d.as_secs_f64());
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum_micros.load(Ordering::Relaxed) as f64 / 1e6
    }

    /// `(upper bound, cumulative count)` per bucket, ending with the
    /// `+Inf` bucket (whose cumulative count equals [`count`]).
    ///
    /// [`count`]: Histogram::count
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut acc = 0;
        let mut out = Vec::with_capacity(self.buckets.len());
        for (i, b) in self.buckets.iter().enumerate() {
            acc += b.load(Ordering::Relaxed);
            let bound = self.bounds.get(i).copied().unwrap_or(f64::INFINITY);
            out.push((bound, acc));
        }
        out
    }
}

/// What a family's series are.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

struct Series {
    labels: Vec<(String, String)>,
    metric: Metric,
}

struct Family {
    name: String,
    help: String,
    kind: Kind,
    series: Vec<Series>,
}

/// A named collection of metric families, renderable as Prometheus
/// text exposition. Most code uses the process-global [`global()`]
/// registry; tests build their own.
#[derive(Default)]
pub struct MetricsRegistry {
    families: Mutex<Vec<Family>>,
}

/// Whether `name` is a legal metric/label identifier
/// (`[a-zA-Z_][a-zA-Z0-9_]*`, plus `:` for metric names).
fn valid_name(name: &str, allow_colon: bool) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || (allow_colon && c == ':') => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || (allow_colon && c == ':'))
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or finds) a counter under `name` with `labels`.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.register(name, help, Kind::Counter, labels, || {
            Metric::Counter(Arc::new(Counter::default()))
        }) {
            Metric::Counter(c) => c,
            _ => unreachable!("register preserves kind"),
        }
    }

    /// Registers (or finds) a gauge under `name` with `labels`.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.register(name, help, Kind::Gauge, labels, || {
            Metric::Gauge(Arc::new(Gauge::default()))
        }) {
            Metric::Gauge(g) => g,
            _ => unreachable!("register preserves kind"),
        }
    }

    /// Registers (or finds) a fixed-bucket histogram. `bounds` are the
    /// finite bucket upper bounds, strictly increasing; the `+Inf`
    /// bucket is implicit.
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Arc<Histogram> {
        match self.register(name, help, Kind::Histogram, labels, || {
            Metric::Histogram(Arc::new(Histogram::new(bounds)))
        }) {
            Metric::Histogram(h) => h,
            _ => unreachable!("register preserves kind"),
        }
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        kind: Kind,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        assert!(valid_name(name, true), "invalid metric name {name:?}");
        assert!(
            labels.iter().all(|(k, _)| valid_name(k, false)),
            "invalid label name in {labels:?}"
        );
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let mut families = self.families.lock().expect("registry lock");
        let family = match families.iter_mut().find(|f| f.name == name) {
            Some(f) => {
                assert_eq!(
                    f.kind, kind,
                    "metric {name:?} registered twice with different kinds"
                );
                f
            }
            None => {
                families.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    kind,
                    series: Vec::new(),
                });
                families.last_mut().expect("just pushed")
            }
        };
        if let Some(s) = family.series.iter().find(|s| s.labels == labels) {
            return clone_metric(&s.metric);
        }
        let metric = make();
        let out = clone_metric(&metric);
        family.series.push(Series { labels, metric });
        out
    }

    /// Renders the registry as Prometheus text exposition. Families
    /// and series are sorted so output is deterministic.
    pub fn render(&self) -> String {
        let families = self.families.lock().expect("registry lock");
        let mut order: Vec<usize> = (0..families.len()).collect();
        order.sort_by(|&a, &b| families[a].name.cmp(&families[b].name));
        let mut out = String::new();
        for idx in order {
            let f = &families[idx];
            out.push_str(&format!("# HELP {} {}\n", f.name, f.help));
            out.push_str(&format!("# TYPE {} {}\n", f.name, f.kind.as_str()));
            let mut series: Vec<&Series> = f.series.iter().collect();
            series.sort_by(|a, b| a.labels.cmp(&b.labels));
            for s in series {
                match &s.metric {
                    Metric::Counter(c) => {
                        render_sample(&mut out, &f.name, &s.labels, None, &c.get().to_string());
                    }
                    Metric::Gauge(g) => {
                        render_sample(&mut out, &f.name, &s.labels, None, &g.get().to_string());
                    }
                    Metric::Histogram(h) => {
                        let bucket_name = format!("{}_bucket", f.name);
                        for (bound, cum) in h.cumulative_buckets() {
                            let le = if bound.is_infinite() {
                                "+Inf".to_string()
                            } else {
                                format_f64(bound)
                            };
                            render_sample(
                                &mut out,
                                &bucket_name,
                                &s.labels,
                                Some(("le", &le)),
                                &cum.to_string(),
                            );
                        }
                        let sum_name = format!("{}_sum", f.name);
                        render_sample(&mut out, &sum_name, &s.labels, None, &format_f64(h.sum()));
                        let count_name = format!("{}_count", f.name);
                        render_sample(
                            &mut out,
                            &count_name,
                            &s.labels,
                            None,
                            &h.count().to_string(),
                        );
                    }
                }
            }
        }
        out
    }
}

fn clone_metric(m: &Metric) -> Metric {
    match m {
        Metric::Counter(c) => Metric::Counter(Arc::clone(c)),
        Metric::Gauge(g) => Metric::Gauge(Arc::clone(g)),
        Metric::Histogram(h) => Metric::Histogram(Arc::clone(h)),
    }
}

/// Shortest round-trip decimal for an f64 (Rust's `Display` is
/// round-trip exact since 1.0).
pub(crate) fn format_f64(v: f64) -> String {
    format!("{v}")
}

/// One `name{labels} value` line. `extra` appends a label (the
/// histogram `le`) after the series labels.
fn render_sample(
    out: &mut String,
    name: &str,
    labels: &[(String, String)],
    extra: Option<(&str, &str)>,
    value: &str,
) {
    out.push_str(name);
    let extra_pairs: Vec<(&str, &str)> = labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .chain(extra)
        .collect();
    if !extra_pairs.is_empty() {
        out.push('{');
        for (i, (k, v)) in extra_pairs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(&crate::text::escape_label_value(v));
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

/// The process-global registry every subsystem registers into.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_register_idempotently() {
        let r = MetricsRegistry::new();
        let a = r.counter("x_total", "x", &[("k", "v")]);
        let b = r.counter("x_total", "x", &[("k", "v")]);
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
        let g = r.gauge("busy", "busy", &[]);
        g.add(5);
        g.dec();
        assert_eq!(g.get(), 4);
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_sum_matches() {
        let r = MetricsRegistry::new();
        let h = r.histogram("t_seconds", "t", &[], &[0.1, 1.0]);
        h.observe(0.05);
        h.observe(0.5);
        h.observe(2.0);
        assert_eq!(h.count(), 3);
        assert!((h.sum() - 2.55).abs() < 1e-6);
        assert_eq!(
            h.cumulative_buckets(),
            vec![(0.1, 1), (1.0, 2), (f64::INFINITY, 3)]
        );
    }

    #[test]
    fn boundary_observation_lands_in_its_bucket() {
        let r = MetricsRegistry::new();
        let h = r.histogram("b_seconds", "b", &[], &[1.0]);
        h.observe(1.0); // le="1" is inclusive
        assert_eq!(h.cumulative_buckets(), vec![(1.0, 1), (f64::INFINITY, 1)]);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_names_are_rejected() {
        MetricsRegistry::new().counter("9bad", "x", &[]);
    }
}
