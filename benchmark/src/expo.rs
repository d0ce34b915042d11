//! Reading a Prometheus text scrape: only sample values, and only to
//! take deltas of `_sum` / `_count` / counters between two scrapes.
//! Bucket bounds are never read — a histogram's bounds are not
//! measurements (ROADMAP item 1's 250/500 ms artefact).

use std::collections::HashMap;

/// Sample values of one scrape, keyed by `name{labels}` exactly as
/// exposed.
pub struct Scrape(HashMap<String, f64>);

impl Scrape {
    pub fn parse(text: &str) -> Scrape {
        let mut samples = HashMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            // `name{labels} value`; a label value may contain spaces,
            // the sample value never does.
            if let Some((series, value)) = line.rsplit_once(' ') {
                if let Ok(v) = value.parse::<f64>() {
                    samples.insert(series.trim().to_string(), v);
                }
            }
        }
        Scrape(samples)
    }

    /// Sum over every series of `name` whatever its labels (0 when the
    /// metric was never registered).
    pub fn total(&self, name: &str) -> f64 {
        self.0
            .iter()
            .filter(|(series, _)| {
                series.as_str() == name
                    || series
                        .strip_prefix(name)
                        .is_some_and(|rest| rest.starts_with('{'))
            })
            .map(|(_, v)| v)
            .sum()
    }
}

/// `after − before` of a counter, `_sum` or `_count` series.
pub fn delta(before: &Scrape, after: &Scrape, name: &str) -> f64 {
    after.total(name) - before.total(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Captured from `sidr-submit metrics` against a coordinator with
    /// two workers, trimmed to the series the benchmark reads plus
    /// their neighbours.
    const BEFORE: &str = "\
# HELP sidr_fleet_dispatch_seconds Remote task dispatch latency (connect to final reply), seconds
# TYPE sidr_fleet_dispatch_seconds histogram
sidr_fleet_dispatch_seconds_bucket{le=\"0.001\"} 3
sidr_fleet_dispatch_seconds_bucket{le=\"0.25\"} 16
sidr_fleet_dispatch_seconds_bucket{le=\"+Inf\"} 16
sidr_fleet_dispatch_seconds_sum 0.412
sidr_fleet_dispatch_seconds_count 16
# TYPE sidr_serve_streamed_bytes_total counter
sidr_serve_streamed_bytes_total 4096
# TYPE sidr_task_retries_total counter
sidr_task_retries_total{kind=\"map\"} 1
sidr_task_retries_total{kind=\"reduce\"} 2
sidr_fleet_worker_heartbeat_age_ms{worker=\"127.0.0.1:4 0\"} 12
";
    const AFTER: &str = "\
sidr_fleet_dispatch_seconds_bucket{le=\"0.001\"} 5
sidr_fleet_dispatch_seconds_bucket{le=\"0.25\"} 48
sidr_fleet_dispatch_seconds_bucket{le=\"+Inf\"} 48
sidr_fleet_dispatch_seconds_sum 1.162
sidr_fleet_dispatch_seconds_count 48
sidr_serve_streamed_bytes_total 12288
sidr_task_retries_total{kind=\"map\"} 1
sidr_task_retries_total{kind=\"reduce\"} 5
";

    #[test]
    fn sum_and_count_deltas_come_from_a_captured_scrape() {
        let (b, a) = (Scrape::parse(BEFORE), Scrape::parse(AFTER));
        assert!((delta(&b, &a, "sidr_fleet_dispatch_seconds_sum") - 0.75).abs() < 1e-12);
        assert_eq!(delta(&b, &a, "sidr_fleet_dispatch_seconds_count"), 32.0);
        assert_eq!(delta(&b, &a, "sidr_serve_streamed_bytes_total"), 8192.0);
        // Labelled series add up; a prefix is not a match.
        assert_eq!(delta(&b, &a, "sidr_task_retries_total"), 3.0);
        assert_eq!(b.total("sidr_fleet_dispatch_seconds"), 0.0);
        assert_eq!(delta(&b, &a, "sidr_never_registered_total"), 0.0);
        // A label value with a space still parses to its sample value.
        assert_eq!(b.total("sidr_fleet_worker_heartbeat_age_ms"), 12.0);
    }
}
