//! Spans around the calls into each layer, kept in memory and written
//! out as JSON lines when the benchmark ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub job: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Records the spans of one job driven on one thread: `span` nests by
/// call structure, so a span's parent is whichever span was open when
/// it began.
pub struct Tracer {
    epoch: Instant,
    job: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(job: u64) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            job,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            job: self.job,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of every span named `name`, seconds.
    pub fn total(&self, name: &str) -> f64 {
        total(&self.spans, name)
    }
}

pub fn total(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::seconds)
        .sum()
}

/// A span's self time: its duration minus the part of that interval
/// its direct children cover (children on one thread never overlap).
pub fn self_seconds(spans: &[Span], id: usize) -> f64 {
    let children: f64 = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(Span::seconds)
        .sum();
    spans[id].seconds() - children
}

/// Writes one JSON object per span, its self time included.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        // Span names are identifiers from this package: no escaping needed.
        let _ = writeln!(
            out,
            "{{\"id\":{id},\"parent\":{parent},\"job\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.job,
            s.name,
            s.start_ns,
            s.end_ns,
            (self_seconds(spans, id) * 1e9).round() as u64
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            job: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_its_direct_children() {
        let spans = vec![
            span("reduce", None, 0, 10_000_000_000),
            span("parse", Some(0), 1_000_000_000, 3_000_000_000),
            span("merge", Some(0), 3_000_000_000, 7_000_000_000),
            // A grandchild shortens `merge`, not `reduce`.
            span("heap", Some(2), 4_000_000_000, 5_000_000_000),
            span("reduce", None, 10_000_000_000, 11_000_000_000),
        ];
        assert_eq!(self_seconds(&spans, 0), 4.0);
        assert_eq!(self_seconds(&spans, 2), 3.0);
        assert_eq!(self_seconds(&spans, 3), 1.0);
        assert_eq!(total(&spans, "reduce"), 11.0);
    }

    #[test]
    fn tracer_nests_by_call_structure() {
        let mut t = Tracer::new(7);
        t.span("outer", |t| {
            t.span("inner", |_| ());
            t.span("inner", |_| ());
        });
        t.span("sibling", |_| ());
        let parents: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            parents,
            vec![
                ("outer", None),
                ("inner", Some(0)),
                ("inner", Some(0)),
                ("sibling", None)
            ]
        );
        assert!(t
            .spans()
            .iter()
            .all(|s| s.job == 7 && s.end_ns >= s.start_ns));
        let outer_self = self_seconds(t.spans(), 0);
        assert!((outer_self - (t.total("outer") - t.total("inner"))).abs() < 1e-12);
    }
}
