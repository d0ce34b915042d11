//! Shared harness for the per-figure/per-table experiment binaries.
//!
//! Each binary regenerates one table or figure of the paper's
//! evaluation (§4), printing the series the paper plots and writing a
//! CSV under `results/`. Absolute times come from the simulator's
//! calibrated cost model; the claims checked are the *shape* claims
//! the paper makes (orderings, ratios, crossovers).

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use sidr_mapreduce::{JobResult, TaskKind};
use sidr_simcluster::secs;

/// Directory experiment CSVs are written to (`results/` under the
/// workspace root, or `$SIDR_RESULTS_DIR`).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var_os("SIDR_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| workspace_root().join("results"));
    fs::create_dir_all(&dir).expect("results dir is creatable");
    dir
}

fn workspace_root() -> PathBuf {
    // experiments crate lives at <root>/crates/experiments.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crate is two levels below the workspace root")
        .to_path_buf()
}

/// Writes a CSV of `(header, rows)` under `results/<name>.csv` and
/// returns its path.
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> PathBuf {
    let path = results_dir().join(format!("{name}.csv"));
    let mut body = String::with_capacity(rows.len() * 32 + header.len() + 1);
    body.push_str(header);
    body.push('\n');
    for row in rows {
        body.push_str(row);
        body.push('\n');
    }
    fs::write(&path, body).expect("results dir is writable");
    path
}

/// A labelled completion curve: sorted completion times of one task
/// population.
pub struct Curve {
    pub label: String,
    pub times_s: Vec<f64>,
}

impl Curve {
    pub fn new(label: impl Into<String>, mut times_s: Vec<f64>) -> Self {
        times_s.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        Curve {
            label: label.into(),
            times_s,
        }
    }

    /// Map-completion curve of a simulated job.
    pub fn maps(label: impl Into<String>, job: &JobResult) -> Self {
        Curve::of(label, job, TaskKind::MapEnd)
    }

    /// Reduce-completion curve of a simulated job.
    pub fn reduces(label: impl Into<String>, job: &JobResult) -> Self {
        Curve::of(label, job, TaskKind::ReduceEnd)
    }

    fn of(label: impl Into<String>, job: &JobResult, kind: TaskKind) -> Self {
        Curve::new(label, job.completions(kind).into_iter().map(secs).collect())
    }

    /// Time at which `fraction` (0..=1) of the population completed.
    pub fn time_at_fraction(&self, fraction: f64) -> f64 {
        if self.times_s.is_empty() {
            return 0.0;
        }
        let idx =
            ((self.times_s.len() as f64 * fraction).ceil() as usize).clamp(1, self.times_s.len());
        self.times_s[idx - 1]
    }

    /// First completion.
    pub fn first(&self) -> f64 {
        self.times_s.first().copied().unwrap_or(0.0)
    }

    /// Last completion (the curve's makespan).
    pub fn last(&self) -> f64 {
        self.times_s.last().copied().unwrap_or(0.0)
    }
}

/// Prints a set of curves as a fraction-vs-time table (the textual
/// form of the paper's completion-over-time figures) and writes the
/// long-form CSV.
pub fn report_curves(name: &str, title: &str, curves: &[Curve]) {
    println!("== {title} ==");
    print!("{:>10}", "fraction");
    for c in curves {
        print!("  {:>18}", truncate(&c.label, 18));
    }
    println!();
    for pct in [1, 10, 25, 50, 75, 90, 100] {
        let f = pct as f64 / 100.0;
        print!("{:>9}%", pct);
        for c in curves {
            print!("  {:>17.1}s", c.time_at_fraction(f));
        }
        println!();
    }

    let mut rows = Vec::new();
    for c in curves {
        let n = c.times_s.len();
        for (i, t) in c.times_s.iter().enumerate() {
            let mut row = String::new();
            write!(row, "{},{},{:.3}", c.label, (i + 1) as f64 / n as f64, t)
                .expect("string write");
            rows.push(row);
        }
    }
    let path = write_csv(name, "series,fraction,time_s", &rows);
    println!("[csv] {}", path.display());
}

fn truncate(s: &str, n: usize) -> &str {
    &s[..s.len().min(n)]
}

/// Mean and (population) standard deviation.
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
    (mean, var.sqrt())
}

/// A paper-vs-measured comparison line.
pub fn compare(metric: &str, paper: &str, measured: &str, holds: bool) {
    let mark = if holds { "OK " } else { "!! " };
    println!("  [{mark}] {metric:<46} paper: {paper:<18} measured: {measured}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_fraction_lookup() {
        let c = Curve::new("x", vec![3.0, 1.0, 2.0, 4.0]);
        assert_eq!(c.first(), 1.0);
        assert_eq!(c.last(), 4.0);
        assert_eq!(c.time_at_fraction(0.5), 2.0);
        assert_eq!(c.time_at_fraction(1.0), 4.0);
        assert_eq!(c.time_at_fraction(0.01), 1.0);
    }

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((m - 5.0).abs() < 1e-9);
        assert!((s - 2.0).abs() < 1e-9);
    }

    #[test]
    fn csv_written_to_results() {
        let p = write_csv("selftest", "a,b", &["1,2".into()]);
        let body = std::fs::read_to_string(&p).unwrap();
        assert_eq!(body, "a,b\n1,2\n");
        std::fs::remove_file(p).unwrap();
    }
}
