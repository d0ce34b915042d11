//! What a run writes: the contract's one-line result on stdout, a
//! table for people on stderr, the result file `compare` reads, and
//! `BENCHMARK.json` itself.

use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

use crate::adapter::BoxErr;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::run::{Options, RunResult};
use crate::workload::{Workload, WORKLOADS};

fn json_string(s: &str) -> String {
    serde_json::to_string(s).expect("strings serialize")
}

/// `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
pub fn result_line(r: &RunResult) -> Result<String, BoxErr> {
    let mut metrics = String::new();
    for (i, m) in r.metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not a finite number", m.name).into());
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            json_string(m.name),
            m.value,
            json_string(m.unit)
        );
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        r.correct(),
        r.attempted,
        r.failed
    ))
}

/// Every metric by name with its unit, for people.
pub fn print_table(w: &Workload, r: &RunResult) {
    eprintln!(
        "== {} · {} of {} jobs ok · {} failed ==",
        w.name, r.jobs_ok, r.attempted, r.failed
    );
    for m in &r.metrics {
        eprintln!("  {:<44} {:>18.6} {}", m.name, m.value, m.unit);
    }
}

/// The run record written with each result.
#[derive(Serialize, Deserialize)]
pub struct RunRecord {
    pub commit: String,
    pub nproc: u64,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

#[derive(Serialize, Deserialize)]
pub struct MetricRecord {
    pub name: String,
    pub unit: String,
    pub value: f64,
}

#[derive(Serialize, Deserialize)]
pub struct WorkloadRecord {
    pub name: String,
    pub attempted: u64,
    pub failed: u64,
    /// Timed jobs that completed and passed the output check.
    pub jobs: u64,
    pub dataset_bytes: u64,
    pub metrics: Vec<MetricRecord>,
}

#[derive(Serialize, Deserialize)]
pub struct ResultFile {
    pub record: RunRecord,
    pub workloads: Vec<WorkloadRecord>,
}

fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

pub fn result_file(opts: &Options, results: &[RunResult]) -> String {
    let file = ResultFile {
        record: RunRecord {
            commit: commit(),
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
            seed: opts.seed,
            seconds: opts.seconds,
            trace: opts.trace,
        },
        workloads: results
            .iter()
            .map(|r| WorkloadRecord {
                name: r.workload.to_string(),
                attempted: r.attempted,
                failed: r.failed,
                jobs: r.jobs_ok,
                dataset_bytes: crate::workload::find(r.workload).map_or(0, Workload::dataset_bytes),
                metrics: r
                    .metrics
                    .iter()
                    .map(|m| MetricRecord {
                        name: m.name.to_string(),
                        unit: m.unit.to_string(),
                        value: m.value,
                    })
                    .collect(),
            })
            .collect(),
    };
    serde_json::to_string(&file).expect("plain data serializes")
}

/// `BENCHMARK.json`, generated from the workload and metric tables.
pub fn manifest() -> String {
    let array = |rows: Vec<String>| format!("[\n    {}\n  ]", rows.join(",\n    "));
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "{{\"name\": {}, \"why\": {}}}",
                json_string(w.name),
                json_string(w.why)
            )
        })
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_string(m.name),
                json_string(m.unit),
                json_string(m.better),
                m.bound
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_string(m.name),
                json_string(m.unit),
                json_string(m.better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        crate::RUN_SECONDS,
        array(workloads),
        array(end_to_end),
        array(per_layer)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json is at the repo root");
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with `sidr-benchmark manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn manifest_stays_inside_the_contract_limits() {
        let names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for (i, n) in names.iter().enumerate() {
            assert!(
                n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric(),
                "{n}"
            );
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
            assert!(!names[..i].contains(n), "{n} is used twice");
        }
        for u in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(
                u.len() <= 16
                    && u.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{u}"
            );
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        assert!(manifest().len() <= 64 << 10);
    }
}
