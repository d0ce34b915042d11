//! `sidr-benchmark compare A.json B.json`: do two result files agree,
//! per workload × end-to-end metric, within the metric's bound?

use crate::adapter::BoxErr;
use crate::metrics::END_TO_END;
use crate::report::ResultFile;

fn load(path: &str) -> Result<ResultFile, BoxErr> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}").into())
}

/// One compared pair.
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    /// `(b − a) / a`.
    pub relative: f64,
    pub bound: f64,
}

impl Row {
    pub fn agrees(&self) -> bool {
        self.relative.abs() <= self.bound
    }
}

/// Every workload of `a` × every end-to-end metric; a workload or
/// metric missing from `b` is an error, not an agreement.
pub fn rows(a: &ResultFile, b: &ResultFile) -> Result<Vec<Row>, BoxErr> {
    let mut out = Vec::new();
    for wa in &a.workloads {
        let wb = b
            .workloads
            .iter()
            .find(|w| w.name == wa.name)
            .ok_or_else(|| format!("workload {} is missing from the second file", wa.name))?;
        for m in END_TO_END {
            let value = |w: &crate::report::WorkloadRecord| {
                w.metrics
                    .iter()
                    .find(|x| x.name == m.name)
                    .map(|x| x.value)
                    .ok_or_else(|| format!("{} has no {}", w.name, m.name))
            };
            let (va, vb) = (value(wa)?, value(wb)?);
            out.push(Row {
                workload: wa.name.clone(),
                metric: m.name,
                a: va,
                b: vb,
                relative: (vb - va) / va,
                bound: m.bound,
            });
        }
    }
    Ok(out)
}

pub fn main(args: &[String]) -> Result<bool, BoxErr> {
    let [a, b] = args else {
        return Err("compare takes exactly two result files".into());
    };
    let rows = rows(&load(a)?, &load(b)?)?;
    println!(
        "{:<16} {:<22} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "A", "B", "diff", "bound"
    );
    for r in &rows {
        println!(
            "{:<16} {:<22} {:>16.4} {:>16.4} {:>+8.2}% {:>6.0}%{}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.relative * 100.0,
            r.bound * 100.0,
            if r.agrees() { "" } else { "  DISAGREE" }
        );
    }
    let disagreeing = rows.iter().filter(|r| !r.agrees()).count();
    println!(
        "{} of {} pairs disagree by more than their bound",
        disagreeing,
        rows.len()
    );
    Ok(disagreeing == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{MetricRecord, RunRecord, WorkloadRecord};

    fn file(job_wall_ms: f64) -> ResultFile {
        ResultFile {
            record: RunRecord {
                commit: "x".into(),
                nproc: 2,
                seed: 1,
                seconds: 15.0,
                trace: false,
            },
            workloads: vec![WorkloadRecord {
                name: "engine-scan".into(),
                attempted: 10,
                failed: 0,
                jobs: 10,
                dataset_bytes: 1,
                metrics: END_TO_END
                    .iter()
                    .map(|m| MetricRecord {
                        name: m.name.into(),
                        unit: m.unit.into(),
                        value: if m.name == "job_wall_ms" {
                            job_wall_ms
                        } else {
                            100.0
                        },
                    })
                    .collect(),
            }],
        }
    }

    #[test]
    fn pairs_inside_the_bound_agree_and_outside_disagree() {
        let bound = END_TO_END
            .iter()
            .find(|m| m.name == "job_wall_ms")
            .expect("job_wall_ms is end-to-end")
            .bound;
        let within = rows(&file(100.0), &file(100.0 * (1.0 + bound - 0.01))).unwrap();
        assert!(within.iter().all(Row::agrees));
        let beyond = rows(&file(100.0), &file(100.0 * (1.0 + bound + 0.01))).unwrap();
        let bad: Vec<_> = beyond
            .iter()
            .filter(|r| !r.agrees())
            .map(|r| r.metric)
            .collect();
        assert_eq!(bad, vec!["job_wall_ms"]);
        // Faster by more than the bound is a disagreement too.
        let faster = rows(&file(100.0), &file(100.0 * (1.0 - bound - 0.01))).unwrap();
        assert!(!faster.iter().all(Row::agrees));
    }

    #[test]
    fn result_files_round_trip_and_a_missing_workload_is_an_error() {
        let text = serde_json::to_string(&file(100.0)).unwrap();
        let back: ResultFile = serde_json::from_str(&text).unwrap();
        assert_eq!(back.workloads[0].metrics.len(), END_TO_END.len());
        let mut empty = file(100.0);
        empty.workloads.clear();
        assert!(rows(&file(100.0), &empty).is_err());
    }
}
