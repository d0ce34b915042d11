//! Admission for SIDR job submissions, and the `sidr-lint` CLI.
//!
//! The proof itself is [`sidr_core::verify`]: one proof at every
//! build, run inside every `SidrPlanner::build`. A submission brings
//! its own tables, so [`analyze_spec`] adds only what a spec can get
//! wrong on its own — fault-tolerance knobs (`SIDR-E011`–`SIDR-E013`)
//! and stored keyblock covers that disagree with the geometry the
//! spec's query implies (`SIDR-E001`) — then runs the same
//! [`verify`](sidr_core::verify::verify) over the stored view, whose
//! partition is re-derived from the spec's query. That the hot route
//! (`PartitionPlus::keyblock_of`) agrees with the covers is a property
//! of the code, tested in `tests/properties.rs`, not of a submission.

use sidr_core::diag::{codes, Diagnostic, Report};
use sidr_core::spec::JobSpec;
use sidr_core::verify::{invert_deps, verify, PlanView};
use sidr_core::PartitionPlus;

pub mod presets;

pub use sidr_core::diag;
pub use sidr_core::verify;

/// Verifier knobs.
#[derive(Clone, Debug, Default)]
pub struct AnalyzeOptions {
    /// The permissible skew the plan is supposed to honor (§3.1).
    /// `None` accepts the partition's own dealing unit as the bound.
    pub skew_bound: Option<u64>,
}

/// Lints a serialized job submission: re-derives the plan geometry
/// from the spec's own query and splits, checks the stored tables
/// against it, then runs [`verify()`] over the stored view.
pub fn analyze_spec(spec: &JobSpec, opts: &AnalyzeOptions) -> sidr_core::Result<Report> {
    let query = spec.query()?;
    let partition = PartitionPlus::for_query(&query, spec.num_reducers)?;

    // The spec stores the keyblock covers it promised reducers; they
    // must match the geometry its query implies.
    let mut report = Report::new();
    check_robustness(spec, &mut report);
    for b in 0..spec.num_reducers {
        let derived = partition.keyblock_cover(b)?;
        match spec.keyblock_covers.get(b) {
            Some(stored) if *stored == derived => {}
            _ => {
                report.push(
                    Diagnostic::error(
                        codes::COVERAGE,
                        "stored keyblock cover disagrees with the query geometry",
                    )
                    .with("keyblock", b),
                );
            }
        }
    }

    let view = PlanView {
        partition,
        map_feeds: invert_deps(&spec.reduce_deps, spec.splits.len()),
        reduce_deps: spec.reduce_deps.clone(),
        reduce_order: spec.reduce_order.clone(),
        expected_raw: spec.expected_raw.clone(),
        kspace: query.intermediate_space(),
        fold_in: query.fold_in_count(),
        num_splits: spec.splits.len(),
    };
    report.merge(verify(&query, &spec.splits, &view, opts.skew_bound));
    Ok(report)
}

/// Admission checks on the spec's fault-tolerance knobs
/// (`SIDR-E011`/`SIDR-E012`/`SIDR-E013`): a zero retry budget can
/// never launch a task, a zero deadline cancels the job before its
/// first task, and a malformed speculation policy (quantile outside
/// (0, 1], slowdown below 1) would misfire on every healthy task. All are spec-level, not geometric, so they
/// only run on the submission path.
fn check_robustness(spec: &JobSpec, report: &mut Report) {
    if spec.retry.max_task_attempts == 0 {
        report.push(
            Diagnostic::error(
                codes::RETRY_POLICY,
                "retry policy allows zero task attempts; no task could ever launch",
            )
            .with("max_task_attempts", spec.retry.max_task_attempts),
        );
    }
    if spec.deadline_ms == Some(0) {
        report.push(Diagnostic::error(
            codes::DEADLINE,
            "deadline of zero milliseconds would cancel the job before its first task",
        ));
    }
    if let Err(why) = spec.speculation.validate() {
        report.push(
            Diagnostic::error(codes::SPECULATION, "speculation policy is invalid").with("why", why),
        );
    }
}
