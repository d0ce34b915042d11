//! Admission for SIDR job submissions, and the `sidr-lint` CLI.
//!
//! The proof itself is [`sidr_core::verify`]: one proof at every
//! build, run inside every `SidrPlanner::build`. A submission brings
//! its own tables, so [`admit_spec`] adds only what a spec can get
//! wrong on its own — fault-tolerance knobs (`SIDR-E011`–`SIDR-E013`)
//! — and proves the plan the spec stores, built by the one constructor
//! for a spec's plan ([`SidrPlan::of_spec`]), and hands that plan back:
//! a server runs the plan its admission proved. That the hot route
//! (`PartitionPlus::keyblock_of`) agrees with the covers is a property
//! of the code, tested in `tests/properties.rs`, not of a submission.

use sidr_coords::Slab;
use sidr_core::diag::{codes, Diagnostic, Report};
use sidr_core::spec::JobSpec;
use sidr_core::SidrPlan;

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

/// Lints a serialized job submission: [`admit_spec`]'s report.
pub fn analyze_spec(spec: &JobSpec, opts: &AnalyzeOptions) -> sidr_core::Result<Report> {
    Ok(admit_spec(spec, None, opts)?.1)
}

/// Admits a serialized job submission: checks its fault-tolerance
/// knobs, then builds the plan it stores — its `I_ℓ` and launch order
/// over its splits, the keyblocks covering `priority_region` first
/// (§3.4; the same entries reordered, so the same verdict) — and
/// proves it. A plan whose report holds an error must not run.
pub fn admit_spec(
    spec: &JobSpec,
    priority_region: Option<&Slab>,
    opts: &AnalyzeOptions,
) -> sidr_core::Result<(SidrPlan, Report)> {
    let query = spec.query()?;
    let mut report = Report::new();
    check_robustness(spec, &mut report);
    let (plan, proof) = SidrPlan::of_spec(spec, &query, priority_region, opts.skew_bound)?;
    report.merge(proof);
    Ok((plan, report))
}

/// Admission checks on the spec's fault-tolerance knobs
/// (`SIDR-E011`/`SIDR-E012`/`SIDR-E013`): a zero retry budget can
/// never launch a task, a zero deadline cancels the job before its
/// first task, and a malformed speculation policy (slowdown below 1)
/// would misfire on every healthy task. All are spec-level, not
/// geometric, so they only run on the submission path.
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
