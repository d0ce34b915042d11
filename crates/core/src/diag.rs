//! Diagnostics for static plan verification.
//!
//! Every invariant the verifier checks reports through a
//! [`Diagnostic`]: a stable machine-readable code (`SIDR-E001`…), a
//! severity, a human-readable message and structured context
//! key/value pairs. A [`Report`] collects diagnostics from all checks
//! and renders them for humans (via `Display`) or machines (JSON via
//! [`Report::to_json`]).
//!
//! Codes are API: tests, CI and downstream tooling match on them, so
//! they are never renumbered. The full table lives in `DESIGN.md`
//! ("Static plan verification").

use serde::Serialize;
use std::fmt;

/// Stable diagnostic codes, one family per invariant class.
pub mod codes {
    /// Keyblocks do not tile `K′ᵀ`: a key is owned by no keyblock, a
    /// cover extends outside the space, or the per-block key counts
    /// fail to sum to `|K′ᵀ|` (coverage, §3.1).
    pub const COVERAGE: &str = "SIDR-E001";
    /// Two keyblock covers overlap: some key is owned by more than
    /// one keyblock (disjointness, §3.1).
    pub const OVERLAP: &str = "SIDR-E002";
    /// A dependency set `I_ℓ` is incomplete: some split feeds a
    /// keyblock that does not list it, so the reduce barrier would
    /// release before all of the keyblock's input exists (§3.2).
    pub const DEP_MISSING: &str = "SIDR-E003";
    /// A dependency set lists a split that contributes nothing to the
    /// keyblock. Safe (the barrier is merely later than needed) but
    /// it delays first results — a warning, not an error (§3.2).
    pub const DEP_SPURIOUS: &str = "SIDR-W004";
    /// The skew certificate fails: some keyblock holds more keys than
    /// the permissible skew allows (§3.1).
    pub const SKEW: &str = "SIDR-E005";
    /// The reduce schedule is not a permutation of the keyblocks, so
    /// some keyblock would never be scheduled (§3.3, §3.4).
    pub const SCHED_ORDER: &str = "SIDR-E006";
    /// The dependency graph is infeasible: a dependency names a
    /// nonexistent map task, a dependency set is not strictly
    /// ascending (one map twice, or out of order), or a keyblock that
    /// expects data has no dependencies and can never meet its barrier
    /// (§3.2, §3.3).
    pub const SCHED_GRAPH: &str = "SIDR-E007";
    /// Count annotations are not conserved: the per-keyblock expected
    /// raw-pair counts do not sum to `|K′ᵀ| × fold` — the total the
    /// structural mapper contract guarantees (§3.2.1 approach 2).
    pub const CONSERVATION: &str = "SIDR-E008";
    /// One keyblock's expected raw-pair count disagrees with its key
    /// count × fold (§3.2.1 approach 2).
    pub const BLOCK_COUNT: &str = "SIDR-E009";
    /// An exhaustive pass was skipped because the space exceeds the
    /// analysis budget; the algebraic checks still ran.
    pub const TRUNCATED: &str = "SIDR-I010";
    /// The spec's retry policy is unusable: a task attempt budget of
    /// zero means no task can ever launch, so the job cannot run.
    pub const RETRY_POLICY: &str = "SIDR-E011";
    /// The spec's deadline is zero: the job would be cancelled before
    /// its first task starts, so admission refuses it.
    pub const DEADLINE: &str = "SIDR-E012";
    /// The spec's speculative-execution policy is invalid: a slowdown
    /// factor below 1 (every healthy task would be "straggling").
    pub const SPECULATION: &str = "SIDR-E013";
    /// Advisory, emitted at run time rather than admission: projected
    /// completion threatens the deadline, so the engine's loop
    /// boosted the speculation trigger before the deadline abandons
    /// the job (`sidr_mr_deadline_boosts_total`).
    pub const DEADLINE_PRESSURE: &str = "SIDR-I014";
    /// Advisory, emitted at run time rather than admission: a worker's
    /// resident partition bytes crossed its memory budget (or a spill
    /// failed), so its partitions are degrading to the disk tier and
    /// dispatch deprioritizes it until the pressure clears.
    pub const MEMORY_PRESSURE: &str = "SIDR-I015";
}

/// How bad a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum Severity {
    /// Analysis was limited; not a defect.
    Info,
    /// The plan works but is suboptimal (e.g. an over-approximate
    /// dependency set delays the barrier).
    Warning,
    /// The plan would produce wrong answers or hang; the job must not
    /// run.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One verifier finding.
#[derive(Clone, Debug, Serialize)]
pub struct Diagnostic {
    /// Stable code from [`codes`].
    pub code: String,
    pub severity: Severity,
    /// Human-readable description of the finding.
    pub message: String,
    /// Structured key/value context (witness keyblock ids, counts, …).
    pub context: Vec<(String, String)>,
}

impl Diagnostic {
    pub fn error(code: &str, message: impl Into<String>) -> Self {
        Diagnostic {
            code: code.to_string(),
            severity: Severity::Error,
            message: message.into(),
            context: Vec::new(),
        }
    }

    pub fn warning(code: &str, message: impl Into<String>) -> Self {
        Diagnostic {
            code: code.to_string(),
            severity: Severity::Warning,
            message: message.into(),
            context: Vec::new(),
        }
    }

    pub fn info(code: &str, message: impl Into<String>) -> Self {
        Diagnostic {
            code: code.to_string(),
            severity: Severity::Info,
            message: message.into(),
            context: Vec::new(),
        }
    }

    /// Attaches a context key/value pair (builder style).
    pub fn with(mut self, key: &str, value: impl fmt::Display) -> Self {
        self.context.push((key.to_string(), value.to_string()));
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}] {}", self.severity, self.code, self.message)?;
        for (k, v) in &self.context {
            write!(f, "\n    {k}: {v}")?;
        }
        Ok(())
    }
}

/// The outcome of a verification run.
#[derive(Clone, Debug, Default, Serialize)]
pub struct Report {
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    pub fn new() -> Self {
        Report::default()
    }

    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Merges another report's findings into this one.
    pub fn merge(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }

    pub fn error_count(&self) -> usize {
        self.count(Severity::Error)
    }

    pub fn warning_count(&self) -> usize {
        self.count(Severity::Warning)
    }

    fn count(&self, sev: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == sev)
            .count()
    }

    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// No findings at all — the plan is proven clean.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// True when a diagnostic with this code is present.
    pub fn has_code(&self, code: &str) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Machine-readable rendering:
    /// `{"diagnostics":[{"code":…,"severity":…,…}]}`.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("report serialization is infallible")
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "plan verified: no findings");
        }
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        write!(
            f,
            "{} error(s), {} warning(s)",
            self.error_count(),
            self.warning_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_counts_and_codes() {
        let mut r = Report::new();
        assert!(r.is_clean() && !r.has_errors());
        r.push(Diagnostic::error(codes::COVERAGE, "gap").with("keyblock", 3));
        r.push(Diagnostic::warning(codes::DEP_SPURIOUS, "extra dep"));
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warning_count(), 1);
        assert!(r.has_errors());
        assert!(r.has_code(codes::COVERAGE));
        assert!(!r.has_code(codes::SKEW));
    }

    #[test]
    fn human_rendering_includes_code_and_context() {
        let d = Diagnostic::error(codes::SKEW, "keyblock too large")
            .with("keyblock", 7)
            .with("keys", 4096u64);
        let text = d.to_string();
        assert!(text.contains("SIDR-E005"));
        assert!(text.contains("error"));
        assert!(text.contains("keyblock: 7"));
        assert!(text.contains("keys: 4096"));
    }

    #[test]
    fn json_rendering_is_parseable_shape() {
        let mut r = Report::new();
        r.push(Diagnostic::info(codes::TRUNCATED, "skipped").with("limit", 10));
        let json = r.to_json();
        assert!(json.contains("\"code\":\"SIDR-I010\""));
        assert!(json.contains("\"severity\":\"Info\""));
        assert!(json.starts_with("{\"diagnostics\":["));
    }
}
