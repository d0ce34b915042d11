//! Serializable job specifications.
//!
//! §3.2.1: "data dependencies are determined when a query begins …
//! Reduce tasks are provided their dependency information when they
//! are scheduled. This approach adds a small IO cost to job submission
//! as **the relationships are stored as part of the job
//! specification**." [`JobSpec`] is that artifact: what cannot be
//! derived from the query — the splits, each reducer's `I_ℓ` and the
//! launch order — with the query itself, in one serializable document,
//! so its size (the submission IO cost) is measurable. The keyblock
//! geometry and the §3.2.1 tallies follow from the query; the plan a
//! spec runs is [`SidrPlan::of_spec`](crate::plan::SidrPlan::of_spec).

use serde::{Deserialize, Serialize};

use sidr_mapreduce::{FaultPlan, InputSplit, JobConfig, MapTaskId, RetryPolicy, SpeculationPolicy};

use crate::operators::Operator;
use crate::plan::SidrPlan;
use crate::query::StructuralQuery;
use crate::{Result, SidrError};

/// The query portion of a spec (a [`StructuralQuery`] flattened to
/// plain data).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct QuerySpec {
    pub variable: String,
    pub input_space: Vec<u64>,
    pub extraction_shape: Vec<u64>,
    pub stride: Vec<u64>,
    pub operator: Operator,
}

/// A complete, self-contained SIDR job submission.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct JobSpec {
    pub query: QuerySpec,
    pub num_reducers: usize,
    pub splits: Vec<InputSplit>,
    /// `I_ℓ` per reducer — the stored side of store-vs-recompute, and
    /// the barrier the run schedules.
    pub reduce_deps: Vec<Vec<MapTaskId>>,
    /// Launch order (§3.3/§3.4), which the run follows.
    pub reduce_order: Vec<usize>,
    /// Wall-clock deadline for the whole job, in milliseconds
    /// (`None` = unbounded). Enforced by the engine, from its job
    /// start: a job still running at its deadline is abandoned with
    /// `MrError::DeadlineExceeded` instead of retrying forever.
    pub deadline_ms: Option<u64>,
    /// Retry budget and backoff the job's tasks run under — validated
    /// at admission (a zero attempt budget can never run).
    pub retry: RetryPolicy,
    /// Speculative-execution policy: when a running map exceeds a
    /// quantile of its committed cohort's durations, a twin attempt
    /// races it (first commit wins). Off by default; validated at
    /// admission. The policy's own deserializer defaults every
    /// missing field, so a document carrying only
    /// `"speculation": {"enabled": true}` is a valid submission.
    pub speculation: SpeculationPolicy,
}

impl JobSpec {
    /// Builds the submission document for a planned job.
    pub fn from_plan(
        query: &StructuralQuery,
        splits: &[InputSplit],
        plan: &SidrPlan,
    ) -> Result<Self> {
        let job = &plan.job;
        Ok(JobSpec {
            query: QuerySpec {
                variable: query.variable.clone(),
                input_space: query.input_space().extents().to_vec(),
                extraction_shape: query.extraction.shape().extents().to_vec(),
                stride: query.extraction.stride().to_vec(),
                operator: query.operator,
            },
            num_reducers: job.num_reducers(),
            splits: splits.to_vec(),
            reduce_deps: job.reduce_deps.clone().unwrap_or_default(),
            reduce_order: job.reduce_order.clone(),
            deadline_ms: None,
            retry: RetryPolicy::default(),
            speculation: SpeculationPolicy::default(),
        })
    }

    /// Sets a wall-clock deadline for the job (builder-style).
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = Some(ms);
        self
    }

    /// Sets the retry policy the job's tasks run under.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Sets the speculative-execution policy (builder-style).
    pub fn with_speculation(mut self, policy: SpeculationPolicy) -> Self {
        self.speculation = policy;
        self
    }

    /// The engine configuration the job runs under, wherever its
    /// attempts run: the spec's own retry budget, speculation policy
    /// and deadline, with the submission's fault script.
    pub fn job_config(&self, fault_plan: FaultPlan) -> JobConfig {
        JobConfig {
            fault_plan,
            retry: self.retry,
            speculation: self.speculation.clone(),
            deadline: self.deadline_ms.map(std::time::Duration::from_millis),
            ..JobConfig::default()
        }
    }

    /// Reconstructs the query from the spec.
    pub fn query(&self) -> Result<StructuralQuery> {
        let space = sidr_coords::Shape::new(self.query.input_space.clone())?;
        let ext = sidr_coords::Shape::new(self.query.extraction_shape.clone())?;
        StructuralQuery::with_stride(
            self.query.variable.clone(),
            space,
            ext,
            self.query.stride.clone(),
            self.query.operator,
        )
    }

    /// Serializes to JSON (the job-submission document).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("spec contains no non-serializable data")
    }

    /// Deserializes a submission document.
    pub fn from_json(text: &str) -> Result<Self> {
        serde_json::from_str(text).map_err(|e| SidrError::Plan(format!("malformed job spec: {e}")))
    }

    /// The §3.2.1 "small IO cost to job submission", in bytes.
    pub fn submission_bytes(&self) -> usize {
        self.to_json().len()
    }

    /// Submission bytes attributable to the stored dependency
    /// relationships alone (the delta of the store-vs-recompute
    /// decision).
    pub fn dependency_bytes(&self) -> usize {
        serde_json::to_string(&self.reduce_deps)
            .expect("plain data")
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::SidrPlanner;
    use sidr_coords::Shape;
    use sidr_mapreduce::SplitGenerator;

    fn setup() -> (StructuralQuery, Vec<InputSplit>, SidrPlan) {
        let q = StructuralQuery::new(
            "v",
            Shape::new(vec![64, 10, 10]).unwrap(),
            Shape::new(vec![4, 5, 1]).unwrap(),
            Operator::Median,
        )
        .unwrap();
        let splits = SplitGenerator::new(q.input_space().clone(), 8)
            .exact_count(8)
            .unwrap();
        let plan = SidrPlanner::new(&q, 4).build(&splits).unwrap();
        (q, splits, plan)
    }

    #[test]
    fn spec_roundtrips_through_json() {
        let (q, splits, plan) = setup();
        let spec = JobSpec::from_plan(&q, &splits, &plan).unwrap();
        let json = spec.to_json();
        let back = JobSpec::from_json(&json).unwrap();
        assert_eq!(back.reduce_deps, spec.reduce_deps);
        assert_eq!(back.reduce_order, spec.reduce_order);
        assert_eq!(back.query, spec.query);
    }

    #[test]
    fn submission_cost_is_small_and_measurable() {
        let (q, splits, plan) = setup();
        let spec = JobSpec::from_plan(&q, &splits, &plan).unwrap();
        let total = spec.submission_bytes();
        let deps = spec.dependency_bytes();
        assert!(total > 0 && deps > 0 && deps < total);
        // "Small": the dependency store for 8 splits x 4 reducers is
        // well under a kilobyte.
        assert!(deps < 1024, "dependency store is {deps} bytes");
    }

    #[test]
    fn malformed_spec_rejected() {
        assert!(JobSpec::from_json("{not json").is_err());
        assert!(JobSpec::from_json("{}").is_err());
    }

    #[test]
    fn query_reconstruction_matches_original() {
        let (q, splits, plan) = setup();
        let spec = JobSpec::from_plan(&q, &splits, &plan).unwrap();
        let back = spec.query().unwrap();
        assert_eq!(back.extraction, q.extraction);
        assert_eq!(back.variable, q.variable);
    }
}
