//! The SIDR routing plan: partition+, dependency barriers, inverted
//! scheduling and keyblock prioritization, packaged behind the
//! engine's [`RoutingPlan`] trait.

use sidr_coords::{Coord, Slab};
use sidr_mapreduce::{InputSplit, MapTaskId, Partitioner, RoutingPlan};

use crate::deps::Dependencies;
use crate::framework::pushdown_threshold;
use crate::partition_plus::PartitionPlus;
use crate::query::StructuralQuery;
use crate::{Result, SidrError};

/// A fully derived SIDR plan for one job.
///
/// Built by [`SidrPlanner`]; immutable afterwards. Implements
/// [`RoutingPlan`] so the engine executes with:
/// * `partition+` as the partition function (§3.1),
/// * `I_ℓ` dependency barriers and dependency-only fetches (§3.2, §4.6),
/// * inverted reduce-first scheduling (§3.3),
/// * optional keyblock priority order (§3.4),
/// * the raw-pair tally each reduce checks (§3.2.1), unless a pushed-
///   down `Filter` voids it.
pub struct SidrPlan {
    partition: PartitionPlus,
    deps: Dependencies,
    reduce_order: Vec<usize>,
    invert: bool,
    expected_raw: Vec<u64>,
    filter_pushed_down: bool,
}

impl SidrPlan {
    /// The keyblock geometry.
    pub fn partition(&self) -> &PartitionPlus {
        &self.partition
    }

    /// The dependency structure.
    pub fn dependencies(&self) -> &Dependencies {
        &self.deps
    }

    /// Total (map, reducer) contacts this plan will incur — the SIDR
    /// column of Table 3.
    pub fn total_connections(&self) -> u64 {
        self.deps.total_connections()
    }

    /// The keyblock's geometric raw-pair tally, |keys in block| ×
    /// |extraction shape|, whether or not the job promises it — what
    /// the submission document stores and the verifier checks.
    pub fn geometric_raw_count(&self, reducer: usize) -> u64 {
        self.expected_raw[reducer]
    }
}

impl RoutingPlan<Coord> for SidrPlan {
    fn num_reducers(&self) -> usize {
        self.partition.num_reducers()
    }

    fn partition(&self, key: &Coord) -> usize {
        Partitioner::partition(&self.partition, key, self.partition.num_reducers())
    }

    fn reduce_deps(&self, reducer: usize) -> Option<Vec<MapTaskId>> {
        Some(self.deps.reduce_deps(reducer).to_vec())
    }

    fn invert_scheduling(&self) -> bool {
        self.invert
    }

    fn reduce_order(&self) -> Vec<usize> {
        self.reduce_order.clone()
    }

    /// The tally each reduce checks; a pushed-down `Filter` drops
    /// pairs before the shuffle, so then there is none to promise.
    fn expected_raw_count(&self, reducer: usize) -> Option<u64> {
        (!self.filter_pushed_down).then(|| self.expected_raw[reducer])
    }
}

/// Builder for [`SidrPlan`].
pub struct SidrPlanner<'q> {
    query: &'q StructuralQuery,
    num_reducers: usize,
    skew_bound: Option<u64>,
    priority_region: Option<Slab>,
    invert: bool,
    filter_pushdown: bool,
}

impl<'q> SidrPlanner<'q> {
    pub fn new(query: &'q StructuralQuery, num_reducers: usize) -> Self {
        SidrPlanner {
            query,
            num_reducers,
            skew_bound: None,
            priority_region: None,
            invert: true,
            filter_pushdown: false,
        }
    }

    /// Overrides the system-chosen permissible skew (§3.1).
    pub fn skew_bound(mut self, bound: u64) -> Self {
        self.skew_bound = Some(bound);
        self
    }

    /// Prioritizes the keyblocks covering a region of the output
    /// space: they are scheduled first (§3.4 — computational steering,
    /// burst-buffer windows). The region is a slab of `K′`.
    pub fn prioritize_region(mut self, region: Slab) -> Self {
        self.priority_region = Some(region);
        self
    }

    /// Disables inverted scheduling (ablation: dependency barriers
    /// without reduce-first scheduling).
    pub fn classic_scheduling(mut self) -> Self {
        self.invert = false;
        self
    }

    /// The job's `filter_pushdown`: a `Filter` predicate pushed below
    /// the shuffle voids the geometric tallies, so the plan promises
    /// none (the §3.2.1 approach-1 barrier still guarantees output).
    pub fn filter_pushdown(mut self, filter_pushdown: bool) -> Self {
        self.filter_pushdown = filter_pushdown;
        self
    }

    /// Derives the complete plan for a concrete split set.
    ///
    /// Dependency information is computed here, "when a query begins,
    /// by calculating which keyblocks each `Iᵢ` will generate data
    /// for and then inverting those relationships" (§3.2.1 — the
    /// store side of the store-vs-recompute decision).
    pub fn build(self, splits: &[InputSplit]) -> Result<SidrPlan> {
        if self.num_reducers == 0 {
            return Err(SidrError::Plan("need at least one reducer".into()));
        }
        let partition = match self.skew_bound {
            Some(b) => PartitionPlus::with_skew_bound(
                self.query.intermediate_space(),
                self.num_reducers,
                b,
            )?,
            None => PartitionPlus::for_query(self.query, self.num_reducers)?,
        };
        let deps = Dependencies::derive(self.query, &partition, splits)?;

        let reduce_order = match &self.priority_region {
            None => (0..self.num_reducers).collect(),
            Some(region) => priority_order(&partition, region)?,
        };

        // Expected raw ⟨k,v⟩ per keyblock: every input key folding into
        // the block's K' keys produces exactly one intermediate pair
        // under the structural-mapper contract, so the expected tally
        // is |keys in block| × |extraction shape|. Requires splits to
        // cover the query's input space (all our generators do).
        let fold = self.query.fold_in_count();
        let expected_raw = (0..self.num_reducers)
            .map(|r| Ok(partition.keyblock_key_count(r)? * fold))
            .collect::<Result<Vec<u64>>>()?;

        let plan = SidrPlan {
            partition,
            deps,
            reduce_order,
            invert: self.invert,
            expected_raw,
            filter_pushed_down: pushdown_threshold(self.filter_pushdown, self.query.operator)
                .is_some(),
        };

        // Pre-flight: prove the structural invariants before anything
        // runs (coverage balance, schedule permutation, dependency
        // feasibility, annotation conservation). A planner bug
        // surfaces here as a diagnostic report instead of a hung
        // barrier or a silently wrong answer downstream.
        let view = crate::verify::PlanView::of_plan(&plan, self.query, splits);
        let report = crate::verify::structural_check(&view);
        if report.has_errors() {
            return Err(SidrError::Plan(format!(
                "pre-flight verification failed:\n{report}"
            )));
        }

        Ok(plan)
    }
}

/// Keyblocks intersecting `region` first (in id order), the rest after
/// (in id order).
fn priority_order(partition: &PartitionPlus, region: &Slab) -> Result<Vec<usize>> {
    let r = partition.num_reducers();
    let mut hot = Vec::new();
    let mut cold = Vec::new();
    for block in 0..r {
        let intersects = partition
            .keyblock_cover(block)?
            .iter()
            .any(|s| s.intersects(region));
        if intersects {
            hot.push(block);
        } else {
            cold.push(block);
        }
    }
    hot.extend(cold);
    Ok(hot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::Operator;
    use sidr_coords::Shape;
    use sidr_mapreduce::SplitGenerator;

    fn shape(v: &[u64]) -> Shape {
        Shape::new(v.to_vec()).unwrap()
    }

    fn query() -> StructuralQuery {
        StructuralQuery::new("t", shape(&[64, 10, 10]), shape(&[4, 5, 1]), Operator::Mean).unwrap()
    }

    fn splits(q: &StructuralQuery, n: u64) -> Vec<InputSplit> {
        SplitGenerator::new(q.input_space().clone(), 8)
            .exact_count(n)
            .unwrap()
    }

    #[test]
    fn plan_exposes_sidr_policies() {
        let q = query();
        let s = splits(&q, 8);
        let plan = SidrPlanner::new(&q, 4).build(&s).unwrap();
        assert_eq!(plan.num_reducers(), 4);
        assert!(plan.invert_scheduling());
        assert!(plan.reduce_deps(0).is_some());
        // Expected raw counts sum to the mapped portion of the input.
        let total: u64 = (0..4).map(|r| plan.expected_raw_count(r).unwrap()).sum();
        assert_eq!(total, q.intermediate_space().count() * q.fold_in_count());
    }

    #[test]
    fn priority_region_schedules_hot_blocks_first() {
        let q = query();
        let s = splits(&q, 8);
        let kspace = q.intermediate_space();
        // Hot region: the *last* rows of K' — blocks owning them run
        // first.
        let region = Slab::new(
            sidr_coords::Coord::from([kspace[0] - 1, 0, 0]),
            shape(&[1, kspace[1], kspace[2]]),
        )
        .unwrap();
        let plan = SidrPlanner::new(&q, 4)
            .prioritize_region(region.clone())
            .build(&s)
            .unwrap();
        let order = plan.reduce_order();
        let first = order[0];
        assert!(plan
            .partition()
            .keyblock_cover(first)
            .unwrap()
            .iter()
            .any(|c| c.intersects(&region)));
        // Order is a permutation.
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
    }

    #[test]
    fn classic_scheduling_flag() {
        let q = query();
        let s = splits(&q, 4);
        let plan = SidrPlanner::new(&q, 2)
            .classic_scheduling()
            .build(&s)
            .unwrap();
        assert!(!plan.invert_scheduling());
    }

    #[test]
    fn zero_reducers_rejected() {
        let q = query();
        let s = splits(&q, 4);
        assert!(SidrPlanner::new(&q, 0).build(&s).is_err());
    }
}
