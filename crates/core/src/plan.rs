//! The SIDR plan: `partition+` and the engine's one [`JobPlan`] —
//! dependency barriers, inverted scheduling, keyblock prioritization
//! and the §3.2.1 tallies. `partition+` itself is applied by the map
//! attempt (`SpecExecutor`), through [`SidrPlan::partition`].

use sidr_coords::Slab;
use sidr_mapreduce::{InputSplit, JobPlan, MapTaskId};

use crate::deps;
use crate::diag::Report;
use crate::partition_plus::PartitionPlus;
use crate::query::StructuralQuery;
use crate::spec::JobSpec;
use crate::verify::verify;
use crate::{Result, SidrError};

/// A fully derived SIDR plan for one job: the keyblock geometry and
/// the plain-data plan the engine runs. Every constructor proves it
/// ([`verify`]), so a planner fault or a corrupted submission is a
/// diagnostic report, not a hung barrier or a silently wrong answer.
#[derive(Clone, Debug)]
pub struct SidrPlan {
    /// `partition+` (§3.1): the partition function the job's map
    /// attempts apply.
    pub partition: PartitionPlus,
    /// What the scheduler runs: `I_ℓ` per keyblock as the barrier and
    /// fetch set (§3.2, §4.6), inverted reduce-first scheduling
    /// (§3.3), the launch order (§3.4) and each keyblock's geometric
    /// raw-pair tally (|keys| × |extraction shape|), which every reduce
    /// checks.
    pub job: JobPlan,
}

impl SidrPlan {
    /// The plan a submission stores (§3.2.1: "the relationships are
    /// stored as part of the job specification"): the spec's `I_ℓ` and
    /// launch order — the keyblocks covering `priority_region` moved to
    /// its front, when one is given (§3.4 steering) — with `partition+`
    /// and the tallies derived from its query, and the proof's report
    /// over the spec's splits. A plan whose report holds an error must
    /// not run.
    pub fn of_spec(
        spec: &JobSpec,
        query: &StructuralQuery,
        priority_region: Option<&Slab>,
        skew_bound: Option<u64>,
    ) -> Result<(Self, Report)> {
        let partition = PartitionPlus::for_query(query, spec.num_reducers)?;
        let reduce_order = match priority_region {
            Some(region) => prioritize(&partition, region, &spec.reduce_order)?,
            None => spec.reduce_order.clone(),
        };
        let plan = Self::assemble(query, partition, spec.reduce_deps.clone(), reduce_order)?;
        let report = verify(query, &spec.splits, &plan, skew_bound);
        Ok((plan, report))
    }

    /// `partition` with barriers `reduce_deps` launched in
    /// `reduce_order`, reduce-first, each keyblock checking its
    /// geometric tally.
    fn assemble(
        query: &StructuralQuery,
        partition: PartitionPlus,
        reduce_deps: Vec<Vec<MapTaskId>>,
        reduce_order: Vec<usize>,
    ) -> Result<Self> {
        let job = JobPlan {
            reduce_order,
            expected_raw: Some(raw_tallies(query, &partition)?),
            ..JobPlan::with_deps(reduce_deps)
        };
        Ok(SidrPlan { partition, job })
    }
}

/// `Ok` unless the proof's `report` holds an error.
pub(crate) fn unrefuted(report: &Report) -> Result<()> {
    if report.has_errors() {
        return Err(SidrError::Plan(format!(
            "plan verification failed:\n{report}"
        )));
    }
    Ok(())
}

/// Builder for [`SidrPlan`].
pub struct SidrPlanner<'q> {
    query: &'q StructuralQuery,
    num_reducers: usize,
    skew_bound: Option<u64>,
    priority_region: Option<Slab>,
}

impl<'q> SidrPlanner<'q> {
    pub fn new(query: &'q StructuralQuery, num_reducers: usize) -> Self {
        SidrPlanner {
            query,
            num_reducers,
            skew_bound: None,
            priority_region: None,
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
        let mut reduce_order: Vec<usize> = (0..self.num_reducers).collect();
        if let Some(region) = &self.priority_region {
            reduce_order = prioritize(&partition, region, &reduce_order)?;
        }
        let reduce_deps = deps::derive(self.query, &partition, splits)?;
        let plan = SidrPlan::assemble(self.query, partition, reduce_deps, reduce_order)?;
        // One proof at every build, the one admission runs.
        unrefuted(&verify(self.query, splits, &plan, self.skew_bound))?;
        Ok(plan)
    }
}

/// Each keyblock's expected raw ⟨k,v⟩ pairs: every input key folding
/// into the block's `K′` keys is one intermediate pair its map
/// represents under the structural-mapper contract, so the tally is
/// |keys in block| × |extraction shape|. Requires splits to cover the
/// query's input space (all our generators do).
pub(crate) fn raw_tallies(query: &StructuralQuery, partition: &PartitionPlus) -> Result<Vec<u64>> {
    let fold = query.fold_in_count();
    (0..partition.num_reducers())
        .map(|r| Ok(partition.keyblock_key_count(r)? * fold))
        .collect()
}

/// `order` with the keyblocks intersecting `region` moved to its
/// front; each part keeps its order.
fn prioritize(partition: &PartitionPlus, region: &Slab, order: &[usize]) -> Result<Vec<usize>> {
    let mut hot = Vec::new();
    let mut cold = Vec::new();
    for &block in order {
        // An entry past the keyblocks is left for the proof (SIDR-E006).
        let hit = block < partition.num_reducers()
            && (partition.keyblock_cover(block)?.iter()).any(|s| s.intersects(region));
        if hit {
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
        let plan = SidrPlanner::new(&q, 4).build(&s).unwrap().job;
        assert_eq!(plan.num_reducers(), 4);
        assert_eq!(plan.reduce_deps.as_ref().map(Vec::len), Some(4));
        // Expected raw counts sum to the mapped portion of the input.
        let total: u64 = (0..4).map(|r| plan.expected_raw(r).unwrap()).sum();
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
        let order = &plan.job.reduce_order;
        assert!(plan
            .partition
            .keyblock_cover(order[0])
            .unwrap()
            .iter()
            .any(|c| c.intersects(&region)));
        // Order is a permutation.
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
    }

    /// A region moves its keyblocks to the front of the order it is
    /// given, which keeps its order otherwise.
    #[test]
    fn prioritize_keeps_the_given_order_within_each_part() {
        let q = query();
        let pp = PartitionPlus::for_query(&q, 4).unwrap();
        let last = pp.keyblock_cover(3).unwrap()[0].clone();
        let order = prioritize(&pp, &last, &[1, 3, 0, 2]).unwrap();
        assert_eq!(order, vec![3, 1, 0, 2]);
    }

    #[test]
    fn zero_reducers_rejected() {
        let q = query();
        let s = splits(&q, 4);
        assert!(SidrPlanner::new(&q, 0).build(&s).is_err());
    }
}
