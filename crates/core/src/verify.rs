//! Structural pre-flight verification of SIDR plans.
//!
//! The cheap — O(reducers + dependency edges) — half of the static
//! plan verifier. It runs inside every [`SidrPlanner::build`], with no
//! opt-out, and catches plans that would hang or answer wrongly
//! *before* any task is scheduled:
//! schedule permutation, dependency-graph feasibility, map↔keyblock
//! inversion consistency, keyblock count balance and count-annotation
//! conservation (§3.2.1 approach 2).
//!
//! The expensive geometric half — exhaustive coverage of `K′ᵀ`,
//! independent dependency recomputation, the skew certificate — lives
//! in the `sidr-analyze` crate, which starts from the same
//! [`PlanView`] and merges its findings into the same
//! [`Report`].
//!
//! [`SidrPlanner::build`]: crate::plan::SidrPlanner::build

use sidr_coords::Shape;
use sidr_mapreduce::{InputSplit, MapTaskId, RoutingPlan};

use crate::diag::{codes, Diagnostic, Report};
use crate::partition_plus::PartitionPlus;
use crate::plan::SidrPlan;
use crate::query::StructuralQuery;

/// A plan flattened into independently checkable (and, in tests,
/// independently corruptible) parts.
///
/// [`SidrPlan`] is immutable by design; the verifier instead works on
/// this open mirror of it, so the mutation tests in `sidr-analyze`
/// can hand-corrupt each invariant and prove the verifier catches it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanView {
    /// The keyblock geometry under scrutiny.
    pub partition: PartitionPlus,
    /// Per-keyblock dependency sets `I_ℓ` (map task ids).
    pub reduce_deps: Vec<Vec<MapTaskId>>,
    /// The inverse relation: which keyblocks each map feeds.
    pub map_feeds: Vec<Vec<usize>>,
    /// Scheduling order over keyblocks (§3.3, §3.4).
    pub reduce_order: Vec<usize>,
    /// Expected raw ⟨k,v⟩ pairs per keyblock (§3.2.1 approach 2): the
    /// geometric tallies, also when a pushed-down `Filter` means the
    /// plan promises none at run time.
    pub expected_raw: Vec<u64>,
    /// The query's intermediate keyspace `K′ᵀ` — taken from the query
    /// itself, not the partition, so a partition built over the wrong
    /// space is caught rather than trusted.
    pub kspace: Shape,
    /// Input keys folding into each `K′` key (`|extraction shape|`).
    pub fold_in: u64,
    /// Number of input splits (= map tasks).
    pub num_splits: usize,
}

impl PlanView {
    /// Snapshots a built plan for verification.
    pub fn of_plan(plan: &SidrPlan, query: &StructuralQuery, splits: &[InputSplit]) -> Self {
        let r = plan.num_reducers();
        PlanView {
            partition: plan.partition().clone(),
            reduce_deps: (0..r)
                .map(|b| plan.dependencies().reduce_deps(b).to_vec())
                .collect(),
            map_feeds: (0..splits.len())
                .map(|m| plan.dependencies().map_feeds(m).to_vec())
                .collect(),
            reduce_order: plan.reduce_order(),
            expected_raw: (0..r).map(|b| plan.geometric_raw_count(b)).collect(),
            kspace: query.intermediate_space(),
            fold_in: query.fold_in_count(),
            num_splits: splits.len(),
        }
    }

    /// Keyblock count the view claims.
    pub fn num_reducers(&self) -> usize {
        self.partition.num_reducers()
    }
}

/// Runs the structural invariant checks; see the module docs for the
/// split between this and `sidr-analyze`'s geometric checks.
pub fn structural_check(view: &PlanView) -> Report {
    let mut report = Report::new();
    check_count_balance(view, &mut report);
    check_schedule(view, &mut report);
    check_dependency_graph(view, &mut report);
    check_conservation(view, &mut report);
    report
}

/// SIDR-E001 (cheap half): per-keyblock key counts must sum to
/// `|K′ᵀ|`, and the instance runs must tile `[0, instance_count)`
/// contiguously. Together with the disjoint covers proven in
/// `sidr-analyze` this makes the tiling exact.
fn check_count_balance(view: &PlanView, report: &mut Report) {
    let cp = view.partition.partition();
    let expected_keys = view.kspace.count();
    let mut total = 0u64;
    for b in 0..view.num_reducers() {
        match cp.block_key_count(b) {
            Ok(n) => total += n,
            Err(e) => {
                report.push(
                    Diagnostic::error(codes::COVERAGE, "keyblock cover is not computable")
                        .with("keyblock", b)
                        .with("cause", e),
                );
                return;
            }
        }
    }
    if total != expected_keys {
        report.push(
            Diagnostic::error(
                codes::COVERAGE,
                "keyblock key counts do not sum to the intermediate keyspace",
            )
            .with("covered_keys", total)
            .with("keyspace_keys", expected_keys),
        );
    }
    let mut cursor = 0u64;
    for b in 0..view.num_reducers() {
        let (start, end) = cp.block_run(b);
        if start != cursor || end < start {
            report.push(
                Diagnostic::error(codes::COVERAGE, "keyblock instance runs do not tile")
                    .with("keyblock", b)
                    .with("run_start", start)
                    .with("expected_start", cursor),
            );
            return;
        }
        cursor = end;
    }
    if cursor != cp.instance_count() {
        report.push(
            Diagnostic::error(codes::COVERAGE, "keyblock instance runs stop short")
                .with("covered_instances", cursor)
                .with("instance_count", cp.instance_count()),
        );
    }
}

/// SIDR-E006: the reduce order must be a permutation of the
/// keyblocks — anything else drops or double-schedules a keyblock.
fn check_schedule(view: &PlanView, report: &mut Report) {
    let r = view.num_reducers();
    if view.reduce_order.len() != r {
        report.push(
            Diagnostic::error(codes::SCHED_ORDER, "reduce order length mismatch")
                .with("entries", view.reduce_order.len())
                .with("keyblocks", r),
        );
        return;
    }
    let mut seen = vec![false; r];
    for &b in &view.reduce_order {
        if b >= r || seen[b] {
            report.push(
                Diagnostic::error(
                    codes::SCHED_ORDER,
                    "reduce order is not a permutation of the keyblocks",
                )
                .with("offending_entry", b),
            );
            return;
        }
        seen[b] = true;
    }
}

/// SIDR-E007: dependency-graph feasibility. The graph is bipartite
/// (maps → keyblocks) by construction; infeasibility here means a
/// dangling map id, a duplicated edge, an inconsistent inversion, or
/// a keyblock that expects data yet depends on nothing — under
/// inverted scheduling its barrier would wait forever.
fn check_dependency_graph(view: &PlanView, report: &mut Report) {
    let r = view.num_reducers();
    if view.reduce_deps.len() != r {
        report.push(
            Diagnostic::error(codes::SCHED_GRAPH, "dependency table length mismatch")
                .with("entries", view.reduce_deps.len())
                .with("keyblocks", r),
        );
        return;
    }
    for (b, deps) in view.reduce_deps.iter().enumerate() {
        let mut prev: Option<usize> = None;
        for &m in deps {
            if m >= view.num_splits {
                report.push(
                    Diagnostic::error(codes::SCHED_GRAPH, "dependency names a nonexistent map")
                        .with("keyblock", b)
                        .with("map", m)
                        .with("num_maps", view.num_splits),
                );
                return;
            }
            if prev == Some(m) {
                report.push(
                    Diagnostic::error(codes::SCHED_GRAPH, "dependency set lists a map twice")
                        .with("keyblock", b)
                        .with("map", m),
                );
                return;
            }
            prev = Some(m);
        }
        if deps.is_empty() && view.expected_raw.get(b).copied().unwrap_or(0) > 0 {
            report.push(
                Diagnostic::error(
                    codes::SCHED_GRAPH,
                    "keyblock expects data but has no dependencies; its barrier can never be met",
                )
                .with("keyblock", b)
                .with("expected_raw", view.expected_raw[b]),
            );
        }
    }
    // Inversion consistency: the map→keyblock table must be exactly
    // the transpose of the keyblock→map table.
    let mut inverted: Vec<Vec<usize>> = vec![Vec::new(); view.num_splits];
    for (b, deps) in view.reduce_deps.iter().enumerate() {
        for &m in deps {
            if m < view.num_splits {
                inverted[m].push(b);
            }
        }
    }
    for row in &mut inverted {
        row.sort_unstable();
    }
    if view.map_feeds.len() != view.num_splits {
        report.push(
            Diagnostic::error(codes::SCHED_GRAPH, "map-feeds table length mismatch")
                .with("entries", view.map_feeds.len())
                .with("num_maps", view.num_splits),
        );
        return;
    }
    for (m, feeds) in view.map_feeds.iter().enumerate() {
        let mut sorted = feeds.clone();
        sorted.sort_unstable();
        if sorted != inverted[m] {
            report.push(
                Diagnostic::error(
                    codes::SCHED_GRAPH,
                    "map→keyblock inversion disagrees with the dependency sets",
                )
                .with("map", m)
                .with("feeds", format!("{sorted:?}"))
                .with("inverted_deps", format!("{:?}", inverted[m])),
            );
            return;
        }
    }
}

/// SIDR-E008 / SIDR-E009: count-annotation conservation. Every input
/// key folds into exactly one `K′` key, so keyblock expectations must
/// satisfy `expected_raw[b] = keys(b) × fold` and sum to
/// `|K′ᵀ| × fold` (§3.2.1 approach 2).
fn check_conservation(view: &PlanView, report: &mut Report) {
    let r = view.num_reducers();
    if view.expected_raw.len() != r {
        report.push(
            Diagnostic::error(codes::CONSERVATION, "expected-count table length mismatch")
                .with("entries", view.expected_raw.len())
                .with("keyblocks", r),
        );
        return;
    }
    let cp = view.partition.partition();
    for b in 0..r {
        if let Ok(keys) = cp.block_key_count(b) {
            let want = keys * view.fold_in;
            if view.expected_raw[b] != want {
                report.push(
                    Diagnostic::error(
                        codes::BLOCK_COUNT,
                        "keyblock expected raw-pair count disagrees with its geometry",
                    )
                    .with("keyblock", b)
                    .with("expected_raw", view.expected_raw[b])
                    .with("keys_times_fold", want),
                );
            }
        }
    }
    let total: u64 = view.expected_raw.iter().sum();
    let want_total = view.kspace.count() * view.fold_in;
    if total != want_total {
        report.push(
            Diagnostic::error(
                codes::CONSERVATION,
                "expected raw-pair counts are not conserved over the input",
            )
            .with("sum_expected_raw", total)
            .with("keyspace_times_fold", want_total),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::Operator;
    use crate::plan::SidrPlanner;
    use sidr_mapreduce::SplitGenerator;

    fn fixture() -> (StructuralQuery, Vec<InputSplit>, PlanView) {
        let q = StructuralQuery::new(
            "t",
            Shape::new(vec![64, 10, 10]).unwrap(),
            Shape::new(vec![4, 5, 1]).unwrap(),
            Operator::Mean,
        )
        .unwrap();
        let splits = SplitGenerator::new(q.input_space().clone(), 8)
            .exact_count(8)
            .unwrap();
        let plan = SidrPlanner::new(&q, 4).build(&splits).unwrap();
        let view = PlanView::of_plan(&plan, &q, &splits);
        (q, splits, view)
    }

    #[test]
    fn planner_output_is_structurally_clean() {
        let (_, _, view) = fixture();
        let report = structural_check(&view);
        assert!(report.is_clean(), "unexpected findings:\n{report}");
    }

    #[test]
    fn bad_reduce_order_is_caught() {
        let (_, _, mut view) = fixture();
        view.reduce_order = vec![0, 0, 1, 2];
        assert!(structural_check(&view).has_code(codes::SCHED_ORDER));
    }

    #[test]
    fn dangling_dependency_is_caught() {
        let (_, _, mut view) = fixture();
        view.reduce_deps[1].push(view.num_splits + 5);
        assert!(structural_check(&view).has_code(codes::SCHED_GRAPH));
    }

    #[test]
    fn starved_keyblock_is_caught() {
        let (_, _, mut view) = fixture();
        view.reduce_deps[2].clear();
        let report = structural_check(&view);
        assert!(report.has_code(codes::SCHED_GRAPH));
    }

    #[test]
    fn corrupted_expected_count_is_caught() {
        let (_, _, mut view) = fixture();
        view.expected_raw[0] += 1;
        let report = structural_check(&view);
        assert!(report.has_code(codes::BLOCK_COUNT));
        assert!(report.has_code(codes::CONSERVATION));
    }

    #[test]
    fn wrong_keyspace_partition_is_caught() {
        let (_, _, mut view) = fixture();
        // Partition built over a *wider* space than the query's K′ᵀ:
        // the keyblocks tile the wrong space, so counts cannot
        // balance.
        let wide = Shape::new(vec![32, 2, 10]).unwrap();
        view.partition = PartitionPlus::with_skew_bound(wide, 4, 20).unwrap();
        let report = structural_check(&view);
        assert!(report.has_code(codes::COVERAGE));
    }
}
