//! Static verification of SIDR plans: one proof at every build.
//!
//! SIDR replaces MapReduce's global reduce barrier with per-keyblock
//! dependency barriers and lets reducers start — and emit *final*
//! results — before all maps finish (§3.2, §4.1). That only works if
//! the plan's geometry is right: a missing dependency edge means a
//! reducer answers from incomplete input; an overlapping keyblock
//! means a key is reduced twice; a wrong count annotation either
//! blocks a healthy reducer or waves a starving one through.
//! [`verify`] *proves* those invariants before any task runs:
//!
//! 1. **Coverage & disjointness** (`SIDR-E001`/`SIDR-E002`) — the
//!    keyblocks tile `K′ᵀ` exactly: per-keyblock counts balance, the
//!    instance runs tile, and the slab covers are in-bounds, pairwise
//!    disjoint and count-balanced, proved on the slabs, so no key is
//!    visited. The input splits tile the query region the same way: a
//!    split outside it, or a gap, is `SIDR-E001`; two splits reading
//!    the same records are `SIDR-E002`.
//! 2. **Dependency soundness & completeness**
//!    (`SIDR-E003`/`SIDR-W004`) — each `I_ℓ` is recomputed
//!    independently of [`deps::derive`]: each split's image
//!    under the extraction shape is intersected with the keyblock
//!    cover slabs proved above, in one sweep, and compared edge by
//!    edge against `reduce_deps`, the table the scheduler runs. Its
//!    cost is in slabs, not keys, so it is exact at any
//!    `|K′ᵀ|`.
//! 3. **Skew certificate** (`SIDR-E005`) — the dealing unit respects
//!    the permissible skew and observed keyblock sizes differ by at
//!    most one unit, with witness keyblocks (§3.1).
//! 4. **Scheduling feasibility** (`SIDR-E006`/`SIDR-E007`) — the
//!    reduce order is a permutation and the dependency graph is
//!    in-range, duplicate-free and starvation-free.
//! 5. **Annotation conservation** (`SIDR-E008`/`SIDR-E009`) — the
//!    predicted per-keyblock raw-pair counts sum to `|K′ᵀ| × fold`
//!    and match each keyblock's geometry (§3.2.1 approach 2).
//!
//! One proof at every build: [`SidrPlanner::build`] runs [`verify`]
//! with no opt-out, so a planner fault fails the first plan it
//! shapes, in the engine, the simulator and every experiment alike.
//! A submission's plan is built by [`SidrPlan::of_spec`] from the
//! tables it stores, and proved by the same function, once: at a
//! server's admission (`sidr-analyze`'s `admit_spec`), whose plan the
//! job runs, or by `run_spec_on_pool` for a spec run in-process. The
//! proof reads the plan's own tables.
//!
//! [`SidrPlanner::build`]: crate::plan::SidrPlanner::build
//! [`deps::derive`]: crate::deps::derive

use sidr_coords::{cover, CoverDefect, Shape, Slab};
use sidr_mapreduce::{InputSplit, MapTaskId};

use crate::diag::{codes, Diagnostic, Report};
use crate::partition_plus::PartitionPlus;
use crate::plan::SidrPlan;
use crate::query::StructuralQuery;

/// How many detailed diagnostics to emit per finding family before
/// collapsing the rest into a summary line.
const DETAIL_CAP: usize = 5;

/// Slab cap for the disjointness proofs: keyblock covers and split
/// sets with more slabs skip the overlap sweep (`SIDR-I010`), not the
/// bounds or a gap.
pub const PAIRWISE_SLAB_LIMIT: usize = 20_000;

/// Proves every invariant of `plan` over `splits` (see the module
/// docs). `skew_bound` is the permissible skew the plan must honor
/// (§3.1); `None` accepts the partition's own dealing unit.
pub fn verify(
    query: &StructuralQuery,
    splits: &[InputSplit],
    plan: &SidrPlan,
    skew_bound: Option<u64>,
) -> Report {
    let mut report = Report::new();
    let partition = &plan.partition;
    // The keyspace and fold come from the query, not the partition, so
    // a partition built over the wrong space is caught rather than
    // trusted. A global barrier or a missing tally reads as an empty
    // table, which the length checks refuse.
    let (kspace, fold_in) = (query.intermediate_space(), query.fold_in_count());
    let deps = plan.job.reduce_deps.as_deref().unwrap_or_default();
    let tallies = plan.job.expected_raw.as_deref().unwrap_or_default();
    check_count_balance(partition, &kspace, &mut report);
    check_schedule(partition, &plan.job.reduce_order, &mut report);
    check_dependency_graph(partition, deps, tallies, splits.len(), &mut report);
    check_conservation(partition, tallies, &kspace, fold_in, &mut report);
    let cover = check_cover_geometry(partition, &kspace, &mut report);
    check_split_tiling(query, splits, &mut report);
    if let Some((slabs, owners)) = cover {
        check_dependencies(query, splits, deps, &slabs, &owners, &mut report);
    }
    check_skew(partition, skew_bound, &mut report);
    report
}

/// SIDR-E001: per-keyblock key counts must sum to `|K′ᵀ|`, and the
/// instance runs must tile `[0, instance_count)` contiguously.
/// Together with the disjoint covers [`check_cover_geometry`] proves
/// this makes the tiling exact.
fn check_count_balance(partition: &PartitionPlus, kspace: &Shape, report: &mut Report) {
    let cp = partition.partition();
    let expected_keys = kspace.count();
    let mut total = 0u64;
    for b in 0..partition.num_reducers() {
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
    for b in 0..partition.num_reducers() {
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
fn check_schedule(partition: &PartitionPlus, reduce_order: &[usize], report: &mut Report) {
    let r = partition.num_reducers();
    if reduce_order.len() != r {
        report.push(
            Diagnostic::error(codes::SCHED_ORDER, "reduce order length mismatch")
                .with("entries", reduce_order.len())
                .with("keyblocks", r),
        );
        return;
    }
    let mut seen = vec![false; r];
    for &b in reduce_order {
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

/// SIDR-E007: dependency-graph feasibility. Infeasibility here means
/// a dangling map id, an `I_ℓ` that is not strictly ascending (so it
/// may list a map twice, and would change the fetch and merge order),
/// or a keyblock that expects data yet depends on nothing — under
/// inverted scheduling its barrier would wait forever.
fn check_dependency_graph(
    partition: &PartitionPlus,
    reduce_deps: &[Vec<MapTaskId>],
    tallies: &[u64],
    num_splits: usize,
    report: &mut Report,
) {
    let r = partition.num_reducers();
    if reduce_deps.len() != r {
        report.push(
            Diagnostic::error(codes::SCHED_GRAPH, "dependency table length mismatch")
                .with("entries", reduce_deps.len())
                .with("keyblocks", r),
        );
        return;
    }
    for (b, deps) in reduce_deps.iter().enumerate() {
        let mut prev: Option<usize> = None;
        for &m in deps {
            if m >= num_splits {
                report.push(
                    Diagnostic::error(codes::SCHED_GRAPH, "dependency names a nonexistent map")
                        .with("keyblock", b)
                        .with("map", m)
                        .with("num_maps", num_splits),
                );
                return;
            }
            if prev.is_some_and(|p| m <= p) {
                report.push(
                    Diagnostic::error(
                        codes::SCHED_GRAPH,
                        "dependency set is not strictly ascending (lists a map twice or out of order)",
                    )
                        .with("keyblock", b)
                        .with("map", m),
                );
                return;
            }
            prev = Some(m);
        }
        let expected = tallies.get(b).copied().unwrap_or(0);
        if deps.is_empty() && expected > 0 {
            report.push(
                Diagnostic::error(
                    codes::SCHED_GRAPH,
                    "keyblock expects data but has no dependencies; its barrier can never be met",
                )
                .with("keyblock", b)
                .with("expected_raw", expected),
            );
        }
    }
}

/// SIDR-E008 / SIDR-E009: count-annotation conservation. Every input
/// key folds into exactly one `K′` key, so keyblock expectations must
/// satisfy `expected_raw[b] = keys(b) × fold` and sum to
/// `|K′ᵀ| × fold` (§3.2.1 approach 2).
fn check_conservation(
    partition: &PartitionPlus,
    tallies: &[u64],
    kspace: &Shape,
    fold_in: u64,
    report: &mut Report,
) {
    let r = partition.num_reducers();
    if tallies.len() != r {
        report.push(
            Diagnostic::error(codes::CONSERVATION, "expected-count table length mismatch")
                .with("entries", tallies.len())
                .with("keyblocks", r),
        );
        return;
    }
    let cp = partition.partition();
    for (b, &tally) in tallies.iter().enumerate() {
        if let Ok(keys) = cp.block_key_count(b) {
            let want = keys * fold_in;
            if tally != want {
                report.push(
                    Diagnostic::error(
                        codes::BLOCK_COUNT,
                        "keyblock expected raw-pair count disagrees with its geometry",
                    )
                    .with("keyblock", b)
                    .with("expected_raw", tally)
                    .with("keys_times_fold", want),
                );
            }
        }
    }
    let total: u64 = tallies.iter().sum();
    let want_total = kspace.count() * fold_in;
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

/// Invariant 1: the keyblock slab covers form an exact cover of
/// `K′ᵀ` — in bounds, pairwise disjoint, counts balancing to `|K′ᵀ|`
/// (`SIDR-E001`/`SIDR-E002`). Returns the cover slabs and the
/// keyblock owning each, unless a cover is not computable or has a
/// defect: dependencies derived from a broken cover would only repeat
/// its error.
fn check_cover_geometry(
    partition: &PartitionPlus,
    kspace: &Shape,
    report: &mut Report,
) -> Option<(Vec<Slab>, Vec<usize>)> {
    let mut slabs: Vec<Slab> = Vec::new();
    let mut owners: Vec<usize> = Vec::new();
    for b in 0..partition.num_reducers() {
        // Un-computable covers are already reported by the
        // count-balance check.
        for s in partition.keyblock_cover(b).ok()? {
            slabs.push(s);
            owners.push(b);
        }
    }
    let Some(defect) = tiling_defect(&slabs, kspace, "slabs", report) else {
        return Some((slabs, owners));
    };
    report.push(match defect {
        CoverDefect::OutOfBounds { index } => {
            Diagnostic::error(codes::COVERAGE, "keyblock cover extends outside K′ᵀ")
                .with("keyblock", owners[index])
                .with("slab", &slabs[index])
        }
        CoverDefect::Overlap { a, b, shared } => {
            Diagnostic::error(codes::OVERLAP, "keyblock covers overlap")
                .with("keyblock_a", owners[a])
                .with("keyblock_b", owners[b])
                .with("shared_keys", shared)
        }
        CoverDefect::CountMismatch { covered, expected } => {
            Diagnostic::error(codes::COVERAGE, "keyblock covers do not tile K′ᵀ")
                .with("covered_keys", covered)
                .with("keyspace_keys", expected)
        }
    });
    None
}

/// Invariant 1, input side: the splits tile the query region exactly —
/// in bounds, pairwise disjoint, counts balancing to the region's
/// (`SIDR-E001`/`SIDR-E002`). Every split generator tiles it and the
/// §3.2.1 tallies assume it: a record read twice, or by no map, would
/// fail the job's tally only after admission.
fn check_split_tiling(query: &StructuralQuery, splits: &[InputSplit], report: &mut Report) {
    let space = query.input_space();
    let corner = query.region().corner().clone();
    // Splits relative to the region corner; one starting before the
    // corner lies outside the region.
    let rel: Result<Vec<Slab>, usize> = splits
        .iter()
        .enumerate()
        .map(|(index, split)| {
            split
                .slab
                .corner()
                .checked_sub(&corner)
                .and_then(|c| Slab::new(c, split.slab.shape().clone()))
                .map_err(|_| index)
        })
        .collect();
    let defect = match rel {
        Err(index) => Some(CoverDefect::OutOfBounds { index }),
        Ok(rel) => tiling_defect(&rel, space, "splits", report),
    };
    let Some(defect) = defect else { return };
    report.push(match defect {
        CoverDefect::OutOfBounds { index } => Diagnostic::error(
            codes::COVERAGE,
            "input split extends outside the query region",
        )
        .with("split", index)
        .with("slab", &splits[index].slab),
        CoverDefect::Overlap { a, b, shared } => Diagnostic::error(
            codes::OVERLAP,
            "input splits overlap: their shared records would be read twice",
        )
        .with("split_a", a)
        .with("split_b", b)
        .with("shared_records", shared),
        CoverDefect::CountMismatch { covered, expected } => Diagnostic::error(
            codes::COVERAGE,
            "input splits do not tile the query region: some records would be read by no map",
        )
        .with("covered_records", covered)
        .with("region_records", expected),
    });
}

/// [`cover::exact_cover_defect`], except that past
/// [`PAIRWISE_SLAB_LIMIT`] slabs the overlap sweep is skipped
/// (`SIDR-I010`, counting the `noun`): a count short of the space's
/// still proves a gap. (A sum past `u64` proves overlap, not a gap.)
fn tiling_defect(
    slabs: &[Slab],
    space: &Shape,
    noun: &str,
    report: &mut Report,
) -> Option<CoverDefect> {
    if slabs.len() <= PAIRWISE_SLAB_LIMIT {
        return cover::exact_cover_defect(slabs, space);
    }
    report.push(
        Diagnostic::info(
            codes::TRUNCATED,
            format!("too many {noun} for the pairwise disjointness proof"),
        )
        .with(noun, slabs.len())
        .with("limit", PAIRWISE_SLAB_LIMIT),
    );
    if let Some(index) = cover::first_out_of_bounds(slabs, space) {
        return Some(CoverDefect::OutOfBounds { index });
    }
    let covered = slabs
        .iter()
        .try_fold(0u64, |n, s| n.checked_add(s.count()))?;
    (covered < space.count()).then(|| CoverDefect::CountMismatch {
        covered,
        expected: space.count(),
    })
}

/// Invariant 2: recompute each split's keyblock set independently of
/// [`deps::derive`](crate::deps::derive) — the split's image under the
/// extraction shape, intersected with the keyblock cover slabs in one
/// sweep ([`cover::for_each_crossing`]) — and compare against
/// `reduce_deps`, the table the scheduler runs, edge by edge
/// (`SIDR-E003` missing, `SIDR-W004` spurious). The cover is exact, so a split feeds a
/// keyblock exactly when its image meets one of the keyblock's slabs.
fn check_dependencies(
    query: &StructuralQuery,
    splits: &[InputSplit],
    reduce_deps: &[Vec<MapTaskId>],
    slabs: &[Slab],
    owners: &[usize],
    report: &mut Report,
) {
    // A split without an image feeds nothing.
    let mut images: Vec<Slab> = Vec::new();
    let mut imaged: Vec<usize> = Vec::new();
    for (m, split) in splits.iter().enumerate() {
        match query.image_of_split(&split.slab) {
            Ok(Some(image)) => {
                images.push(image);
                imaged.push(m);
            }
            Ok(None) => {}
            Err(e) => {
                report.push(
                    Diagnostic::error(codes::DEP_MISSING, "split image is not computable")
                        .with("split", m)
                        .with("cause", e),
                );
                return;
            }
        }
    }
    // Edges as (split, keyblock), sorted: the recomputed ones and the
    // stored ones.
    let mut fed: Vec<(usize, usize)> = Vec::new();
    cover::for_each_crossing(&images, slabs, |i, k| fed.push((imaged[i], owners[k])));
    fed.sort_unstable();
    fed.dedup();
    // A dangling map id is SIDR-E007's.
    let mut listed: Vec<(usize, usize)> = (reduce_deps.iter().enumerate())
        .flat_map(|(b, deps)| deps.iter().map(move |&m| (m, b)))
        .filter(|&(m, _)| m < splits.len())
        .collect();
    listed.sort_unstable();
    listed.dedup();

    let missing: Vec<_> = (fed.iter())
        .filter(|e| listed.binary_search(e).is_err())
        .collect();
    for &&(m, b) in missing.iter().take(DETAIL_CAP) {
        report.push(
            Diagnostic::error(
                codes::DEP_MISSING,
                "split feeds a keyblock that does not list it: \
                 the reduce barrier would release on incomplete input",
            )
            .with("split", m)
            .with("keyblock", b),
        );
    }
    if missing.len() > DETAIL_CAP {
        report.push(
            Diagnostic::error(
                codes::DEP_MISSING,
                "further missing dependency edges suppressed",
            )
            .with("total_missing", missing.len()),
        );
    }
    let spurious: Vec<_> = (listed.iter())
        .filter(|e| fed.binary_search(e).is_err())
        .collect();
    for &&(m, b) in spurious.iter().take(DETAIL_CAP) {
        report.push(
            Diagnostic::warning(
                codes::DEP_SPURIOUS,
                "dependency set lists a split that contributes nothing; \
                 the barrier is later than necessary",
            )
            .with("split", m)
            .with("keyblock", b),
        );
    }
    if spurious.len() > DETAIL_CAP {
        report.push(
            Diagnostic::warning(
                codes::DEP_SPURIOUS,
                "further spurious dependency edges suppressed",
            )
            .with("total_spurious", spurious.len()),
        );
    }
}

/// Invariant 3: the skew certificate (`SIDR-E005`). The dealing unit
/// must respect the permissible skew, and the observed spread across
/// non-empty keyblocks must stay within one unit — witnessed by the
/// largest and smallest keyblocks.
fn check_skew(partition: &PartitionPlus, skew_bound: Option<u64>, report: &mut Report) {
    let cp = partition.partition();
    let unit = cp.skew_shape().count();
    let bound = skew_bound.unwrap_or(unit);
    if unit > bound {
        report.push(
            Diagnostic::error(
                codes::SKEW,
                "the partition's dealing unit exceeds the permissible skew",
            )
            .with("dealing_unit_keys", unit)
            .with("permissible_skew", bound)
            .with("skew_shape", cp.skew_shape()),
        );
    }
    // The §3.1 bound is one dealing unit. A unit clipped at the space's
    // edge is short, so keyblocks are compared by key count plus their
    // clipped units' shortfall: what each would hold unclipped.
    let mut hi: Option<(usize, u64, u64)> = None;
    let mut lo: Option<(usize, u64, u64)> = None;
    for b in 0..partition.num_reducers() {
        let keys = match cp.block_key_count(b) {
            Ok(c) => c,
            Err(_) => return, // the count-balance check flagged it
        };
        if keys == 0 {
            continue;
        }
        let (start, end) = cp.block_run(b);
        let shortfall = (end - start) * unit - keys;
        let c = keys + shortfall;
        if hi.is_none_or(|(_, best, _)| c > best) {
            hi = Some((b, c, keys));
        }
        if lo.is_none_or(|(_, best, _)| c < best) {
            lo = Some((b, c, keys));
        }
    }
    if let (Some((hb, hc, hk)), Some((lb, lc, lk))) = (hi, lo) {
        let observed = hc - lc;
        if observed > unit {
            report.push(
                Diagnostic::error(
                    codes::SKEW,
                    "observed keyblock skew exceeds one dealing unit",
                )
                .with("observed_skew", observed)
                .with("dealing_unit_keys", unit)
                .with("largest_keyblock", hb)
                .with("largest_keys", hk)
                .with("smallest_keyblock", lb)
                .with("smallest_keys", lk),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::Operator;
    use crate::plan::SidrPlanner;
    use sidr_coords::Coord;
    use sidr_mapreduce::SplitGenerator;

    fn fixture() -> (StructuralQuery, Vec<InputSplit>, SidrPlan) {
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
        (q, splits, plan)
    }

    /// `fixture`'s plan, corrupted by `corrupt`, verified.
    fn verify_corrupted(corrupt: impl FnOnce(&mut SidrPlan)) -> Report {
        let (q, splits, mut plan) = fixture();
        corrupt(&mut plan);
        verify(&q, &splits, &plan, None)
    }

    /// The plan's dependency table.
    fn deps(plan: &mut SidrPlan) -> &mut Vec<Vec<MapTaskId>> {
        plan.job.reduce_deps.as_mut().unwrap()
    }

    #[test]
    fn planner_output_verifies_clean() {
        let report = verify_corrupted(|_| {});
        assert!(report.is_clean(), "unexpected findings:\n{report}");
    }

    /// Region splits are absolute; the tiling check takes them
    /// relative to the region corner.
    #[test]
    fn region_plan_verifies_clean() {
        let space = Shape::new(vec![64, 10]).unwrap();
        let region = Slab::new(Coord::from([16, 0]), Shape::new(vec![32, 10]).unwrap()).unwrap();
        let q = StructuralQuery::over_region(
            "t",
            &space,
            region.clone(),
            Shape::new(vec![8, 5]).unwrap(),
            Operator::Mean,
        )
        .unwrap();
        let splits = SplitGenerator::new(space, 8)
            .for_region(region)
            .unwrap()
            .aligned(8 * 10 * 8, 8)
            .unwrap();
        assert!(splits.len() > 1);
        let plan = SidrPlanner::new(&q, 3).build(&splits).unwrap();
        let report = verify(&q, &splits, &plan, None);
        assert!(report.is_clean(), "unexpected findings:\n{report}");
    }

    /// A global barrier lists no `I_ℓ` and promises no tally.
    #[test]
    fn a_plan_without_tables_is_refused() {
        let report = verify_corrupted(|p| p.job = sidr_mapreduce::JobPlan::global(4));
        assert!(report.has_code(codes::SCHED_GRAPH));
        assert!(report.has_code(codes::CONSERVATION));
    }

    #[test]
    fn bad_reduce_order_is_caught() {
        let report = verify_corrupted(|p| p.job.reduce_order = vec![0, 0, 1, 2]);
        assert!(report.has_code(codes::SCHED_ORDER));
    }

    #[test]
    fn dangling_dependency_is_caught() {
        let report = verify_corrupted(|p| deps(p)[1].push(8 + 5));
        assert!(report.has_code(codes::SCHED_GRAPH));
    }

    #[test]
    fn starved_keyblock_is_caught() {
        let report = verify_corrupted(|p| deps(p)[2].clear());
        assert!(report.has_code(codes::SCHED_GRAPH));
    }

    #[test]
    fn corrupted_expected_count_is_caught() {
        let report = verify_corrupted(|p| p.job.expected_raw.as_mut().unwrap()[0] += 1);
        assert!(report.has_code(codes::BLOCK_COUNT));
        assert!(report.has_code(codes::CONSERVATION));
    }

    #[test]
    fn wrong_keyspace_partition_is_caught() {
        // Partition built over a *wider* space than the query's K′ᵀ:
        // the keyblocks tile the wrong space, so counts cannot
        // balance.
        let wide = Shape::new(vec![32, 2, 10]).unwrap();
        let report = verify_corrupted(|p| {
            p.partition = PartitionPlus::with_skew_bound(wide, 4, 20).unwrap()
        });
        assert!(report.has_code(codes::COVERAGE));
    }
}
