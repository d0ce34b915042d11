//! Static plan verification for SIDR.
//!
//! SIDR replaces MapReduce's global reduce barrier with per-keyblock
//! dependency barriers and lets reducers start — and emit *final*
//! results — before all maps finish (§3.2, §4.1). That only works if
//! the plan's geometry is right: a missing dependency edge means a
//! reducer answers from incomplete input; an overlapping keyblock
//! means a key is reduced twice; a wrong count annotation either
//! blocks a healthy reducer or waves a starving one through. This
//! crate *proves* those invariants statically, before any task runs:
//!
//! 1. **Coverage & disjointness** (`SIDR-E001`/`SIDR-E002`) — the
//!    keyblocks tile `K′ᵀ` exactly: slab covers are in-bounds,
//!    pairwise disjoint and count-balanced, proved on the slabs, so no
//!    key is visited. On the submission path the partition is
//!    re-derived from the spec's query and the stored covers must
//!    equal it; that the hot route (`PartitionPlus::keyblock_of`)
//!    agrees with the covers is a property of the code, tested in
//!    `tests/properties.rs`, not of a submission. The input splits
//!    tile the query region the same way: a split outside it, or a
//!    gap, is `SIDR-E001`; two splits reading the same records are
//!    `SIDR-E002`.
//! 2. **Dependency soundness & completeness**
//!    (`SIDR-E003`/`SIDR-W004`) — each `I_ℓ` is recomputed
//!    independently of the planner's grid-row derivation: each split's
//!    image under the extraction shape is intersected with the
//!    keyblock cover slabs proved above, in one sweep, and
//!    compared edge by edge. Its cost is in slabs, not keys, so it is
//!    exact at any `|K′ᵀ|`.
//! 3. **Skew certificate** (`SIDR-E005`) — the dealing unit respects
//!    the permissible skew and observed keyblock sizes differ by at
//!    most one unit, with witness keyblocks (§3.1).
//! 4. **Scheduling feasibility** (`SIDR-E006`/`SIDR-E007`) — the
//!    reduce order is a permutation and the bipartite map→keyblock
//!    graph is consistent, in-range and starvation-free.
//! 5. **Annotation conservation** (`SIDR-E008`/`SIDR-E009`) — the
//!    predicted per-keyblock raw-pair counts sum to `|K′ᵀ| × fold`
//!    and match each keyblock's geometry (§3.2.1 approach 2).
//!
//! The cheap structural half of these checks also runs automatically
//! in [`sidr_core::plan::SidrPlanner::build`]
//! (see [`sidr_core::verify`]); this crate layers the exhaustive
//! geometric half on top, renders findings through
//! [`sidr_core::diag`], and ships the `sidr-lint` CLI.

use sidr_coords::{cover, CoverDefect, Shape, Slab};
use sidr_core::diag::{codes, Diagnostic, Report};
use sidr_core::spec::JobSpec;
use sidr_core::verify::{structural_check, PlanView};
use sidr_core::{PartitionPlus, SidrPlan, StructuralQuery};
use sidr_mapreduce::InputSplit;

pub mod presets;

pub use sidr_core::diag;
pub use sidr_core::verify;

/// How many detailed diagnostics to emit per finding family before
/// collapsing the rest into a summary line.
const DETAIL_CAP: usize = 5;

/// Slab cap for the disjointness proofs: keyblock covers and split
/// sets with more slabs skip the overlap sweep (`SIDR-I010`), not the
/// bounds or a gap.
pub const PAIRWISE_SLAB_LIMIT: usize = 20_000;

/// Verifier knobs.
#[derive(Clone, Debug, Default)]
pub struct AnalyzeOptions {
    /// The permissible skew the plan is supposed to honor (§3.1).
    /// `None` accepts the partition's own dealing unit as the bound.
    pub skew_bound: Option<u64>,
}

/// Verifies a built plan end to end.
pub fn analyze_plan(
    query: &StructuralQuery,
    splits: &[InputSplit],
    plan: &SidrPlan,
    opts: &AnalyzeOptions,
) -> Report {
    let view = PlanView::of_plan(plan, query, splits);
    analyze(query, splits, &view, opts)
}

/// Verifies a plan view: the structural checks from
/// [`sidr_core::verify`] plus the exhaustive geometric proofs.
pub fn analyze(
    query: &StructuralQuery,
    splits: &[InputSplit],
    view: &PlanView,
    opts: &AnalyzeOptions,
) -> Report {
    let mut report = structural_check(view);
    let cover = check_cover_geometry(view, &mut report);
    check_split_tiling(query, splits, &mut report);
    if let Some((slabs, owners)) = cover {
        check_dependencies(query, splits, view, &slabs, &owners, &mut report);
    }
    check_skew(view, opts, &mut report);
    report
}

/// Lints a serialized job submission: re-derives the plan geometry
/// from the spec's own query and splits, checks the stored tables
/// against it, then runs the full analysis over the stored view.
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
    report.merge(analyze(&query, &spec.splits, &view, opts));
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

fn invert_deps(reduce_deps: &[Vec<usize>], num_splits: usize) -> Vec<Vec<usize>> {
    let mut feeds: Vec<Vec<usize>> = vec![Vec::new(); num_splits];
    for (b, deps) in reduce_deps.iter().enumerate() {
        for &m in deps {
            if m < num_splits {
                feeds[m].push(b);
            }
        }
    }
    feeds
}

/// Invariant 1: the keyblock slab covers form an exact cover of
/// `K′ᵀ` — in bounds, pairwise disjoint, counts balancing to `|K′ᵀ|`
/// (`SIDR-E001`/`SIDR-E002`). Returns the cover slabs and the
/// keyblock owning each, unless a cover is not computable or has a
/// defect: dependencies derived from a broken cover would only repeat
/// its error.
fn check_cover_geometry(view: &PlanView, report: &mut Report) -> Option<(Vec<Slab>, Vec<usize>)> {
    let cp = view.partition.partition();
    let mut slabs: Vec<Slab> = Vec::new();
    let mut owners: Vec<usize> = Vec::new();
    for b in 0..view.num_reducers() {
        // Un-computable covers are already reported by the structural
        // count-balance check.
        for s in cp.block_cover(b).ok()? {
            slabs.push(s);
            owners.push(b);
        }
    }
    let Some(defect) = tiling_defect(&slabs, &view.kspace, "slabs", report) else {
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
/// `Dependencies::derive` — the split's image under the extraction
/// shape, intersected with the keyblock cover slabs in one sweep
/// ([`cover::for_each_crossing`]) — and compare against the
/// plan's dependency tables edge by edge (`SIDR-E003` missing,
/// `SIDR-W004` spurious). The cover is exact, so a split feeds a
/// keyblock exactly when its image meets one of the keyblock's slabs.
fn check_dependencies(
    query: &StructuralQuery,
    splits: &[InputSplit],
    view: &PlanView,
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
    let mut listed: Vec<(usize, usize)> = (view.map_feeds.iter().take(splits.len()))
        .enumerate()
        .flat_map(|(m, feeds)| feeds.iter().map(move |&b| (m, b)))
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
fn check_skew(view: &PlanView, opts: &AnalyzeOptions, report: &mut Report) {
    let cp = view.partition.partition();
    let unit = cp.skew_shape().count();
    let bound = opts.skew_bound.unwrap_or(unit);
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
    for b in 0..view.num_reducers() {
        let keys = match cp.block_key_count(b) {
            Ok(c) => c,
            Err(_) => return, // structural check already flagged
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
    use sidr_core::{Operator, SidrPlanner};
    use sidr_mapreduce::SplitGenerator;

    #[test]
    fn clean_plan_analyzes_clean() {
        let q = StructuralQuery::new(
            "t",
            sidr_coords::Shape::new(vec![48, 6, 6]).unwrap(),
            sidr_coords::Shape::new(vec![4, 3, 1]).unwrap(),
            Operator::Mean,
        )
        .unwrap();
        let splits = SplitGenerator::new(q.input_space().clone(), 8)
            .exact_count(6)
            .unwrap();
        let plan = SidrPlanner::new(&q, 3).build(&splits).unwrap();
        let report = analyze_plan(&q, &splits, &plan, &AnalyzeOptions::default());
        assert!(report.is_clean(), "unexpected findings:\n{report}");
    }

    /// Region splits are absolute; the tiling check takes them
    /// relative to the region corner.
    #[test]
    fn region_plan_analyzes_clean() {
        let space = sidr_coords::Shape::new(vec![64, 10]).unwrap();
        let region = Slab::new(
            sidr_coords::Coord::from([16, 0]),
            sidr_coords::Shape::new(vec![32, 10]).unwrap(),
        )
        .unwrap();
        let q = StructuralQuery::over_region(
            "t",
            &space,
            region.clone(),
            sidr_coords::Shape::new(vec![8, 5]).unwrap(),
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
        let report = analyze_plan(&q, &splits, &plan, &AnalyzeOptions::default());
        assert!(report.is_clean(), "unexpected findings:\n{report}");
    }
}
