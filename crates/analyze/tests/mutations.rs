//! Mutation coverage for the static plan verifier: corrupt each
//! invariant class by hand and prove the analyzer rejects it with the
//! documented stable code, while the untouched plan passes clean.

use sidr_analyze::diag::codes;
use sidr_analyze::verify::PlanView;
use sidr_analyze::{analyze, analyze_spec, AnalyzeOptions, PAIRWISE_SLAB_LIMIT};
use sidr_coords::{Coord, Shape, Slab};
use sidr_core::spec::JobSpec;
use sidr_core::{Operator, PartitionPlus, SidrPlanner, StructuralQuery};
use sidr_mapreduce::{InputSplit, SplitGenerator};

fn fixture() -> (StructuralQuery, Vec<InputSplit>, PlanView) {
    let q = StructuralQuery::new(
        "t",
        Shape::new(vec![48, 6, 6]).unwrap(),
        Shape::new(vec![4, 3, 1]).unwrap(),
        Operator::Mean,
    )
    .unwrap();
    let splits = SplitGenerator::new(q.input_space().clone(), 8)
        .exact_count(6)
        .unwrap();
    let plan = SidrPlanner::new(&q, 3).build(&splits).unwrap();
    let view = PlanView::of_plan(&plan, &q, &splits);
    (q, splits, view)
}

fn run(q: &StructuralQuery, splits: &[InputSplit], view: &PlanView) -> sidr_core::Report {
    analyze(q, splits, view, &AnalyzeOptions::default())
}

#[test]
fn untouched_plan_is_clean() {
    let (q, splits, view) = fixture();
    let report = run(&q, &splits, &view);
    assert!(report.is_clean(), "unexpected findings:\n{report}");
}

/// Invariant 2 (soundness): drop one dependency edge *consistently*
/// from both tables, as a buggy derivation would — the structural
/// inversion check stays green, the independent geometric
/// recomputation catches it.
#[test]
fn dropped_dependency_edge_is_e003() {
    let (q, splits, mut view) = fixture();
    let b = *view.map_feeds[0].first().expect("split 0 feeds something");
    view.map_feeds[0].retain(|&x| x != b);
    view.reduce_deps[b].retain(|&m| m != 0);
    let report = run(&q, &splits, &view);
    assert!(report.has_errors());
    assert!(
        report.has_code(codes::DEP_MISSING),
        "wrong codes:\n{report}"
    );
}

/// Invariant 2 (completeness): a spurious edge is safe but delays the
/// barrier — warning, not error.
#[test]
fn spurious_dependency_edge_is_w004() {
    let (q, splits, mut view) = fixture();
    // Find a (split, keyblock) pair that is NOT an edge.
    let (m, b) = (0..splits.len())
        .flat_map(|m| (0..view.num_reducers()).map(move |b| (m, b)))
        .find(|&(m, b)| !view.map_feeds[m].contains(&b))
        .expect("small plans have non-edges");
    view.map_feeds[m].push(b);
    view.reduce_deps[b].push(m);
    view.reduce_deps[b].sort_unstable();
    let report = run(&q, &splits, &view);
    assert!(
        !report.has_errors(),
        "spurious edges must not be errors:\n{report}"
    );
    assert!(
        report.has_code(codes::DEP_SPURIOUS),
        "wrong codes:\n{report}"
    );
}

/// Invariant 1: a partition built over a widened keyspace cannot
/// tile the query's K′ᵀ.
#[test]
fn widened_keyblock_space_is_e001() {
    let (q, splits, mut view) = fixture();
    let mut wide = view.kspace.extents().to_vec();
    wide[0] *= 2;
    view.partition = PartitionPlus::with_skew_bound(Shape::new(wide).unwrap(), 3, 12).unwrap();
    let report = run(&q, &splits, &view);
    assert!(report.has_errors());
    assert!(report.has_code(codes::COVERAGE), "wrong codes:\n{report}");
}

/// Invariant 5: a corrupted per-keyblock tally breaks both the
/// per-block equation and the global conservation law.
#[test]
fn corrupted_key_count_is_e009_and_e008() {
    let (q, splits, mut view) = fixture();
    view.expected_raw[1] += 7;
    let report = run(&q, &splits, &view);
    assert!(report.has_errors());
    assert!(
        report.has_code(codes::BLOCK_COUNT),
        "wrong codes:\n{report}"
    );
    assert!(
        report.has_code(codes::CONSERVATION),
        "wrong codes:\n{report}"
    );
}

/// Invariant 4: a schedule that repeats a keyblock silently drops
/// another.
#[test]
fn non_permutation_schedule_is_e006() {
    let (q, splits, mut view) = fixture();
    view.reduce_order = vec![0, 0, 2];
    let report = run(&q, &splits, &view);
    assert!(report.has_errors());
    assert!(
        report.has_code(codes::SCHED_ORDER),
        "wrong codes:\n{report}"
    );
}

/// Invariant 4: a dependency on a map task that does not exist can
/// never be met.
#[test]
fn dangling_map_dependency_is_e007() {
    let (q, splits, mut view) = fixture();
    let ghost = splits.len() + 3;
    view.reduce_deps[0].push(ghost);
    let report = run(&q, &splits, &view);
    assert!(report.has_errors());
    assert!(
        report.has_code(codes::SCHED_GRAPH),
        "wrong codes:\n{report}"
    );
}

/// Invariant 4: a keyblock that expects data but depends on nothing
/// starves forever under inverted scheduling.
#[test]
fn starved_keyblock_is_e007() {
    let (q, splits, mut view) = fixture();
    view.reduce_deps[2].clear();
    for feeds in &mut view.map_feeds {
        feeds.retain(|&b| b != 2);
    }
    let report = run(&q, &splits, &view);
    assert!(report.has_errors());
    assert!(
        report.has_code(codes::SCHED_GRAPH),
        "wrong codes:\n{report}"
    );
}

/// Invariant 3: a partition whose dealing unit exceeds the declared
/// permissible skew fails its certificate, with witness context.
#[test]
fn violated_skew_bound_is_e005() {
    let (q, splits, view) = fixture();
    let unit = view.partition.partition().skew_shape().count();
    assert!(unit > 1, "fixture needs a non-trivial dealing unit");
    let opts = AnalyzeOptions {
        skew_bound: Some(unit - 1),
    };
    let report = analyze(&q, &splits, &view, &opts);
    assert!(report.has_errors());
    assert!(report.has_code(codes::SKEW), "wrong codes:\n{report}");
    let skew = report
        .diagnostics
        .iter()
        .find(|d| d.code == codes::SKEW)
        .unwrap();
    assert!(
        skew.context.iter().any(|(k, _)| k == "permissible_skew"),
        "skew diagnostic must carry its witness context"
    );
}

/// The honored bound passes.
#[test]
fn honored_skew_bound_is_clean() {
    let (q, splits, view) = fixture();
    let unit = view.partition.partition().skew_shape().count();
    let opts = AnalyzeOptions {
        skew_bound: Some(unit),
    };
    let report = analyze(&q, &splits, &view, &opts);
    assert!(report.is_clean(), "unexpected findings:\n{report}");
}

/// The JSON renderer carries the stable codes machine consumers key
/// on.
#[test]
fn json_report_carries_stable_codes() {
    let (q, splits, mut view) = fixture();
    view.expected_raw[0] += 1;
    let json = run(&q, &splits, &view).to_json();
    assert!(json.contains("\"code\":\"SIDR-E009\""), "json was: {json}");
    assert!(json.contains("\"severity\":\"Error\""));
}

/// Spec documents get the same scrutiny: a dependency edge dropped
/// from a serialized submission is caught after a JSON round-trip.
#[test]
fn corrupted_job_spec_is_caught() {
    let (q, splits, _) = fixture();
    let plan = SidrPlanner::new(&q, 3).build(&splits).unwrap();
    let spec = JobSpec::from_plan(&q, &splits, &plan).unwrap();

    let clean = analyze_spec(&spec, &AnalyzeOptions::default()).unwrap();
    assert!(clean.is_clean(), "unexpected findings:\n{clean}");

    let mut bad = JobSpec::from_json(&spec.to_json()).unwrap();
    let victim = bad.reduce_deps.iter().position(|d| !d.is_empty()).unwrap();
    bad.reduce_deps[victim].remove(0);
    let report = analyze_spec(&bad, &AnalyzeOptions::default()).unwrap();
    assert!(report.has_errors());
    assert!(
        report.has_code(codes::DEP_MISSING),
        "wrong codes:\n{report}"
    );
}

/// The planner's built-in pre-flight runs in every build.
#[test]
fn planner_preflight_runs_on_every_build() {
    let (q, splits, _) = fixture();
    assert!(SidrPlanner::new(&q, 3).build(&splits).is_ok());
    // End-to-end rejection: the analyzer (superset of the pre-flight)
    // rejects at least five distinct corruption classes — covered by
    // the tests above; here we prove the pre-flight path itself runs
    // by checking a degenerate planner input still errors cleanly.
    assert!(SidrPlanner::new(&q, 0).build(&splits).is_err());
}

/// Dependencies are proved at any `|K′ᵀ|`: a `{4096,4096,2}` input
/// with extraction `{1,1,1}` has 33,554,432 keys, twice the largest
/// `K′ᵀ` a per-key walk once routed before it skipped the split images.
/// Split 63's edge to keyblock 21, dropped from the submission, is
/// `SIDR-E003` naming both, and nothing is truncated.
#[test]
fn dropped_edge_past_any_key_count_is_e003() {
    let q = StructuralQuery::new(
        "t",
        Shape::new(vec![4096, 4096, 2]).unwrap(),
        Shape::new(vec![1, 1, 1]).unwrap(),
        Operator::Mean,
    )
    .unwrap();
    assert_eq!(q.intermediate_space().count(), 33_554_432);
    let splits = SplitGenerator::new(q.input_space().clone(), 4)
        .exact_count(64)
        .unwrap();
    assert_eq!(splits.len(), 64);
    let plan = SidrPlanner::new(&q, 22).build(&splits).unwrap();
    let mut spec = JobSpec::from_plan(&q, &splits, &plan).unwrap();
    let clean = analyze_spec(&spec, &AnalyzeOptions::default()).unwrap();
    assert!(clean.is_clean(), "unexpected findings:\n{clean}");

    assert!(
        spec.reduce_deps[21].contains(&63),
        "split 63 feeds keyblock 21"
    );
    spec.reduce_deps[21].retain(|&m| m != 63);
    let report = analyze_spec(&spec, &AnalyzeOptions::default()).unwrap();
    let missing = (report.diagnostics.iter())
        .find(|d| d.code == codes::DEP_MISSING)
        .unwrap_or_else(|| panic!("admitted:\n{report}"));
    let named = |key: &str| {
        (missing.context.iter())
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
    };
    assert_eq!(named("split").as_deref(), Some("63"), "{report}");
    assert_eq!(named("keyblock").as_deref(), Some("21"), "{report}");
    assert!(!report.has_code(codes::TRUNCATED), "{report}");
}

/// A submission over `{28,10,4}` with `{7,5,1}` keys and 4 splits of
/// 7 rows each — the fixture for the split-tiling mutations below.
fn tiled_spec() -> JobSpec {
    let q = StructuralQuery::new(
        "t",
        Shape::new(vec![28, 10, 4]).unwrap(),
        Shape::new(vec![7, 5, 1]).unwrap(),
        Operator::Mean,
    )
    .unwrap();
    let splits = SplitGenerator::new(q.input_space().clone(), 8)
        .exact_count(4)
        .unwrap();
    assert_eq!(splits[3].slab.corner(), &Coord::from([21, 0, 0]));
    let plan = SidrPlanner::new(&q, 3).build(&splits).unwrap();
    let spec = JobSpec::from_plan(&q, &splits, &plan).unwrap();
    let clean = analyze_spec(&spec, &AnalyzeOptions::default()).unwrap();
    assert!(clean.is_clean(), "unexpected findings:\n{clean}");
    spec
}

fn slab(corner: [u64; 3], shape: [u64; 3]) -> Slab {
    Slab::new(Coord::from(corner), Shape::new(shape.to_vec()).unwrap()).unwrap()
}

/// A split widened past the input space reads records that do not
/// exist: `SIDR-E001`, naming the split.
#[test]
fn split_past_the_input_space_is_e001() {
    let mut spec = tiled_spec();
    spec.splits[3].slab = slab([21, 0, 0], [14, 10, 4]);
    let report = analyze_spec(&spec, &AnalyzeOptions::default()).unwrap();
    assert!(report.has_errors(), "admitted:\n{report}");
    assert!(report.has_code(codes::COVERAGE), "wrong codes:\n{report}");
    assert!(report.to_json().contains("[\"split\",\"3\"]"), "{report}");
}

/// A split moved wholly outside the input space leaves its rows
/// unread — an error, not just a spurious-edge warning.
#[test]
fn split_outside_the_input_space_is_e001() {
    let mut spec = tiled_spec();
    spec.splits[3].slab = slab([28, 0, 0], [7, 10, 4]);
    let report = analyze_spec(&spec, &AnalyzeOptions::default()).unwrap();
    assert!(report.has_errors(), "admitted:\n{report}");
    assert!(report.has_code(codes::COVERAGE), "wrong codes:\n{report}");
}

/// Two splits over the same rows, with `reduce_deps` re-derived to
/// match, agree with every dependency check — but rows 14..21 would be
/// read twice and rows 21..28 never: `SIDR-E002`.
#[test]
fn duplicated_split_is_e002() {
    let mut spec = tiled_spec();
    spec.splits[3] = spec.splits[2].clone();
    for deps in &mut spec.reduce_deps {
        deps.retain(|&m| m != 3);
        if deps.contains(&2) {
            deps.push(3);
        }
    }
    let report = analyze_spec(&spec, &AnalyzeOptions::default()).unwrap();
    assert!(report.has_errors(), "admitted:\n{report}");
    assert!(report.has_code(codes::OVERLAP), "wrong codes:\n{report}");
}

/// `rows` one-row splits over `{rows,2,2}` with `{1,2,2}` keys and 4
/// reducers: the fixture for the split-limit cases below.
fn one_row_splits(rows: u64) -> JobSpec {
    let q = StructuralQuery::new(
        "t",
        Shape::new(vec![rows, 2, 2]).unwrap(),
        Shape::new(vec![1, 2, 2]).unwrap(),
        Operator::Mean,
    )
    .unwrap();
    let splits = SplitGenerator::new(q.input_space().clone(), 4)
        .exact_count(rows)
        .unwrap();
    assert_eq!(splits.len() as u64, rows);
    let plan = SidrPlanner::new(&q, 4).build(&splits).unwrap();
    JobSpec::from_plan(&q, &splits, &plan).unwrap()
}

/// At `PAIRWISE_SLAB_LIMIT` the split overlap proof still runs, as a
/// sweep: 20,000 one-row splits are proved disjoint, and one row read
/// twice is `SIDR-E002` naming both splits — the lowest overlapping
/// pair, as a pairwise scan would report it.
#[test]
fn overlap_proof_at_the_split_limit() {
    assert_eq!(PAIRWISE_SLAB_LIMIT, 20_000);
    let mut spec = one_row_splits(PAIRWISE_SLAB_LIMIT as u64);
    let clean = analyze_spec(&spec, &AnalyzeOptions::default()).unwrap();
    assert!(clean.is_clean(), "unexpected findings:\n{clean}");

    // Split 17,001 reads split 17,000's row again.
    spec.splits[17_001] = spec.splits[17_000].clone();
    let report = analyze_spec(&spec, &AnalyzeOptions::default()).unwrap();
    let overlap = (report.diagnostics.iter())
        .find(|d| d.code == codes::OVERLAP)
        .unwrap_or_else(|| panic!("admitted:\n{report}"));
    let named = |key: &str| {
        (overlap.context.iter())
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
    };
    assert_eq!(named("split_a").as_deref(), Some("17000"), "{report}");
    assert_eq!(named("split_b").as_deref(), Some("17001"), "{report}");
}

/// Over `PAIRWISE_SLAB_LIMIT` the split overlap proof is skipped
/// (`SIDR-I010`), but a split set whose records fall short of the
/// region's is still a gap: `SIDR-E001`.
#[test]
fn gapped_splits_over_the_pairwise_limit_are_e001() {
    let mut spec = one_row_splits(PAIRWISE_SLAB_LIMIT as u64 + 1);
    let clean = analyze_spec(&spec, &AnalyzeOptions::default()).unwrap();
    assert!(!clean.has_errors(), "unexpected errors:\n{clean}");
    // Split 17,000 reads half its row.
    spec.splits[17_000].slab = slab([17_000, 0, 0], [1, 1, 2]);
    let report = analyze_spec(&spec, &AnalyzeOptions::default()).unwrap();
    let has = |code: &str, key: &str| {
        report
            .diagnostics
            .iter()
            .any(|d| d.code == code && d.context.iter().any(|(k, _)| k == key))
    };
    assert!(has(codes::TRUNCATED, "splits"), "no truncation:\n{report}");
    assert!(
        has(codes::COVERAGE, "covered_records"),
        "admitted:\n{report}"
    );
}
