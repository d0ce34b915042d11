//! Property tests: every plan the planner produces — across random
//! query geometries, reducer counts and split layouts — passes the
//! full static analysis clean, and random single-field corruptions
//! are always detected. The per-key walks admission no longer runs
//! are the oracles here: the slab algebra must reach their verdicts.

use proptest::prelude::*;

use sidr_analyze::diag::codes;
use sidr_analyze::verify::PlanView;
use sidr_analyze::{analyze, analyze_plan, AnalyzeOptions};
use sidr_coords::{Coord, Shape, Slab};
use sidr_core::{Operator, PartitionPlus, SidrPlanner, StructuralQuery};
use sidr_mapreduce::{InputSplit, SplitGenerator};

/// Random structural query: extraction extents 1–4 per dimension,
/// input space an exact multiple of the extraction shape.
fn geometry() -> impl Strategy<Value = (StructuralQuery, Vec<InputSplit>, usize)> {
    (
        (1u64..4, 1u64..4, 1u64..3),
        (1u64..8, 1u64..5, 1u64..4),
        1usize..7,
        1u64..9,
    )
        .prop_map(|((e0, e1, e2), (m0, m1, m2), reducers, n_splits)| {
            let q = StructuralQuery::new(
                "v",
                Shape::new(vec![e0 * m0 * 2, e1 * m1, e2 * m2]).unwrap(),
                Shape::new(vec![e0, e1, e2]).unwrap(),
                Operator::Sum,
            )
            .unwrap();
            let splits = SplitGenerator::new(q.input_space().clone(), 8)
                .exact_count(n_splits)
                .unwrap();
            (q, splits, reducers)
        })
}

/// A query over a region of a larger variable, the region's extents
/// not always a multiple of the extraction shape (partial instances
/// are discarded), split along its longest dimension.
fn region_geometry() -> impl Strategy<Value = (StructuralQuery, Vec<InputSplit>, usize)> {
    (
        (1u64..4, 1u64..4, 1u64..3),
        (1u64..6, 1u64..4, 1u64..3),
        (0u64..3, 0u64..3, 0u64..2),
        (0u64..4, 0u64..3, 0u64..2),
        1usize..7,
        1u64..9,
    )
        .prop_map(|(e, m, partial, corner, reducers, n_splits)| {
            let region_ext = [
                e.0 * m.0 + partial.0 % e.0,
                e.1 * m.1 + partial.1 % e.1,
                e.2 * m.2 + partial.2 % e.2,
            ];
            let corner = [corner.0, corner.1, corner.2];
            let space = Shape::new(
                (0..3)
                    .map(|d| corner[d] + region_ext[d] + 1)
                    .collect::<Vec<u64>>(),
            )
            .unwrap();
            let region = Slab::new(
                Coord::from(corner),
                Shape::new(region_ext.to_vec()).unwrap(),
            )
            .unwrap();
            let q = StructuralQuery::over_region(
                "v",
                &space,
                region.clone(),
                Shape::new(vec![e.0, e.1, e.2]).unwrap(),
                Operator::Sum,
            )
            .unwrap();
            let splits = SplitGenerator::new(space, 8)
                .for_region(region)
                .unwrap()
                .exact_count(n_splits)
                .unwrap();
            (q, splits, reducers)
        })
}

/// The per-key walk admission once ran, kept as the oracle: every key
/// of each split's image routed through the reference partition
/// function, as each split's sorted keyblock set.
fn walked_feeds(q: &StructuralQuery, splits: &[InputSplit], pp: &PartitionPlus) -> Vec<Vec<usize>> {
    splits
        .iter()
        .map(|split| {
            let mut fed = vec![false; pp.num_reducers()];
            if let Some(image) = q.image_of_split(&split.slab).unwrap() {
                for key in image.iter_coords() {
                    // Keys the reference cannot route feed nothing.
                    if let Ok(b) = pp.partition().keyblock_of_key(&key) {
                        fed[b] = true;
                    }
                }
            }
            (0..fed.len()).filter(|&b| fed[b]).collect()
        })
        .collect()
}

/// Whether `report` holds a `code` finding naming split `m` and
/// keyblock `b`.
fn names_edge(report: &sidr_analyze::diag::Report, code: &str, m: usize, b: usize) -> bool {
    let (m, b) = (m.to_string(), b.to_string());
    report.diagnostics.iter().any(|d| {
        let has = |key: &str, value: &str| d.context.iter().any(|(k, v)| k == key && v == value);
        d.code == code && has("split", &m) && has("keyblock", &b)
    })
}

/// The untouched plan lists exactly the walk's feeds and analyzes
/// clean; every edge the walk finds is `SIDR-E003` when dropped, and
/// every edge it does not find is `SIDR-W004`, and no error, when
/// added — each naming its split and keyblock.
fn feeds_match_the_walk(
    q: &StructuralQuery,
    splits: &[InputSplit],
    reducers: usize,
) -> Result<(), TestCaseError> {
    let plan = SidrPlanner::new(q, reducers).build(splits).unwrap();
    let clean = PlanView::of_plan(&plan, q, splits);
    let walked = walked_feeds(q, splits, &clean.partition);
    for (m, feeds) in clean.map_feeds.iter().enumerate() {
        let mut listed = feeds.clone();
        listed.sort_unstable();
        prop_assert_eq!(&listed, &walked[m], "split {}", m);
    }
    let report = analyze(q, splits, &clean, &AnalyzeOptions::default());
    prop_assert!(
        report.is_clean(),
        "findings on a planner-built plan:\n{report}"
    );
    for (m, feeds) in walked.iter().enumerate() {
        for b in 0..clean.num_reducers() {
            let mut view = clean.clone();
            let edge = feeds.contains(&b);
            if edge {
                view.map_feeds[m].retain(|&x| x != b);
                view.reduce_deps[b].retain(|&x| x != m);
            } else {
                view.map_feeds[m].push(b);
                view.reduce_deps[b].push(m);
                view.reduce_deps[b].sort_unstable();
            }
            let report = analyze(q, splits, &view, &AnalyzeOptions::default());
            if edge {
                prop_assert!(
                    names_edge(&report, codes::DEP_MISSING, m, b),
                    "dropped ({m}, {b}) not E003:\n{report}"
                );
            } else {
                prop_assert!(
                    names_edge(&report, codes::DEP_SPURIOUS, m, b),
                    "added ({m}, {b}) not W004:\n{report}"
                );
                prop_assert!(
                    !report.has_errors(),
                    "a spurious edge is no error:\n{report}"
                );
            }
        }
    }
    Ok(())
}

/// A random `partition+` over a rank 1–4 keyspace: skew bounds from 1
/// to past the whole space, so clipped dealing units and remainder
/// keyblocks both occur, and more keyblocks than units sometimes.
fn partition() -> impl Strategy<Value = PartitionPlus> {
    (prop::collection::vec(1u64..8, 1..5), 1usize..9, 1u64..64).prop_map(
        |(extents, reducers, bound)| {
            PartitionPlus::with_skew_bound(Shape::new(extents).unwrap(), reducers, bound).unwrap()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The slab-derived dependencies equal the per-key walk's, edge by
    /// edge, plain and over a region (see [`feeds_match_the_walk`]).
    #[test]
    fn slab_feeds_match_the_walk(
        (q, splits, reducers) in geometry(),
        (rq, rsplits, rreducers) in region_geometry(),
    ) {
        feeds_match_the_walk(&q, &splits, reducers)?;
        feeds_match_the_walk(&rq, &rsplits, rreducers)?;
    }

    /// The hot route, the reference route and the covers agree on every
    /// key: `PartitionPlus::keyblock_of`, `keyblock_of_key` and the
    /// owner of the one cover slab containing the key name the same
    /// keyblock — the property admission relies on when it proves
    /// coverage and dependencies on slabs alone.
    #[test]
    fn routes_and_covers_agree_on_every_key(pp in partition()) {
        let covers: Vec<(Slab, usize)> = (0..pp.num_reducers())
            .flat_map(|b| pp.keyblock_cover(b).unwrap().into_iter().map(move |s| (s, b)))
            .collect();
        for key in pp.partition().space().iter_coords() {
            let reference = pp.partition().keyblock_of_key(&key).unwrap();
            prop_assert_eq!(pp.keyblock_of(key.components()), reference, "key {}", key);
            let owners: Vec<usize> = (covers.iter())
                .filter(|(s, _)| s.contains(&key))
                .map(|&(_, b)| b)
                .collect();
            prop_assert_eq!(owners, vec![reference], "key {}", key);
        }
    }

    /// Planner output is always provably clean.
    #[test]
    fn planner_plans_verify_clean((q, splits, reducers) in geometry()) {
        let plan = SidrPlanner::new(&q, reducers).build(&splits).unwrap();
        let report = analyze_plan(&q, &splits, &plan, &AnalyzeOptions::default());
        prop_assert!(report.is_clean(), "findings on a planner-built plan:\n{report}");
    }

    /// Any nonzero perturbation of any expected count is detected.
    #[test]
    fn count_corruption_is_always_caught(
        (q, splits, reducers) in geometry(),
        victim in 0usize..64,
        delta in 1u64..1000,
    ) {
        let plan = SidrPlanner::new(&q, reducers).build(&splits).unwrap();
        let mut view = PlanView::of_plan(&plan, &q, &splits);
        let victim = victim % view.expected_raw.len();
        view.expected_raw[victim] += delta;
        let report = analyze(&q, &splits, &view, &AnalyzeOptions::default());
        prop_assert!(report.has_errors());
        prop_assert!(report.has_code(codes::BLOCK_COUNT) || report.has_code(codes::CONSERVATION));
    }

    /// Dropping any dependency edge (consistently, as a buggy
    /// derivation would) is detected by the independent geometric
    /// recomputation.
    #[test]
    fn edge_drop_is_always_caught(
        (q, splits, reducers) in geometry(),
        pick in 0usize..1024,
    ) {
        let plan = SidrPlanner::new(&q, reducers).build(&splits).unwrap();
        let mut view = PlanView::of_plan(&plan, &q, &splits);
        let edges: Vec<(usize, usize)> = view
            .reduce_deps
            .iter()
            .enumerate()
            .flat_map(|(b, deps)| deps.iter().map(move |&m| (b, m)))
            .collect();
        prop_assert!(!edges.is_empty(), "plans always have dependency edges");
        let (b, m) = edges[pick % edges.len()];
        view.reduce_deps[b].retain(|&x| x != m);
        view.map_feeds[m].retain(|&x| x != b);
        let report = analyze(&q, &splits, &view, &AnalyzeOptions::default());
        prop_assert!(report.has_errors(), "dropped edge ({b}, {m}) not caught");
        // Either the geometric pass (E003) or — when the keyblock
        // lost its only feeder — the starvation check (E007) fires.
        prop_assert!(
            report.has_code(codes::DEP_MISSING) || report.has_code(codes::SCHED_GRAPH),
            "wrong codes:\n{report}"
        );
    }

    /// Adding any edge whose split contributes nothing to its keyblock
    /// (to both tables, as a buggy derivation would) is reported as
    /// spurious, and only warned about.
    #[test]
    fn spurious_edge_is_always_reported(
        (q, splits, reducers) in geometry(),
        pick in 0usize..1024,
    ) {
        let plan = SidrPlanner::new(&q, reducers).build(&splits).unwrap();
        let mut view = PlanView::of_plan(&plan, &q, &splits);
        let non_edges: Vec<(usize, usize)> = (0..splits.len())
            .flat_map(|m| (0..view.num_reducers()).map(move |b| (b, m)))
            .filter(|&(b, m)| !view.map_feeds[m].contains(&b))
            .collect();
        prop_assume!(!non_edges.is_empty());
        let (b, m) = non_edges[pick % non_edges.len()];
        view.map_feeds[m].push(b);
        view.reduce_deps[b].push(m);
        view.reduce_deps[b].sort_unstable();
        let report = analyze(&q, &splits, &view, &AnalyzeOptions::default());
        prop_assert!(report.has_code(codes::DEP_SPURIOUS), "spurious edge ({b}, {m}) not reported:\n{report}");
        prop_assert!(!report.has_errors(), "a spurious edge is no error:\n{report}");
    }
}
