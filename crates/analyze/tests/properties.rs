//! Property tests: every plan the planner produces — across random
//! query geometries, reducer counts and split layouts — passes the
//! full static analysis clean, and random single-field corruptions
//! are always detected.

use proptest::prelude::*;

use sidr_analyze::diag::codes;
use sidr_analyze::verify::PlanView;
use sidr_analyze::{analyze, analyze_plan, AnalyzeOptions};
use sidr_coords::Shape;
use sidr_core::{Operator, SidrPlanner, StructuralQuery};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

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
