//! Algebraic properties of the query operators, checked over random
//! value sets — the invariants a downstream scientist would assume.

use proptest::prelude::*;
use sidr_core::Operator;

fn values() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6, 1..200)
}

proptest! {
    #[test]
    fn median_lies_between_min_and_max(vs in values()) {
        let med = Operator::Median.apply(&vs)[0];
        let lo = Operator::Min.apply(&vs)[0];
        let hi = Operator::Max.apply(&vs)[0];
        prop_assert!(lo <= med && med <= hi);
    }

    #[test]
    fn mean_lies_between_min_and_max(vs in values()) {
        let mean = Operator::Mean.apply(&vs)[0];
        let lo = Operator::Min.apply(&vs)[0];
        let hi = Operator::Max.apply(&vs)[0];
        prop_assert!(lo - 1e-9 <= mean && mean <= hi + 1e-9);
    }

    #[test]
    fn variance_nonnegative_and_stddev_consistent(vs in values()) {
        let var = Operator::Variance.apply(&vs)[0];
        let std = Operator::StdDev.apply(&vs)[0];
        prop_assert!(var >= -1e-6);
        prop_assert!((std * std - var.max(0.0)).abs() <= 1e-3 * var.abs().max(1.0));
    }

    #[test]
    fn range_is_max_minus_min(vs in values()) {
        let range = Operator::Range.apply(&vs)[0];
        let lo = Operator::Min.apply(&vs)[0];
        let hi = Operator::Max.apply(&vs)[0];
        prop_assert_eq!(range, hi - lo);
        prop_assert!(range >= 0.0);
    }

    #[test]
    fn histogram_conserves_count(vs in values(), buckets in 1u32..20) {
        let counts = Operator::Histogram { lo: -1e6, hi: 1e6, buckets }.apply(&vs);
        prop_assert_eq!(counts.len(), buckets as usize);
        prop_assert_eq!(counts.iter().sum::<f64>(), vs.len() as f64);
        prop_assert!(counts.iter().all(|&c| c >= 0.0));
    }

    #[test]
    fn percentile_is_monotone_in_p(vs in values(), p1 in 0.0f64..100.0, p2 in 0.0f64..100.0) {
        let (lo_p, hi_p) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let a = Operator::Percentile { p: lo_p }.apply(&vs)[0];
        let b = Operator::Percentile { p: hi_p }.apply(&vs)[0];
        prop_assert!(a <= b, "P{lo_p}={a} > P{hi_p}={b}");
    }

    #[test]
    fn filter_and_countabove_agree(vs in values(), threshold in -1e6f64..1e6) {
        let kept = Operator::Filter { threshold }.apply(&vs);
        let count = Operator::CountAbove { threshold }.apply(&vs)[0];
        prop_assert_eq!(kept.len() as f64, count);
        prop_assert!(kept.iter().all(|&v| v > threshold));
    }

    #[test]
    fn sort_values_is_a_permutation(vs in values()) {
        let sorted = Operator::SortValues.apply(&vs);
        prop_assert_eq!(sorted.len(), vs.len());
        prop_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
        let mut a = vs.clone();
        a.sort_by(f64::total_cmp);
        let mut b = sorted;
        b.sort_by(f64::total_cmp);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn sum_and_count_compose_to_mean(vs in values()) {
        let sum = Operator::Sum.apply(&vs)[0];
        let count = Operator::Count.apply(&vs)[0];
        let mean = Operator::Mean.apply(&vs)[0];
        prop_assert!((sum / count - mean).abs() <= 1e-9 * mean.abs().max(1.0));
    }

    #[test]
    fn single_valued_ops_emit_exactly_one(vs in values()) {
        for op in [
            Operator::Mean,
            Operator::Median,
            Operator::Min,
            Operator::Max,
            Operator::Sum,
            Operator::Count,
            Operator::Variance,
            Operator::StdDev,
            Operator::Range,
            Operator::CountAbove { threshold: 0.0 },
            Operator::Percentile { p: 50.0 },
        ] {
            prop_assert!(op.single_valued());
            prop_assert_eq!(op.apply(&vs).len(), 1, "{:?}", op);
        }
    }
}

/// The copy-and-stable-sort answer of `op` over `vs`, written here
/// independently of the operator code: the semantics every in-place
/// selection must reproduce bit for bit.
fn stable_sort_reference(op: Operator, vs: &[f64]) -> Vec<f64> {
    let mut sorted = vs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
    let n = sorted.len();
    match op {
        Operator::Median if n % 2 == 1 => vec![sorted[n / 2]],
        Operator::Median => vec![(sorted[n / 2 - 1] + sorted[n / 2]) / 2.0],
        Operator::Percentile { p } => {
            let rank = ((p.clamp(0.0, 100.0) / 100.0) * n as f64).ceil() as usize;
            vec![sorted[rank.max(1) - 1]]
        }
        Operator::SortValues => sorted,
        other => unreachable!("no reference for {other:?}"),
    }
}

/// Groups of 1–80 values drawn from a palette of a few to a few dozen
/// values, so duplicates are heavy and both parities of length come
/// up; the palette holds negatives, +0.0 and −0.0.
fn group() -> impl Strategy<Value = Vec<f64>> {
    (1i64..40).prop_flat_map(|span| {
        prop::collection::vec(
            (0u8..8, -span..span).prop_map(|(tag, k)| match tag {
                0 => 0.0,
                1 => -0.0,
                _ => k as f64 * 0.25,
            }),
            1..=80,
        )
    })
}

fn bits(vs: &[f64]) -> Vec<u64> {
    vs.iter().map(|v| v.to_bits()).collect()
}

/// What `reduce_group` emits for `op` over a copy of `vs`.
fn reduced(op: Operator, vs: &[f64]) -> Vec<f64> {
    let mut out = Vec::new();
    op.reduce_group(&mut vs.to_vec(), &mut |v| out.push(v));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn holistic_operators_are_bit_identical_to_a_stable_sort(vs in group()) {
        let ops = [
            Operator::Median,
            Operator::SortValues,
            Operator::Percentile { p: 0.0 },
            Operator::Percentile { p: 1.0 },
            Operator::Percentile { p: 50.0 },
            Operator::Percentile { p: 99.9 },
            Operator::Percentile { p: 100.0 },
        ];
        for op in ops {
            let got = reduced(op, &vs);
            let want = stable_sort_reference(op, &vs);
            prop_assert_eq!(bits(&got), bits(&want), "{:?} over {:?}", op, vs);
        }
    }
}

/// A unit whose stable answer is −0.0: +0.0 and −0.0 compare equal, so
/// only input order decides which one a median reports.
#[test]
fn mixed_zero_group_keeps_the_stable_answer() {
    let vs = [0.0, 3.0, -0.0, -5.0, -0.0];
    // Stable ascending: [-5, 0.0, -0.0, -0.0, 3]; the median is −0.0.
    assert_eq!(bits(&reduced(Operator::Median, &vs)), bits(&[-0.0]));
    assert_eq!(
        bits(&reduced(Operator::SortValues, &vs)),
        bits(&[-5.0, 0.0, -0.0, -0.0, 3.0])
    );
    // The same values in another order: [-5, -0.0, 0.0, 0.0, 3].
    assert_eq!(
        bits(&reduced(Operator::Median, &[-0.0, 3.0, 0.0, -5.0, 0.0])),
        bits(&[0.0])
    );
    // Even length whose middle pair is −0.0 and −0.0: their mean stays
    // −0.0.
    assert_eq!(
        bits(&reduced(Operator::Median, &[-0.0, 1.0, -0.0, -1.0])),
        bits(&[-0.0])
    );
    // Percentiles whose nearest rank falls on the zeros.
    for p in [40.0, 60.0] {
        let op = Operator::Percentile { p };
        assert_eq!(
            bits(&reduced(op, &vs)),
            bits(&stable_sort_reference(op, &vs)),
            "{op:?}"
        );
    }
}
