//! Query operators applied to each extraction instance.
//!
//! The paper's example queries (§2.2, §4.1): weekly averages, medians
//! over multi-day regions, threshold filters, per-unit sorts. Each
//! operator consumes the complete value list of one intermediate key
//! — MapReduce guarantee 2 (§2.3) makes that safe — and emits one or
//! more output values. The group is handed over mutably, and the
//! holistic operators (median, percentile, sort) reorder it in place
//! rather than sorting a copy: a linear-time selection per key instead
//! of an allocation and a full sort.

use serde::{Deserialize, Serialize};

/// The operator of a structural query.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Operator {
    /// Arithmetic mean of the unit (query example 1, §2.2).
    Mean,
    /// Median of the unit (Query 1, §4.1). Holistic: no map-side fold.
    Median,
    Min,
    Max,
    Sum,
    /// Number of values in the unit.
    Count,
    /// All values strictly greater than `threshold` (Query 2, §4.1:
    /// "results will contain a list of all values greater than the
    /// threshold"). May emit zero values.
    Filter {
        threshold: f64,
    },
    /// The unit's values in ascending order (query example 3, §2.2).
    SortValues,
    /// Population variance of the unit.
    Variance,
    /// Population standard deviation of the unit.
    StdDev,
    /// `max - min` of the unit — the "24-hour temperature variation"
    /// of query example 2 (§2.2) in aggregate form.
    Range,
    /// Number of values strictly exceeding `threshold` — the counting
    /// form of query example 2, and the histogramming workload of
    /// high-energy physics (§2.2).
    CountAbove {
        threshold: f64,
    },
    /// The `p`-th percentile (0 ≤ p ≤ 100) by nearest-rank — the
    /// periodogram/percentile analyses of §2.2's survey.
    Percentile {
        p: f64,
    },
    /// A fixed-bin histogram of the unit: emits `buckets` counts for
    /// `[lo, hi)`, out-of-range values clamped to the edge bins —
    /// "functionally equivalent to histogramming in high energy
    /// physics" (§2.2).
    Histogram {
        lo: f64,
        hi: f64,
        buckets: u32,
    },
}

impl Operator {
    /// Applies the operator to one complete unit, emitting its output
    /// values in order. The one implementation: the reduce attempt and
    /// [`Operator::apply`] call it, and the map-side fold of a
    /// distributive operator ([`crate::geomap`]) steps the same `Fold`.
    ///
    /// Holistic operators work on the unit in place: `Median` and
    /// `Percentile` select their rank in linear time and `SortValues`
    /// sorts, so they leave `values` reordered. Every other operator
    /// leaves it as it is. On NaN-free input the result is
    /// bit-identical to stable-sorting a copy, a unit holding both +0.0
    /// and −0.0 included.
    pub fn reduce_group(&self, values: &mut [f64], emit: &mut dyn FnMut(f64)) {
        let n = values.len();
        if n == 0 {
            return;
        }
        match *self {
            Operator::Mean => emit(values.iter().sum::<f64>() / n as f64),
            Operator::Median if n % 2 == 1 => emit(select_rank(values, n / 2)),
            Operator::Median => {
                let hi = select_rank(values, n / 2);
                // `select_rank` left every value of rank < n/2 before
                // index n/2, so rank n/2 − 1 is the greatest of those.
                let lo = select_rank(&mut values[..n / 2], n / 2 - 1);
                emit((lo + hi) / 2.0)
            }
            Operator::Min | Operator::Max | Operator::Sum => {
                let fold = self.fold().expect("a distributive operator");
                emit(
                    values
                        .iter()
                        .fold(fold.identity(), |acc, &v| fold.step(acc, v)),
                )
            }
            Operator::Count => emit(n as f64),
            Operator::Filter { threshold } => {
                for &v in values.iter().filter(|&&v| v > threshold) {
                    emit(v);
                }
            }
            Operator::SortValues => {
                values.sort_by(ascending);
                for &v in values.iter() {
                    emit(v);
                }
            }
            Operator::Variance => emit(variance(values)),
            Operator::StdDev => emit(variance(values).sqrt()),
            Operator::Range => {
                let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                emit(hi - lo)
            }
            Operator::CountAbove { threshold } => {
                emit(values.iter().filter(|&&v| v > threshold).count() as f64)
            }
            Operator::Percentile { p } => {
                // Nearest rank; `p` is clamped to [0, 100].
                let p = p.clamp(0.0, 100.0);
                let rank = ((p / 100.0) * n as f64).ceil() as usize;
                emit(select_rank(values, rank.max(1) - 1))
            }
            Operator::Histogram { lo, hi, buckets } => {
                let n = buckets.max(1) as usize;
                let mut counts = vec![0.0f64; n];
                let width = (hi - lo) / n as f64;
                for &v in values.iter() {
                    let bin = if width > 0.0 {
                        (((v - lo) / width).floor() as i64).clamp(0, n as i64 - 1) as usize
                    } else {
                        0
                    };
                    counts[bin] += 1.0;
                }
                for c in counts {
                    emit(c);
                }
            }
        }
    }

    /// [`Operator::reduce_group`] over a copy of `values`, collected.
    pub fn apply(&self, values: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.reduce_group(&mut values.to_vec(), &mut |v| out.push(v));
        out
    }

    /// Whether the operator is distributive — computable from partial
    /// aggregates — and therefore combinable at the Map side. HOP-style
    /// systems are *limited* to these (§5); SIDR is not, but folds
    /// them map-side ([`crate::geomap`]).
    pub fn is_distributive(&self) -> bool {
        self.fold().is_some()
    }

    /// The fold of a distributive operator, `None` for the others.
    pub(crate) fn fold(&self) -> Option<Fold> {
        match self {
            Operator::Min => Some(Fold::Min),
            Operator::Max => Some(Fold::Max),
            Operator::Sum => Some(Fold::Sum),
            _ => None,
        }
    }

    /// Whether reducing the one value the operator emits for a unit
    /// gives that value back, bit for bit: `apply(&apply(u))` is
    /// `apply(u)` for every unit `u`. A map that holds a unit whole
    /// may then reduce it itself and ship the one value
    /// ([`crate::geomap`]): the reduce, handed that value alone, emits
    /// it unchanged. Min, Max and Sum fold from their identity (a sum
    /// from −0.0), Mean divides a one-value sum by 1, and Median and
    /// Percentile select the only value there is. Every other operator
    /// emits a statistic of the unit that its own reduce does not keep
    /// (a count, a spread), or emits many values.
    pub(crate) fn idempotent(&self) -> bool {
        matches!(
            self,
            Operator::Min
                | Operator::Max
                | Operator::Sum
                | Operator::Mean
                | Operator::Median
                | Operator::Percentile { .. }
        )
    }

    /// Whether the operator emits exactly one value per unit (such
    /// output fills a dense array; list-valued output goes to
    /// coordinate/value pair files, §2.4.2 / §4.4).
    pub fn single_valued(&self) -> bool {
        !matches!(
            self,
            Operator::Filter { .. } | Operator::SortValues | Operator::Histogram { .. }
        )
    }
}

/// A distributive operator as a left fold: start from
/// [`Fold::identity`] and take in each value, in order, with
/// [`Fold::step`]. The one definition: [`Operator::reduce_group`] folds
/// a unit with it, and the map kernel ([`crate::geomap`]) folds each
/// key's values with it as it reads them, so the two agree bit for bit
/// (a sum from −0.0, as `Iterator::sum` adds).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Fold {
    Min,
    Max,
    Sum,
}

impl Fold {
    /// The fold's start: what an empty unit folds to.
    pub(crate) fn identity(self) -> f64 {
        match self {
            Fold::Min => f64::INFINITY,
            Fold::Max => f64::NEG_INFINITY,
            Fold::Sum => -0.0,
        }
    }

    /// Takes in `v` after everything `acc` has folded.
    #[inline(always)]
    pub(crate) fn step(self, acc: f64, v: f64) -> f64 {
        match self {
            Fold::Min => acc.min(v),
            Fold::Max => acc.max(v),
            Fold::Sum => acc + v,
        }
    }
}

/// The dataset order on values; a NaN is a broken dataset.
fn ascending(a: &f64, b: &f64) -> std::cmp::Ordering {
    a.partial_cmp(b).expect("no NaNs in datasets")
}

/// The value a stable ascending sort of `values` puts at index `k`,
/// moved to `values[k]` in place, with every value of lower rank
/// before it. Linear-time selection by `f64::total_cmp`, which on
/// NaN-free values agrees with [`ascending`] except that it orders
/// −0.0 before +0.0; any two values it calls equal have equal bits, so
/// the selected value is exactly the sorted one. A unit holding both
/// zeros is the exception: they compare equal but differ in their
/// bits, and only the stable sort picks between them by input order,
/// so such a unit is stable-sorted in place instead. A NaN panics, as
/// the sort's comparator did.
fn select_rank(values: &mut [f64], k: usize) -> f64 {
    let (mut pos_zero, mut neg_zero) = (false, false);
    for &v in values.iter() {
        assert!(!v.is_nan(), "no NaNs in datasets");
        pos_zero |= v.to_bits() == 0.0f64.to_bits();
        neg_zero |= v.to_bits() == (-0.0f64).to_bits();
    }
    if pos_zero && neg_zero {
        values.sort_by(ascending);
    } else {
        values.select_nth_unstable_by(k, f64::total_cmp);
    }
    values[k]
}

fn variance(values: &[f64]) -> f64 {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// Every operator, the parameterised ones at one setting each.
    const ALL: [Operator; 14] = [
        Operator::Mean,
        Operator::Median,
        Operator::Min,
        Operator::Max,
        Operator::Sum,
        Operator::Count,
        Operator::Filter { threshold: 0.0 },
        Operator::SortValues,
        Operator::Variance,
        Operator::StdDev,
        Operator::Range,
        Operator::CountAbove { threshold: 0.0 },
        Operator::Percentile { p: 50.0 },
        Operator::Histogram {
            lo: 0.0,
            hi: 10.0,
            buckets: 2,
        },
    ];

    /// A unit of 1–64 values: both zeros in either order, duplicates,
    /// and ±1e16 beside small values, whose sum cancels in its bits.
    fn unit() -> impl Strategy<Value = Vec<f64>> {
        let value = (0u32..7, -100.0..100.0f64).prop_map(|(kind, x)| match kind {
            0 => 0.0,
            1 => -0.0,
            2 => 1e16,
            3 => -1e16,
            4 => 1.5,
            5 => x.round(),
            _ => x,
        });
        prop::collection::vec(value, 1..=64)
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Reducing the one value an admitted operator emits for a unit
        /// gives it back, bit for bit.
        #[test]
        fn idempotent_operators_give_their_value_back(u in unit(), tenths in 0u64..=1000) {
            let p = tenths as f64 / 10.0;
            let admitted = [
                Operator::Min,
                Operator::Max,
                Operator::Sum,
                Operator::Mean,
                Operator::Median,
                Operator::Percentile { p },
            ];
            for op in admitted {
                prop_assert!(op.idempotent(), "{:?}", op);
                let once = op.apply(&u);
                prop_assert_eq!(once.len(), 1, "{:?}", op);
                prop_assert_eq!(bits(&op.apply(&once)), bits(&once), "{:?} of {:?}", op, u);
            }
        }
    }

    /// The predicate admits exactly the six, and each refused operator
    /// has a unit that shows why: its one value reduces to another, or
    /// it emits many values.
    #[test]
    fn refused_operators_have_witnesses() {
        let admitted = ALL.iter().filter(|op| op.idempotent()).count();
        assert_eq!(admitted, 6);
        for op in ALL.iter().filter(|op| !op.idempotent()) {
            let witness: &[f64] = match op {
                Operator::Histogram { .. } => &[1.0],
                _ => &[1.0, 3.0],
            };
            let once = op.apply(witness);
            let shown = once.len() != 1 || bits(&op.apply(&once)) != bits(&once);
            assert!(shown, "{op:?}: {witness:?} → {once:?} reduces to itself");
        }
    }

    #[test]
    fn mean_median_of_known_values() {
        assert_eq!(Operator::Mean.apply(&[1.0, 2.0, 3.0, 4.0]), vec![2.5]);
        assert_eq!(Operator::Median.apply(&[5.0, 1.0, 3.0]), vec![3.0]);
        assert_eq!(Operator::Median.apply(&[4.0, 1.0, 3.0, 2.0]), vec![2.5]);
    }

    #[test]
    fn min_max_sum_count() {
        let vs = [3.0, -1.0, 7.5];
        assert_eq!(Operator::Min.apply(&vs), vec![-1.0]);
        assert_eq!(Operator::Max.apply(&vs), vec![7.5]);
        assert_eq!(Operator::Sum.apply(&vs), vec![9.5]);
        assert_eq!(Operator::Count.apply(&vs), vec![3.0]);
    }

    #[test]
    fn filter_keeps_only_exceeding() {
        let op = Operator::Filter { threshold: 2.0 };
        assert_eq!(op.apply(&[1.0, 2.0, 3.0, 4.0]), vec![3.0, 4.0]);
        assert_eq!(op.apply(&[1.0]), Vec::<f64>::new());
    }

    #[test]
    fn sort_values_orders() {
        assert_eq!(
            Operator::SortValues.apply(&[3.0, 1.0, 2.0]),
            vec![1.0, 2.0, 3.0]
        );
    }

    #[test]
    fn empty_unit_emits_nothing() {
        for op in [Operator::Mean, Operator::Median, Operator::Sum] {
            assert!(op.apply(&[]).is_empty());
        }
    }

    #[test]
    fn distributivity_classification() {
        assert!(Operator::Sum.is_distributive());
        assert!(Operator::Max.is_distributive());
        assert!(!Operator::Median.is_distributive());
        assert!(!Operator::Mean.is_distributive()); // mean of means is wrong
    }

    #[test]
    fn single_valuedness() {
        assert!(Operator::Mean.single_valued());
        assert!(!Operator::Filter { threshold: 0.0 }.single_valued());
        assert!(!Operator::SortValues.single_valued());
    }

    #[test]
    fn variance_stddev_range() {
        let vs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(Operator::Variance.apply(&vs), vec![4.0]);
        assert_eq!(Operator::StdDev.apply(&vs), vec![2.0]);
        assert_eq!(Operator::Range.apply(&vs), vec![7.0]);
    }

    #[test]
    fn count_above_counts_strictly() {
        let op = Operator::CountAbove { threshold: 4.0 };
        assert_eq!(op.apply(&[2.0, 4.0, 5.0, 9.0]), vec![2.0]);
        assert_eq!(op.apply(&[1.0]), vec![0.0]);
    }

    #[test]
    fn percentile_nearest_rank() {
        let vs = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(Operator::Percentile { p: 30.0 }.apply(&vs), vec![20.0]);
        assert_eq!(Operator::Percentile { p: 100.0 }.apply(&vs), vec![50.0]);
        assert_eq!(Operator::Percentile { p: 0.0 }.apply(&vs), vec![15.0]);
        // p=50 nearest-rank equals the lower median.
        assert_eq!(Operator::Percentile { p: 50.0 }.apply(&vs), vec![35.0]);
    }

    #[test]
    fn histogram_bins_and_clamps() {
        let op = Operator::Histogram {
            lo: 0.0,
            hi: 10.0,
            buckets: 5,
        };
        let counts = op.apply(&[-1.0, 0.0, 1.9, 2.0, 5.5, 9.99, 10.0, 42.0]);
        // bins: [0,2) [2,4) [4,6) [6,8) [8,10); out-of-range clamps.
        assert_eq!(counts, vec![3.0, 1.0, 1.0, 0.0, 3.0]);
        assert_eq!(
            counts.iter().sum::<f64>(),
            8.0,
            "every value lands somewhere"
        );
        assert!(!op.single_valued());
        assert!(op.apply(&[]).is_empty());
    }

    #[test]
    fn new_operators_are_single_valued_and_holistic() {
        for op in [
            Operator::Variance,
            Operator::StdDev,
            Operator::Range,
            Operator::CountAbove { threshold: 0.0 },
            Operator::Percentile { p: 75.0 },
        ] {
            assert!(op.single_valued(), "{op:?}");
            assert!(!op.is_distributive(), "{op:?}");
            assert!(op.apply(&[]).is_empty(), "{op:?}");
        }
    }

    #[test]
    fn folds_are_the_std_folds_bit_for_bit() {
        // Signed zeros, and a sum whose order shows in its bits.
        let runs: [&[f64]; 6] = [
            &[],
            &[-0.0],
            &[0.0, -0.0],
            &[-0.0, 0.0],
            &[1e16, 1.0, -1e16, 0.1],
            &[-1e16, 0.1, 1e16, 1.0, -0.0],
        ];
        let bits = |v: f64| v.to_bits();
        for run in runs {
            let values = run.iter().copied();
            let sum: f64 = run.iter().sum();
            let min = values.clone().fold(f64::INFINITY, f64::min);
            let max = values.fold(f64::NEG_INFINITY, f64::max);
            for (op, want) in [
                (Operator::Sum, sum),
                (Operator::Min, min),
                (Operator::Max, max),
            ] {
                // An empty unit emits nothing; its fold is the identity.
                let got = match op.apply(run)[..] {
                    [] => op.fold().unwrap().identity(),
                    [v] => v,
                    _ => panic!("{op:?} folds to one value"),
                };
                assert_eq!(bits(got), bits(want), "{op:?} of {run:?}");
            }
        }
    }

    #[test]
    fn combiner_is_lossless_for_distributive_ops() {
        // Folding partial groups map-side with `reduce_group`, then
        // reducing the folds, equals reducing the whole group.
        let all = [4.0, -2.0, 9.0, 3.5, 0.0, 7.0];
        for op in [Operator::Min, Operator::Max, Operator::Sum] {
            let mut combined = Vec::new();
            for part in [&all[..3], &all[3..]] {
                op.reduce_group(&mut part.to_vec(), &mut |v| combined.push(v));
            }
            assert_eq!(combined.len(), 2, "{op:?} folds each part to one value");
            assert_eq!(op.apply(&combined), op.apply(&all), "{op:?}");
        }
    }
}
