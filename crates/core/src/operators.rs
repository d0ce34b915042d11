//! Query operators applied to each extraction instance.
//!
//! The paper's example queries (§2.2, §4.1): weekly averages, medians
//! over multi-day regions, threshold filters, per-unit sorts. Each
//! operator consumes the complete value list of one intermediate key
//! — MapReduce guarantee 2 (§2.3) makes that safe — and emits one or
//! more output values. The group is handed over mutably, and the
//! holistic operators (median, percentile, sort) reorder it in place
//! rather than sorting a copy: a linear-time selection per key instead
//! of an allocation and a full sort. Where a map finishes many small
//! units of one size, its `Finisher` selects Median and Percentile for
//! a block of units at once with one comparator network.

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
    /// [`Operator::apply`] call it, and the map kernel
    /// ([`crate::geomap`]) builds on it: it steps a distributive
    /// operator's same `Fold`, and it finishes each unit a split holds
    /// whole through a `Finisher`, which calls this function, or,
    /// for a Median or Percentile of a small unit, selects the same
    /// `ranks` with a comparator network that gives this function's
    /// value bit for bit.
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
            Operator::Median | Operator::Percentile { .. } => {
                let (lo, hi) = self.ranks(n).expect("a selecting operator");
                let v = select_rank(values, hi);
                if lo == hi {
                    emit(v)
                } else {
                    // `select_rank` left every value of rank < hi before
                    // index hi, so rank lo = hi − 1 is the greatest of
                    // those.
                    emit((select_rank(&mut values[..hi], lo) + v) / 2.0)
                }
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

    /// The ranks a selecting operator emits, in a stable ascending sort
    /// of a unit of `n ≥ 1` values: `(lo, hi)`, one rank when they are
    /// equal, and otherwise a median's two middle ranks, whose values
    /// it averages. `None` for an operator that selects no rank.
    fn ranks(&self, n: usize) -> Option<(usize, usize)> {
        match *self {
            Operator::Median if n % 2 == 1 => Some((n / 2, n / 2)),
            Operator::Median => Some((n / 2 - 1, n / 2)),
            Operator::Percentile { p } => {
                // Nearest rank; `p` is clamped to [0, 100].
                let p = p.clamp(0.0, 100.0);
                let rank = ((p / 100.0) * n as f64).ceil() as usize;
                Some((rank.max(1) - 1, rank.max(1) - 1))
            }
            _ => None,
        }
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

/// Units a [`Finisher`]'s network finishes at once: one lane each.
const LANES: usize = 16;

/// Comparators per unit value a pruned network may cost and still beat
/// a selection per unit. Measured on 2 vCPUs (x86-64 baseline target)
/// over random Median and Percentile units, against
/// [`Operator::reduce_group`] per unit: the network took 0.43× its
/// time at n = 35 (5.9 comparators per value) and 0.83–0.91× at
/// n = 127 (8.2–9.5), tied at n = 129 (10.4) and lost from there
/// (1.29× at n = 255, 11.0). So the cut falls at n = 128.
const BUDGET: usize = 10;

/// Largest unit a network is built for: past the budget's cut, so a
/// larger unit's network, which would cost more, is not even built.
const MAX_NETWORK: usize = 256;

/// The map kernel's finish step for units of one size `n`: reduces a
/// block of units, laid out in lanes, to one value per unit, each
/// bit for bit [`Operator::reduce_group`]'s.
///
/// A block holds `width ≤ lanes()` units, value `j` of unit `l` at
/// `j·width + l`. Median and Percentile, while their network costs at
/// most [`BUDGET`] comparators per value, run [`LANES`] units at a
/// time: Batcher's odd–even merge sort for the next power of two at or
/// above `n`, every comparator that touches an index ≥ `n` dropped
/// (as if those held +∞), and then pruned backwards to the comparators
/// the wanted ranks depend on. Each comparator is a branch-free min
/// and max across the lanes, selected by the mask of `a < b`. On
/// NaN-free values where no unit holds both +0.0 and −0.0, that picks
/// one input bit for bit and values that compare equal have equal
/// bits, so rank `k` of the network is rank `k` of the stable sort. A
/// unit holding both zeros goes through [`Operator::reduce_group`] on
/// its values in their order, and a NaN anywhere in a block panics,
/// as the reduce does. Every other case has one lane, and the block is
/// the unit itself, which [`Operator::reduce_group`] reduces.
pub(crate) struct Finisher {
    operator: Operator,
    n: usize,
    /// The network's comparators `(a, b)`, `a < b`, in order; empty
    /// when the finisher has one lane.
    network: Vec<(u16, u16)>,
    ranks: (usize, usize),
    lanes: usize,
    /// One block's values, a row per rank position.
    rows: Vec<[f64; LANES]>,
}

impl Finisher {
    /// The finisher of `operator`'s units of `n ≥ 1` values.
    pub(crate) fn new(operator: Operator, n: usize) -> Self {
        let mut finisher = Finisher {
            operator,
            n,
            network: Vec::new(),
            ranks: (0, 0),
            lanes: 1,
            rows: Vec::new(),
        };
        if let Some(ranks) = operator.ranks(n).filter(|_| n <= MAX_NETWORK) {
            let network = selection_network(n, ranks);
            if network.len() <= BUDGET * n {
                finisher.network = network;
                finisher.ranks = ranks;
                finisher.lanes = LANES;
                finisher.rows = vec![[0.0; LANES]; n];
            }
        }
        finisher
    }

    /// Units to a block.
    pub(crate) fn lanes(&self) -> usize {
        self.lanes
    }

    /// Reduces the `width` units of `block` (`n · width` values, value
    /// `j` of unit `l` at `j·width + l`) and writes unit `l`'s value to
    /// `block[l]`.
    pub(crate) fn finish(&mut self, block: &mut [f64], width: usize) {
        debug_assert!(width >= 1 && width <= self.lanes && block.len() == self.n * width);
        if self.lanes == 1 {
            let mut value = 0.0;
            self.operator.reduce_group(block, &mut |v| value = v);
            block[0] = value;
            return;
        }
        let (mut nan, mut pos_zero, mut neg_zero) = (false, false, false);
        for &v in block.iter() {
            nan |= v.is_nan();
            pos_zero |= v.to_bits() == 0.0f64.to_bits();
            neg_zero |= v.to_bits() == (-0.0f64).to_bits();
        }
        assert!(!nan, "no NaNs in datasets");
        for (row, values) in self.rows.iter_mut().zip(block.chunks_exact(width)) {
            row[..width].copy_from_slice(values);
        }
        for &(a, b) in &self.network {
            let (head, tail) = self.rows.split_at_mut(usize::from(b));
            let (a, b) = (&mut head[usize::from(a)], &mut tail[0]);
            for (x, y) in a.iter_mut().zip(b.iter_mut()) {
                // `p < q` as a mask, so the select vectorises where
                // an `if` would branch.
                let (p, q) = (x.to_bits(), y.to_bits());
                let less = u64::from(f64::from_bits(p) < f64::from_bits(q)).wrapping_neg();
                *x = f64::from_bits(p & less | q & !less);
                *y = f64::from_bits(q & less | p & !less);
            }
        }
        let (lo, hi) = self.ranks;
        let mut values = [0.0; LANES];
        for (l, value) in values[..width].iter_mut().enumerate() {
            let unit = || block[l..].iter().step_by(width).copied();
            let holds = |zero: f64| unit().any(|v| v.to_bits() == zero.to_bits());
            *value = if pos_zero && neg_zero && holds(0.0) && holds(-0.0) {
                let mut value = 0.0;
                (self.operator).reduce_group(&mut unit().collect::<Vec<_>>(), &mut |v| value = v);
                value
            } else if lo == hi {
                self.rows[hi][l]
            } else {
                (self.rows[lo][l] + self.rows[hi][l]) / 2.0
            };
        }
        block[..width].copy_from_slice(&values[..width]);
    }
}

/// The comparators that select `ranks` from `n` values: Batcher's
/// odd–even merge sort for the next power of two, without the
/// comparators that touch an index ≥ `n`, pruned backwards to the
/// cone of `ranks`. `n` is at most [`MAX_NETWORK`].
fn selection_network(n: usize, (lo, hi): (usize, usize)) -> Vec<(u16, u16)> {
    let size = n.next_power_of_two();
    let mut sort = Vec::new();
    let mut p = 1;
    while p < size {
        let mut k = p;
        while k >= 1 {
            for j in (k % p..size - k).step_by(2 * k) {
                for i in 0..k.min(size - j - k) {
                    let (a, b) = (i + j, i + j + k);
                    if a / (2 * p) == b / (2 * p) && b < n {
                        sort.push((a as u16, b as u16));
                    }
                }
            }
            k /= 2;
        }
        p *= 2;
    }
    let mut needed = vec![false; n];
    (needed[lo], needed[hi]) = (true, true);
    let mut cone: Vec<(u16, u16)> = (sort.into_iter().rev())
        .filter(|&(a, b)| {
            let (a, b) = (usize::from(a), usize::from(b));
            let keep = needed[a] || needed[b];
            (needed[a], needed[b]) = (needed[a] || keep, needed[b] || keep);
            keep
        })
        .collect();
    cone.reverse();
    cone
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

    /// Each rank set a finisher asks for over units of up to 20
    /// values: Median at odd and even `n`, and Percentile at 0, 30, 50,
    /// 75 and 100.
    fn selections(n: usize) -> Vec<Operator> {
        let mut ops = vec![Operator::Median];
        ops.extend([0.0, 30.0, 50.0, 75.0, 100.0].map(|p| Operator::Percentile { p }));
        ops.retain(|op| op.ranks(n).is_some());
        ops
    }

    /// By the 0–1 principle, a comparator network selects rank `k` of
    /// every input if it does of every 0/1 input. Every `n` in 1..=20,
    /// all 2ⁿ 0/1 inputs, 64 to a word: input `base + t` is bit `t`,
    /// and a comparator is `&` (min) and `|` (max). Rank `k` of a 0/1
    /// input with `ones` ones is 1 exactly when `k ≥ n − ones`.
    #[test]
    fn pruned_networks_select_their_ranks_on_every_zero_one_input() {
        let ones: Vec<usize> = (0..64u32).map(|t| t.count_ones() as usize).collect();
        for n in 1..=20 {
            for op in selections(n) {
                let finisher = Finisher::new(op, n);
                assert_eq!(finisher.lanes(), LANES, "{op:?} at n = {n}");
                let (lo, hi) = finisher.ranks;
                let inputs = 1u64 << n;
                let mask = if inputs >= 64 { !0 } else { (1 << inputs) - 1 };
                for base in (0..inputs).step_by(64) {
                    let mut w: Vec<u64> = (0..n)
                        .map(|i| match i {
                            0..6 => (0..64).fold(0, |w, t| w | ((t >> i) & 1) << t),
                            _ => ((base >> i) & 1).wrapping_neg(),
                        })
                        .collect();
                    for &(a, b) in &finisher.network {
                        let (a, b) = (usize::from(a), usize::from(b));
                        (w[a], w[b]) = (w[a] & w[b], w[a] | w[b]);
                    }
                    let base_ones = base.count_ones() as usize;
                    for k in [lo, hi] {
                        let want = (0..64).fold(0u64, |want, t| {
                            want | u64::from(k + base_ones + ones[t] >= n) << t
                        });
                        assert_eq!(
                            w[k] & mask,
                            want & mask,
                            "{op:?}, n {n}, rank {k}, base {base}"
                        );
                    }
                }
            }
        }
    }

    /// The cut: Median and Percentile run a network of [`LANES`] lanes
    /// up to n = 128 and finish one unit at a time past it, as every
    /// other operator does at any `n`.
    #[test]
    fn networks_stop_at_the_budget() {
        let p90 = Operator::Percentile { p: 90.0 };
        for (op, n, lanes) in [
            (Operator::Median, 1, LANES),
            (Operator::Median, 128, LANES),
            (Operator::Median, 129, 1),
            (p90, 128, LANES),
            (Operator::Median, 25_920, 1),
            (Operator::Mean, 35, 1),
        ] {
            assert_eq!(Finisher::new(op, n).lanes(), lanes, "{op:?} at n = {n}");
        }
        let full = selection_network(35, (17, 17)).len();
        assert!(
            full < 262,
            "the median cone of 35 is pruned: {full} comparators"
        );
    }

    /// A NaN in any lane of a block, full or partial, panics as the
    /// reduce's does.
    #[test]
    fn a_nan_in_any_lane_panics() {
        for width in [LANES, 5] {
            for lane in 0..width {
                let caught = std::panic::catch_unwind(|| {
                    let mut block: Vec<f64> = (0..35 * width).map(|i| i as f64).collect();
                    block[17 * width + lane] = f64::NAN;
                    Finisher::new(Operator::Median, 35).finish(&mut block, width);
                });
                let why = caught.expect_err("a NaN panics");
                let why = why.downcast_ref::<&str>().copied().unwrap_or_default();
                assert_eq!(why, "no NaNs in datasets", "width {width}, lane {lane}");
            }
        }
    }

    /// A block of `width` units of `n` values for a finisher: duplicates,
    /// ±1e16 beside small values, and zeros. Each lane holds only
    /// +0.0, only −0.0, or both.
    fn block() -> impl Strategy<Value = (Operator, usize, usize, Vec<f64>)> {
        let op = (any::<bool>(), 0u64..=1000).prop_map(|(median, tenths)| match median {
            true => Operator::Median,
            false => Operator::Percentile {
                p: tenths as f64 / 10.0,
            },
        });
        (op, 1usize..=160, 1usize..=LANES, any::<u64>()).prop_map(|(op, n, width, seed)| {
            let width = width.min(Finisher::new(op, n).lanes());
            let mut rng = rand::SplitMix64::seed_from_u64(seed);
            let zeros: Vec<u64> = (0..width).map(|_| rng.next_u64() % 3).collect();
            let values = (0..n * width)
                .map(|i| match rng.next_u64() % 7 {
                    0 => match zeros[i % width] {
                        0 => 0.0,
                        1 => -0.0,
                        _ if rng.next_u64().is_multiple_of(2) => 0.0,
                        _ => -0.0,
                    },
                    1 => 1e16,
                    2 => -1e16,
                    3 => 1.5,
                    4 => (rng.next_u64() % 11) as f64 - 5.0,
                    _ => (rng.next_u64() % 20_000) as f64 / 100.0 - 100.0,
                })
                .collect();
            (op, n, width, values)
        })
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

        /// A finisher gives each lane of a block `reduce_group`'s value
        /// of that lane's unit, in its order, bit for bit: full and
        /// partial blocks, on both sides of the network's cut.
        #[test]
        fn finisher_equals_reduce_group_per_lane((op, n, width, values) in block()) {
            let mut finished = values.clone();
            Finisher::new(op, n).finish(&mut finished, width);
            for (l, got) in finished[..width].iter().enumerate() {
                let unit: Vec<f64> = values[l..].iter().step_by(width).copied().collect();
                let want = op.apply(&unit);
                prop_assert_eq!(got.to_bits(), want[0].to_bits(), "{:?} lane {} of {:?}", op, l, unit);
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
