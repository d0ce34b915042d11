//! Order statistics for the reported timings.

/// The `p`-th percentile (0–100) with linear interpolation between
/// order statistics; `samples` need not be sorted. Empty input is 0.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, p)
}

pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The interquartile mean: the mean of what is left after dropping the
/// lowest and the highest quarter of the samples. As robust to a slow
/// outlier as the median, but it moves smoothly where the median jumps
/// — between the two modes of a bimodal sample such as `fleet-tiny`'s
/// first-keyblock times, which sit on either side of a dispatch tick.
pub fn midmean(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let drop = sorted.len() / 4;
    let middle = &sorted[drop..sorted.len() - drop];
    if middle.is_empty() {
        return 0.0;
    }
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Percentiles a tail may be reported at, ascending.
const TAIL_LADDER: &[u32] = &[75, 90, 95, 99];

/// The highest percentile of the ladder that still has at least ten
/// of the `n` samples beyond it, or `None` when even p75 has fewer —
/// then the median is all that can honestly be reported.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .find(|&&p| n * (100 - p as usize) >= 10 * 100)
        .map(|&p| f64::from(p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
    }

    #[test]
    fn midmean_drops_a_quarter_from_each_end() {
        // Eight samples: the two lowest and two highest go.
        let xs = [1000.0, 3.0, 1.0, 4.0, 2.0, 5.0, 6.0, -50.0];
        assert_eq!(midmean(&xs), (2.0 + 3.0 + 4.0 + 5.0) / 4.0);
        assert_eq!(midmean(&[7.0, 9.0]), 8.0);
        assert_eq!(midmean(&[]), 0.0);
    }

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let xs = [40.0, 10.0, 30.0, 20.0];
        assert_eq!(percentile(&xs, 0.0), 10.0);
        assert_eq!(percentile(&xs, 50.0), 25.0);
        assert_eq!(percentile(&xs, 100.0), 40.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }
}
