//! Order statistics over timing samples.
//!
//! Every timing the benchmark prints is a median; tails are reported at the
//! highest percentile that still has at least [`MIN_TAIL_SAMPLES`] samples
//! beyond it, so a "p99" is never the maximum of a short run in disguise.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Percentiles a tail may be reported at, ascending, each with the share of
/// samples beyond it as "one in N" (kept as an integer so that the rule is
/// exact: 10 000 samples do support p99.9).
const TAIL_LADDER: [(f64, usize); 5] = [
    (50.0, 2),
    (90.0, 10),
    (99.0, 100),
    (99.9, 1_000),
    (99.99, 10_000),
];

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_TAIL_SAMPLES`] of `n` samples beyond it; `None` when even the
/// median has fewer (n < 20).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .find(|&&(_, one_in)| n >= MIN_TAIL_SAMPLES * one_in)
        .map(|&(p, _)| p)
}

/// The percentile a metric named after `wanted` (e.g. 99.0 for `*_p99_*`)
/// is actually computed at for `n` samples: `wanted`, lowered to what
/// [`tail_percentile`] supports. Short (`--quick`) runs are the only ones
/// that lower it, and their output is flagged non-comparable.
pub fn supported_percentile(n: usize, wanted: f64) -> f64 {
    tail_percentile(n).map_or(50.0, |p| p.min(wanted))
}

/// Nearest-rank percentile of an ascending-sorted slice (`p` in 0..=100).
///
/// # Panics
///
/// Panics on an empty slice: every caller has checked its sample count.
pub fn percentile_sorted<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (mean of the two middle values for an even count).
/// Sorts the slice in place.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// First quartile, median and third quartile of `values`, by the rule of
/// Python's `statistics.quantiles(values, n=4)` (exclusive method) — the rule
/// the acceptance check of this benchmark is stated in. Needs two values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let cut = |i: usize| {
        // Position i * (n + 1) / 4 in 1-based ranks, linearly interpolated
        // and clamped to the sample range.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

/// Median of ascending-sorted integer samples, interpolated inside the
/// 1-wide bin the median falls into by the share of the bin's samples that
/// lie below the middle rank (Python's `statistics.median_grouped`). A
/// nanosecond clock puts thousands of samples on the same integer; this keeps
/// the digits the tie would otherwise hide.
pub fn median_grouped(sorted: &[u32]) -> f64 {
    assert!(!sorted.is_empty(), "median of no samples");
    let x = sorted[sorted.len() / 2];
    let below = sorted.partition_point(|&v| v < x);
    let same = sorted.partition_point(|&v| v <= x) - below;
    f64::from(x) - 0.5 + (sorted.len() as f64 / 2.0 - below as f64) / same as f64
}

/// Sorts `samples` and returns `(median, tail)`: the [`median_grouped`] and
/// the tail at [`supported_percentile`] of `wanted_tail`.
pub fn p50_and_tail(samples: &mut [u32], wanted_tail: f64) -> (f64, u32) {
    samples.sort_unstable();
    let tail = supported_percentile(samples.len(), wanted_tail);
    (median_grouped(samples), percentile_sorted(samples, tail))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
    }

    #[test]
    fn a_named_p99_is_lowered_only_when_the_run_is_too_short() {
        assert_eq!(supported_percentile(50_000, 99.0), 99.0);
        assert_eq!(supported_percentile(1_000, 99.0), 99.0);
        assert_eq!(supported_percentile(500, 99.0), 90.0);
        assert_eq!(supported_percentile(5, 99.0), 50.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50);
        assert_eq!(percentile_sorted(&v, 99.0), 99);
        assert_eq!(percentile_sorted(&v, 100.0), 100);
        assert_eq!(percentile_sorted(&v, 0.0), 1);
        assert_eq!(percentile_sorted(&[7u32], 99.0), 7);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn grouped_median_matches_python_median_grouped() {
        // statistics.median_grouped([1, 2, 2, 3, 4, 4, 4, 4, 4, 5]) == 3.7
        assert_eq!(median_grouped(&[1, 2, 2, 3, 4, 4, 4, 4, 4, 5]), 3.7);
        // statistics.median_grouped([1, 3, 3, 5, 7]) == 3.25
        assert_eq!(median_grouped(&[1, 3, 3, 5, 7]), 3.25);
        // All samples on one integer: the middle of its bin.
        assert_eq!(median_grouped(&[52, 52, 52, 52]), 52.0);
        assert_eq!(median_grouped(&[9]), 9.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }
}
