//! Order statistics for the reported figures.

/// Sorts a sample in place (all samples here are finite).
pub fn sort(samples: &mut [f64]) {
    samples.sort_unstable_by(|a, b| a.total_cmp(b));
}

/// 1-based nearest rank of the `p`-th percentile in a sample of `n`:
/// the smallest rank with at least `p` % of the sample at or below it.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending sample (0 when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => sorted[nearest_rank(n, p) - 1],
    }
}

/// How many samples lie strictly beyond the `p`-th percentile's rank. A
/// percentile is reported only with at least [`MIN_BEYOND`] of them, so
/// a handful of outliers cannot be the whole tail.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(nearest_rank(n, p))
}

/// The fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of an unsorted sample (mean of the middle pair when even).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sort(&mut sorted);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Interquartile range as a share of the median, with the quartiles of
/// Python's `statistics.quantiles(values, n=4)` (exclusive method) — the
/// spread the benchmark's acceptance rule is stated in.
pub fn iqr_share(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sort(&mut sorted);
    let n = sorted.len();
    if n < 2 {
        return 0.0;
    }
    let quartile = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let below = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - below as f64;
        sorted[below - 1] + frac * (sorted[below] - sorted[below - 1])
    };
    let mid = median(&sorted);
    if mid == 0.0 {
        0.0
    } else {
        (quartile(3) - quartile(1)) / mid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let sample: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&sample, 50.0), 10.0);
        assert_eq!(percentile(&sample, 95.0), 19.0);
        assert_eq!(percentile(&sample, 100.0), 20.0);
        assert_eq!(percentile(&sample, 0.0), 1.0);
        assert_eq!(percentile(&sample[..1], 95.0), 1.0);
        assert_eq!(percentile(&[], 95.0), 0.0);
        // Nearest rank never interpolates: the value is always a sample.
        assert_eq!(percentile(&[1.0, 100.0], 50.0), 1.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p95 of 200 samples sits at rank 190: exactly ten beyond.
        assert_eq!(samples_beyond(200, 95.0), 10);
        assert!(samples_beyond(199, 95.0) < MIN_BEYOND);
        // Eight passes of the 46-query suite clear the rule…
        assert!(samples_beyond(46 * 8, 95.0) >= MIN_BEYOND);
        // …two quick passes do not, which is why `--quick` is no result.
        assert!(samples_beyond(46 * 2, 95.0) < MIN_BEYOND);
        assert_eq!(samples_beyond(0, 95.0), 0);
    }

    #[test]
    fn median_and_quartile_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&ten) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[7.0; 10]), 0.0);
    }
}
