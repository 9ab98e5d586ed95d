//! Percentiles, medians and run-to-run spread.

/// A p99 is reported only from at least this many samples: ten times the
/// ten-samples-beyond rule, because tail latency on a two-core box is set
/// by scheduling noise.
pub const P99_MIN_SAMPLES: usize = 2000;

/// Nearest-rank percentile of an ascending slice (`0 < p <= 100`).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The p99 of an ascending slice, or `None` below [`P99_MIN_SAMPLES`].
pub fn p99(sorted: &[u64]) -> Option<u64> {
    (sorted.len() >= P99_MIN_SAMPLES).then(|| percentile(sorted, 99.0))
}

/// Median of unordered values (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Distance between the first and third quartile as a share of the median —
/// quartiles as Python's `statistics.quantiles(values, n=4)` computes them.
/// `None` for fewer than two values or a zero median.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quartile = |k: usize| {
        // Exclusive method: position k(n+1)/4 on a 1-based scale; like
        // Python, the ends extrapolate instead of clamping.
        let pos = k * (v.len() + 1);
        let j = (pos / 4).clamp(1, v.len() - 1);
        let frac = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    let m = median(&v);
    (m != 0.0).then(|| (quartile(3) - quartile(1)) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[7], 50.0), 7);
        assert_eq!(percentile(&[1, 2, 3], 50.0), 2);
        assert_eq!(percentile(&[1, 2, 3, 4], 50.0), 2);
    }

    #[test]
    fn p99_needs_two_thousand_samples() {
        let short: Vec<u64> = (0..1999).collect();
        assert_eq!(p99(&short), None);
        let enough: Vec<u64> = (0..2000).collect();
        assert_eq!(p99(&enough), Some(1979));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartile_spread_matches_python_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = quartile_spread(&v).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{s}");
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = quartile_spread(&[1.0, 2.0]).unwrap();
        assert!((s - 1.0).abs() < 1e-12, "{s}");
        assert_eq!(quartile_spread(&[5.0]), None);
        assert_eq!(quartile_spread(&[0.0, 0.0, 0.0]), None);
    }
}
