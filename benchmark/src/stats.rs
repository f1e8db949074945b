//! Order statistics the benchmark reports: medians, the highest honest
//! tail percentile, and the quartile spread the acceptance rule uses.

/// Median of `values` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice so a metric is always a number.
pub fn median(values: &[f64]) -> f64 {
    median_mut(&mut values.to_vec())
}

/// [`median`] without the copy: sorts `v` in place.
pub fn median_mut(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 1) of an ascending-sorted slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Whether percentile `p` of `n` samples has at least ten samples beyond
/// it — the rule for reporting a tail at all.
pub fn percentile_supported(n: usize, p: f64) -> bool {
    (n as f64 * (1.0 - p)).floor() >= 10.0
}

/// The 99th percentile when it has ten samples beyond it, else the highest
/// of 95 / 90 / 75 / 50 that does. Returns `(p, value)`.
pub fn tail_percentile(sorted: &[f64]) -> (f64, f64) {
    for p in [0.99, 0.95, 0.90, 0.75] {
        if percentile_supported(sorted.len(), p) {
            return (p, percentile_sorted(sorted, p));
        }
    }
    (0.5, percentile_sorted(sorted, 0.5))
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the default "exclusive" method) — the acceptance rule is stated in
/// those terms, so `noise` must compute the same numbers.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    let n = 4usize;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * (m + 1) / n).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * n) as f64;
        *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    out
}

/// Inter-quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 50.0);
        assert_eq!(percentile_sorted(&v, 0.99), 99.0);
        assert_eq!(percentile_sorted(&v, 1.0), 100.0);
        assert_eq!(percentile_sorted(&v[..1], 0.99), 1.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert!(percentile_supported(1000, 0.99));
        assert!(!percentile_supported(999, 0.99));
        assert!(percentile_supported(200, 0.95));
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        // 999 samples: p99 would leave only 9 beyond it, p95 leaves 49.
        assert_eq!(tail_percentile(&v).0, 0.95);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), (0.99, 990.0));
        // Too few for any tail: fall back to the median.
        assert_eq!(tail_percentile(&v[..15]).0, 0.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 2, 7, 4, 9], n=4) == [3.0, 7.0, 9.5]
        assert_eq!(quartiles(&[10.0, 2.0, 7.0, 4.0, 9.0]), [3.0, 7.0, 9.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
