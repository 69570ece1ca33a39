//! Order statistics the harness reports: medians, nearest-rank
//! percentiles, and the rule that a tail percentile is only quoted when at
//! least ten samples lie beyond it.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Sort a copy of `values` ascending (NaN-free input).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are finite"));
    v
}

/// Median of `values`; 0 for an empty slice (a layer that was never called).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// 1-based nearest-rank index of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` (0 < p ≤ 100); 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let v = sorted(values);
    v[rank(v.len(), p) - 1]
}

/// How many of `n` samples lie strictly beyond the nearest-rank position
/// of percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// The highest percentile of `ladder` with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when even the lowest rung has too few.
pub fn highest_supported(n: usize, ladder: &[f64]) -> Option<f64> {
    ladder
        .iter()
        .copied()
        .filter(|&p| samples_beyond(n, p) >= MIN_BEYOND)
        .fold(None, |best: Option<f64>, p| {
            Some(best.map_or(p, |b| b.max(p)))
        })
}

/// Distance between the first and third quartile as a share of the median,
/// computed the way Python's `statistics.quantiles(values, n=4)` does
/// (exclusive method), which is what the benchmark contract checks.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let q = |k: usize| {
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    let m = median(&v);
    if m == 0.0 {
        0.0
    } else {
        (q(3) - q(1)) / m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // p95 of 200 samples sits at rank 190: exactly ten beyond.
        assert_eq!(samples_beyond(200, 95.0), 10);
        assert_eq!(samples_beyond(199, 95.0), 9);
        let ladder = [50.0, 90.0, 95.0, 99.0];
        assert_eq!(highest_supported(12_000, &ladder), Some(99.0));
        assert_eq!(highest_supported(200, &ladder), Some(95.0));
        assert_eq!(highest_supported(199, &ladder), Some(90.0));
        assert_eq!(highest_supported(36, &ladder), Some(50.0));
        assert_eq!(highest_supported(15, &ladder), None);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0]), 0.0);
    }
}
