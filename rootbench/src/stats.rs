//! Order statistics over small samples: every end-to-end figure the
//! benchmark prints is a median with its range.

/// Sorted copy; the inputs are times and counts, never NaN.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Quantile `q` in `[0, 1]` by linear interpolation between order
/// statistics: the workspace's own helper (NaN for an empty sample).
pub use rootless_util::stats::percentile as quantile;

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Smallest value.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Largest value.
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles Python's `statistics.quantiles(values, n=4)` gives
/// (the exclusive method) — the spread figure the benchmark's acceptance
/// rule is stated in. Zero for fewer than two values.
pub fn iqr_share(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let v = sorted(values);
    let m = v.len();
    let quartile = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let mid = median(&v);
    if mid == 0.0 {
        0.0
    } else {
        (quartile(3) - quartile(1)) / mid.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quantile_interpolates_and_clamps() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quantile(&v, 0.0), 10.0);
        assert_eq!(quantile(&v, 1.0), 50.0);
        assert_eq!(quantile(&v, 0.8), 42.0);
        assert_eq!(quantile(&v, 7.0), 50.0);
        assert_eq!((min(&v), max(&v)), (10.0, 50.0));
    }

    #[test]
    fn iqr_share_matches_python_exclusive_quartiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert!((iqr_share(&[4.0, 1.0, 2.0]) - 1.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[5.0]), 0.0);
    }
}
