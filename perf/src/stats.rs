//! Order statistics. Two families, kept apart on purpose:
//!
//! * what a *run* reports — nearest-rank percentiles over its unit times
//!   (always an observed value, never an interpolation);
//! * what the driver computes *across* runs — Python's
//!   `statistics.median` and `statistics.quantiles(values, n=4)`, mirrored
//!   here so `perf aa` and `perf compare` judge with the driver's numbers.

/// Nearest-rank percentile of an unsorted sample: the value at 1-based
/// rank `ceil(pct/100 * n)`. `pct` is clamped to 1..=100.
///
/// # Panics
/// Panics on an empty sample or a NaN.
pub fn percentile(values: &[f64], pct: u32) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in a sample"));
    let pct = pct.clamp(1, 100) as usize;
    let rank = (pct * sorted.len()).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// Nearest-rank median: [`percentile`] at 50.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50)
}

/// [`median`] of integer nanosecond samples.
pub fn median_ns(values: &[u64]) -> f64 {
    median(&values.iter().map(|&v| v as f64).collect::<Vec<_>>())
}

/// Python's `statistics.median`: the middle value, or the mean of the two
/// middle values of an even-sized sample.
pub fn py_median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut s = values.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in a sample"));
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Python's `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method): the first and third quartile. Needs at least two values.
pub fn py_quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut s = values.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in a sample"));
    let ld = s.len();
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median — the driver's
/// "spread" of one end-to-end metric over a set of runs.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = py_quartiles(values);
    (q3 - q1) / py_median(values)
}

/// Range (max − min) as a share of the median.
pub fn range_share(values: &[f64]) -> f64 {
    let max = values.iter().cloned().fold(f64::MIN, f64::max);
    let min = values.iter().cloned().fold(f64::MAX, f64::min);
    (max - min) / py_median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_median_is_an_observed_value() {
        // Even-sized sample: nearest rank picks the lower middle, never
        // the mean of two values nobody measured.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[7.0]), 7.0);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(percentile(&v, 100), 100.0);
        assert_eq!(percentile(&v, 0), 1.0, "pct clamps to the first rank");
        assert_eq!(median_ns(&[30, 10, 20]), 20.0);
    }

    #[test]
    fn python_quartiles_match_the_reference() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = py_quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12, "{q1} {q3}");
        assert!((py_median(&v) - 5.5).abs() < 1e-12);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        assert!((range_share(&v) - 9.0 / 5.5).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(py_quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(py_quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }
}
