//! Time-series kernels.
//!
//! The paper's §7 names time-series analysis as the first future-work
//! task ("a common EDA task in finance, e.g. stock price analysis"); this
//! module provides the kernels behind the `plot_timeseries` extension in
//! `eda-core`: time-ordered resampling, rolling means, and the
//! autocorrelation function.

/// Mean-aggregate `(t, v)` points into `buckets` equal-width time bins.
///
/// Returns `(bin_center_times, mean_values)`; empty bins are skipped.
/// Input need not be sorted. NaNs on either side are dropped.
pub fn resample_mean(points: &[(f64, f64)], buckets: usize) -> (Vec<f64>, Vec<f64>) {
    let finite: Vec<(f64, f64)> = points
        .iter()
        .copied()
        .filter(|(t, v)| t.is_finite() && v.is_finite())
        .collect();
    if finite.is_empty() {
        return (Vec::new(), Vec::new());
    }
    let buckets = buckets.max(1);
    let t_min = finite.iter().map(|(t, _)| *t).fold(f64::INFINITY, f64::min);
    let t_max = finite.iter().map(|(t, _)| *t).fold(f64::NEG_INFINITY, f64::max);
    if t_min == t_max {
        let mean = finite.iter().map(|(_, v)| v).sum::<f64>() / finite.len() as f64;
        return (vec![t_min], vec![mean]);
    }
    let width = (t_max - t_min) / buckets as f64;
    // (sum, count) per bucket.
    let mut bins = vec![(0.0, 0usize); buckets];
    for (t, v) in finite {
        let idx = (((t - t_min) / width) as usize).min(buckets - 1);
        if let Some((sum, count)) = bins.get_mut(idx) {
            *sum += v;
            *count += 1;
        }
    }
    let mut times = Vec::new();
    let mut values = Vec::new();
    for (i, &(sum, count)) in bins.iter().enumerate() {
        if count > 0 {
            times.push(t_min + width * (i as f64 + 0.5));
            values.push(sum / count as f64);
        }
    }
    (times, values)
}

/// Centered rolling mean with window `w` (clipped at the edges).
///
/// Output has the same length as the input. NaNs are ignored inside each
/// window; windows that are all-NaN yield NaN.
pub fn rolling_mean(values: &[f64], w: usize) -> Vec<f64> {
    let n = values.len();
    let w = w.max(1);
    let half = w / 2;
    (0..n)
        .map(|i| {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(n);
            let window = values.get(lo..hi).unwrap_or_default();
            let window: Vec<f64> = window.iter().copied().filter(|v| !v.is_nan()).collect();
            if window.is_empty() {
                f64::NAN
            } else {
                window.iter().sum::<f64>() / window.len() as f64
            }
        })
        .collect()
}

/// Sample autocorrelation at lags `1..=max_lag` (lag-0 omitted; it is 1).
///
/// Uses the standard biased estimator `r_k = c_k / c_0`. Returns an empty
/// vector when the series is too short or constant.
pub fn acf(values: &[f64], max_lag: usize) -> Vec<f64> {
    let xs: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
    let n = xs.len();
    if n < 3 {
        return Vec::new();
    }
    let mean = xs.iter().sum::<f64>() / n as f64;
    let c0: f64 = xs.iter().map(|v| (v - mean) * (v - mean)).sum();
    if c0 <= 0.0 {
        return Vec::new();
    }
    let max_lag = max_lag.min(n - 2).max(1);
    (1..=max_lag)
        .map(|k| {
            let lagged = xs.iter().zip(xs.iter().skip(k));
            let ck: f64 = lagged.map(|(a, b)| (a - mean) * (b - mean)).sum();
            ck / c0
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resample_means_per_bucket() {
        let pts = vec![(0.0, 1.0), (1.0, 3.0), (10.0, 5.0), (11.0, 7.0)];
        let (ts, vs) = resample_mean(&pts, 2);
        assert_eq!(ts.len(), 2);
        assert!((vs[0] - 2.0).abs() < 1e-12);
        assert!((vs[1] - 6.0).abs() < 1e-12);
        assert!(ts[0] < ts[1]);
    }

    #[test]
    fn resample_skips_empty_buckets() {
        let pts = vec![(0.0, 1.0), (100.0, 2.0)];
        let (ts, vs) = resample_mean(&pts, 10);
        assert_eq!(ts.len(), 2);
        assert_eq!(vs, vec![1.0, 2.0]);
    }

    #[test]
    fn resample_degenerate() {
        assert_eq!(resample_mean(&[], 5).0.len(), 0);
        let (ts, vs) = resample_mean(&[(3.0, 1.0), (3.0, 3.0)], 5);
        assert_eq!(ts, vec![3.0]);
        assert_eq!(vs, vec![2.0]);
        // NaNs dropped.
        let (ts, _) = resample_mean(&[(f64::NAN, 1.0), (1.0, 2.0)], 2);
        assert_eq!(ts.len(), 1);
    }

    #[test]
    fn rolling_mean_smooths() {
        let vals = vec![0.0, 10.0, 0.0, 10.0, 0.0];
        let rm = rolling_mean(&vals, 3);
        assert_eq!(rm.len(), 5);
        // Interior points average their neighbours.
        assert!((rm[2] - 20.0 / 3.0).abs() < 1e-12);
        // Edges use clipped windows.
        assert!((rm[0] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn rolling_mean_window_one_is_identity() {
        let vals = vec![1.0, 2.0, 3.0];
        assert_eq!(rolling_mean(&vals, 1), vals);
    }

    #[test]
    fn rolling_mean_ignores_nans() {
        let vals = vec![1.0, f64::NAN, 3.0];
        let rm = rolling_mean(&vals, 3);
        assert!((rm[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn acf_of_periodic_signal_peaks_at_period() {
        let period = 8;
        let vals: Vec<f64> = (0..160)
            .map(|i| (std::f64::consts::TAU * i as f64 / period as f64).sin())
            .collect();
        let r = acf(&vals, 16);
        assert_eq!(r.len(), 16);
        // Strong positive autocorrelation at the period lag...
        assert!(r[period - 1] > 0.8, "acf[{period}] = {}", r[period - 1]);
        // ...and strong negative at half the period.
        assert!(r[period / 2 - 1] < -0.8);
    }

    #[test]
    fn acf_of_alternating_signal() {
        let vals: Vec<f64> = (0..100).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let r = acf(&vals, 2);
        assert!(r[0] < -0.9);
        assert!(r[1] > 0.9);
    }

    #[test]
    fn acf_degenerate() {
        assert!(acf(&[1.0, 2.0], 5).is_empty());
        assert!(acf(&[3.0; 50], 5).is_empty());
    }

    #[test]
    fn acf_values_bounded() {
        let vals: Vec<f64> = (0..200).map(|i| ((i * 37) % 23) as f64).collect();
        for r in acf(&vals, 20) {
            assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
        }
    }
}
