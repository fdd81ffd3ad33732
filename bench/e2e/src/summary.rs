//! Order statistics over latency samples.

/// Linearly interpolated percentile (`q` in `0..=1`, the definition numpy
/// and Python's `statistics.quantiles(method="inclusive")` use). `None`
/// when there are no samples.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let last = sorted.len().checked_sub(1)?;
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median, or `0.0` for an empty sample (a metric nothing measured).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sample_has_no_percentile() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 0.9), Some(10.0));
        assert_eq!(percentile(&v, 1.0), Some(11.0));
        // Four samples: rank 0.9 * 3 = 2.7, between 30 and 40.
        let p = percentile(&[40.0, 10.0, 30.0, 20.0], 0.9).unwrap();
        assert!((p - 37.0).abs() < 1e-12);
    }

    #[test]
    fn out_of_range_quantiles_clamp() {
        assert_eq!(percentile(&[1.0, 2.0], -1.0), Some(1.0));
        assert_eq!(percentile(&[1.0, 2.0], 2.0), Some(2.0));
    }
}
