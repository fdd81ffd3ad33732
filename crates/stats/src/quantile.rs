//! Exact quantiles and box-plot statistics.
//!
//! Quantiles use the "linear interpolation between closest ranks" method
//! (type 7 in Hyndman–Fan taxonomy, the NumPy/Pandas default), so results
//! line up with what the paper's Python implementation reports.

/// Quantile `q ∈ [0, 1]` of data that is **already sorted ascending**.
///
/// Returns `None` for empty data. NaNs must be filtered out beforehand.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let q = q.clamp(0.0, 1.0);
    let pos = q * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let (&below, &above) = (sorted.get(lo)?, sorted.get(hi)?);
    if lo == hi {
        return Some(below);
    }
    let frac = pos - lo as f64;
    Some(below * (1.0 - frac) + above * frac)
}

/// Sort a copy of `values` (NaNs dropped) ascending.
pub fn sorted_values(values: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| !x.is_nan()).collect();
    v.sort_unstable_by(f64::total_cmp);
    v
}

/// Evaluate several quantiles over unsorted data in one sort.
pub fn quantiles(values: &[f64], qs: &[f64]) -> Vec<Option<f64>> {
    let sorted = sorted_values(values);
    qs.iter().map(|&q| quantile_sorted(&sorted, q)).collect()
}

/// Evaluate a *small* set of quantiles without sorting: each rank the
/// type-7 interpolation touches is placed by `select_nth_unstable_by`
/// over the not-yet-partitioned suffix — O(n·k) for k quantiles instead
/// of O(n log n), a win when k is the handful a five-number summary
/// needs. Results are identical to [`quantiles`].
pub fn quantiles_nth(values: &[f64], qs: &[f64]) -> Vec<Option<f64>> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| !x.is_nan()).collect();
    if v.is_empty() {
        return vec![None; qs.len()];
    }
    let last = (v.len() - 1) as f64;
    let mut ranks: Vec<usize> = Vec::with_capacity(qs.len() * 2);
    for &q in qs {
        let pos = q.clamp(0.0, 1.0) * last;
        ranks.push(pos.floor() as usize);
        ranks.push(pos.ceil() as usize);
    }
    ranks.sort_unstable();
    ranks.dedup();
    // Ascending ranks: once rank r is selected, everything left of it is
    // ≤ v[r], so the next selection only scans the suffix after r. With
    // every rank the interpolation reads in place, [`quantile_sorted`]
    // reads them as if `v` were sorted.
    let mut start = 0usize;
    for &r in &ranks {
        if let Some(rest) = v.get_mut(start..) {
            rest.select_nth_unstable_by(r - start, f64::total_cmp);
        }
        start = r + 1;
    }
    qs.iter().map(|&q| quantile_sorted(&v, q)).collect()
}

/// Tukey box-plot statistics with 1.5·IQR whiskers.
#[derive(Debug, Clone, PartialEq)]
pub struct BoxPlot {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Interquartile range (`q3 - q1`).
    pub iqr: f64,
    /// Smallest value ≥ `q1 - 1.5 IQR`.
    pub whisker_low: f64,
    /// Largest value ≤ `q3 + 1.5 IQR`.
    pub whisker_high: f64,
    /// Values outside the whiskers (at most `max_outliers`, order preserved
    /// from sorted data: low side then high side).
    pub outliers: Vec<f64>,
    /// Total count of outliers, even when `outliers` is truncated.
    pub n_outliers: usize,
    /// Number of data points summarized.
    pub n: usize,
}

impl BoxPlot {
    /// Build from raw values. Returns `None` for empty (or all-NaN) input.
    ///
    /// Quartiles come from [`quantiles_nth`] and the whiskers/outliers
    /// from one linear scan, so this never fully sorts the data — only
    /// the (few) outliers get sorted to keep the same output order as
    /// [`Self::from_sorted`].
    pub fn from_values(values: &[f64], max_outliers: usize) -> Option<BoxPlot> {
        let clean: Vec<f64> = values.iter().copied().filter(|x| !x.is_nan()).collect();
        if clean.is_empty() {
            return None;
        }
        let qs = quantiles_nth(&clean, &[0.25, 0.5, 0.75]);
        let &[Some(q1), Some(median), Some(q3)] = qs.as_slice() else { return None };
        let iqr = q3 - q1;
        let lo_fence = q1 - 1.5 * iqr;
        let hi_fence = q3 + 1.5 * iqr;
        let mut whisker_low = f64::INFINITY;
        let mut whisker_high = f64::NEG_INFINITY;
        let mut outliers = Vec::new();
        for &v in &clean {
            if v < lo_fence || v > hi_fence {
                outliers.push(v);
            } else {
                whisker_low = whisker_low.min(v);
                whisker_high = whisker_high.max(v);
            }
        }
        let n_outliers = outliers.len();
        outliers.sort_unstable_by(f64::total_cmp);
        outliers.truncate(max_outliers);
        Some(BoxPlot {
            q1,
            median,
            q3,
            iqr,
            // The fences always bracket at least one value (they bracket
            // the quartiles), so the whiskers are finite here.
            whisker_low,
            whisker_high,
            outliers,
            n_outliers,
            n: clean.len(),
        })
    }

    /// Build from pre-sorted values (ascending, no NaNs).
    pub fn from_sorted(sorted: &[f64], max_outliers: usize) -> Option<BoxPlot> {
        let (&first, &last) = (sorted.first()?, sorted.last()?);
        let q1 = quantile_sorted(sorted, 0.25)?;
        let median = quantile_sorted(sorted, 0.5)?;
        let q3 = quantile_sorted(sorted, 0.75)?;
        let iqr = q3 - q1;
        let lo_fence = q1 - 1.5 * iqr;
        let hi_fence = q3 + 1.5 * iqr;
        let whisker_low = sorted.iter().copied().find(|&v| v >= lo_fence).unwrap_or(first);
        let whisker_high = sorted.iter().rev().copied().find(|&v| v <= hi_fence).unwrap_or(last);
        let mut outliers = Vec::new();
        let mut n_outliers = 0;
        for &v in sorted {
            if v < lo_fence || v > hi_fence {
                n_outliers += 1;
                if outliers.len() < max_outliers {
                    outliers.push(v);
                }
            }
        }
        Some(BoxPlot {
            q1,
            median,
            q3,
            iqr,
            whisker_low,
            whisker_high,
            outliers,
            n_outliers,
            n: sorted.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_of_empty_is_none() {
        assert_eq!(quantile_sorted(&[], 0.5), None);
    }

    #[test]
    fn quantile_single_value() {
        assert_eq!(quantile_sorted(&[7.0], 0.0), Some(7.0));
        assert_eq!(quantile_sorted(&[7.0], 0.5), Some(7.0));
        assert_eq!(quantile_sorted(&[7.0], 1.0), Some(7.0));
    }

    #[test]
    fn quantile_interpolates_linearly() {
        // numpy.quantile([1,2,3,4], .25) == 1.75
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&s, 0.25), Some(1.75));
        assert_eq!(quantile_sorted(&s, 0.5), Some(2.5));
        assert_eq!(quantile_sorted(&s, 0.75), Some(3.25));
    }

    #[test]
    fn quantile_clamps_q() {
        let s = [1.0, 2.0];
        assert_eq!(quantile_sorted(&s, -1.0), Some(1.0));
        assert_eq!(quantile_sorted(&s, 2.0), Some(2.0));
    }

    #[test]
    fn quantiles_handles_unsorted_and_nan() {
        let out = quantiles(&[3.0, f64::NAN, 1.0, 2.0], &[0.0, 0.5, 1.0]);
        assert_eq!(out, vec![Some(1.0), Some(2.0), Some(3.0)]);
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(quantiles(&[5.0, 1.0, 3.0], &[0.5])[0], Some(3.0));
        assert_eq!(quantiles(&[4.0, 1.0, 3.0, 2.0], &[0.5])[0], Some(2.5));
    }

    #[test]
    fn quantiles_nth_matches_full_sort() {
        // Deterministic pseudo-random data (LCG), including NaNs.
        let mut x = 0x2545_f491u64;
        let vals: Vec<f64> = (0..500)
            .map(|i| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                if i % 37 == 0 {
                    f64::NAN
                } else {
                    (x >> 40) as f64 / 1e3
                }
            })
            .collect();
        let qs = [0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0];
        assert_eq!(quantiles_nth(&vals, &qs), quantiles(&vals, &qs));
    }

    #[test]
    fn quantiles_nth_edge_cases() {
        assert_eq!(quantiles_nth(&[], &[0.5]), vec![None]);
        assert_eq!(quantiles_nth(&[f64::NAN], &[0.5]), vec![None]);
        assert_eq!(quantiles_nth(&[7.0], &[0.0, 0.5, 1.0]), vec![Some(7.0); 3]);
        // Interpolation between ranks, same as the sorted path.
        assert_eq!(quantiles_nth(&[4.0, 1.0, 3.0, 2.0], &[0.25]), vec![Some(1.75)]);
        // Duplicate and unsorted quantile requests.
        assert_eq!(
            quantiles_nth(&[5.0, 1.0, 3.0], &[1.0, 0.5, 0.5]),
            vec![Some(5.0), Some(3.0), Some(3.0)]
        );
    }

    #[test]
    fn boxplot_no_outliers() {
        let bp = BoxPlot::from_values(&[1.0, 2.0, 3.0, 4.0, 5.0], 10).unwrap();
        assert_eq!(bp.median, 3.0);
        assert_eq!(bp.q1, 2.0);
        assert_eq!(bp.q3, 4.0);
        assert_eq!(bp.iqr, 2.0);
        assert_eq!(bp.whisker_low, 1.0);
        assert_eq!(bp.whisker_high, 5.0);
        assert!(bp.outliers.is_empty());
        assert_eq!(bp.n, 5);
    }

    #[test]
    fn boxplot_detects_outliers() {
        let mut vals: Vec<f64> = (1..=20).map(|i| i as f64).collect();
        vals.push(100.0);
        let bp = BoxPlot::from_values(&vals, 10).unwrap();
        assert_eq!(bp.n_outliers, 1);
        assert_eq!(bp.outliers, vec![100.0]);
        assert!(bp.whisker_high <= 20.0);
    }

    #[test]
    fn boxplot_truncates_outlier_sample() {
        // 100 zeros force IQR = 0, so all 20 high values are outliers.
        let mut vals = vec![0.0; 100];
        vals.extend((0..20).map(|i| 1000.0 + i as f64));
        let bp = BoxPlot::from_values(&vals, 5).unwrap();
        assert_eq!(bp.n_outliers, 20);
        assert_eq!(bp.outliers.len(), 5);
    }

    #[test]
    fn boxplot_from_values_matches_from_sorted() {
        let mut x = 0x9e37_79b9u64;
        let vals: Vec<f64> = (0..300)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((x >> 45) as f64) - 250_000.0
            })
            .collect();
        let selected = BoxPlot::from_values(&vals, 7).unwrap();
        let sorted = BoxPlot::from_sorted(&sorted_values(&vals), 7).unwrap();
        assert_eq!(selected, sorted);
    }

    #[test]
    fn boxplot_empty_is_none() {
        assert!(BoxPlot::from_values(&[], 10).is_none());
        assert!(BoxPlot::from_values(&[f64::NAN], 10).is_none());
    }

    #[test]
    fn boxplot_constant_data() {
        let bp = BoxPlot::from_values(&[2.0; 8], 10).unwrap();
        assert_eq!(bp.iqr, 0.0);
        assert_eq!(bp.whisker_low, 2.0);
        assert_eq!(bp.whisker_high, 2.0);
        assert_eq!(bp.n_outliers, 0);
    }
}
