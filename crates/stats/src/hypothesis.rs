//! Statistical tests backing the insight engine.
//!
//! The paper's Compute module classifies a data fact as an *insight* when a
//! statistic crosses a threshold (§4.2.2): uniformity, skewness/normality,
//! and distribution similarity. These tests provide those statistics.

use crate::qq::normal_cdf;

/// Chi-square statistic for uniformity of observed category counts.
///
/// Returns `(statistic, degrees_of_freedom)`, or `None` when fewer than two
/// categories or zero total count.
pub fn chi_square_uniform(counts: &[u64]) -> Option<(f64, usize)> {
    if counts.len() < 2 {
        return None;
    }
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return None;
    }
    let expected = total as f64 / counts.len() as f64;
    let stat = counts
        .iter()
        .map(|&c| {
            let d = c as f64 - expected;
            d * d / expected
        })
        .sum();
    Some((stat, counts.len() - 1))
}

/// Approximate upper-tail p-value of a chi-square statistic via the
/// Wilson–Hilferty cube-root normal approximation. Good to a few percent
/// for `df ≥ 3`, which is all the insight thresholds need.
pub fn chi_square_pvalue(stat: f64, df: usize) -> f64 {
    if df == 0 {
        return 1.0;
    }
    let k = df as f64;
    let z = ((stat / k).powf(1.0 / 3.0) - (1.0 - 2.0 / (9.0 * k))) / (2.0 / (9.0 * k)).sqrt();
    1.0 - normal_cdf(z)
}

/// Two-sample Kolmogorov–Smirnov distance: the max gap between empirical
/// CDFs. Returns `None` when either sample is empty.
///
/// Used by `plot_missing(df, x, y)` to quantify how much dropping x's
/// missing rows changes y's distribution.
pub fn ks_distance(a: &[f64], b: &[f64]) -> Option<f64> {
    ks_distance_sorted(&crate::quantile::sorted_values(a), &crate::quantile::sorted_values(b))
}

/// [`ks_distance`] of two samples that are already **ascending** and
/// NaN-free — what a `sorted_values` payload holds — with no sort and no
/// copy. Each step jumps both empirical CDFs past the next value.
pub fn ks_distance_sorted(a: &[f64], b: &[f64]) -> Option<f64> {
    if a.is_empty() || b.is_empty() {
        return None;
    }
    let (na, nb) = (a.len() as f64, b.len() as f64);
    let (mut i, mut j) = (0usize, 0usize);
    let mut d: f64 = 0.0;
    while let (Some(&x), Some(&y)) = (a.get(i), b.get(j)) {
        let x = x.min(y);
        let past =
            |rest: Option<&[f64]>| rest.unwrap_or_default().iter().take_while(|&&v| v <= x).count();
        i += past(a.get(i..));
        j += past(b.get(j..));
        d = d.max((i as f64 / na - j as f64 / nb).abs());
    }
    Some(d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chi_square_of_perfectly_uniform_is_zero() {
        let (stat, df) = chi_square_uniform(&[10, 10, 10, 10]).unwrap();
        assert_eq!(stat, 0.0);
        assert_eq!(df, 3);
    }

    #[test]
    fn chi_square_grows_with_imbalance() {
        let (balanced, _) = chi_square_uniform(&[9, 11, 10, 10]).unwrap();
        let (skewed, _) = chi_square_uniform(&[38, 1, 1, 0]).unwrap();
        assert!(skewed > balanced);
    }

    #[test]
    fn chi_square_degenerate() {
        assert_eq!(chi_square_uniform(&[5]), None);
        assert_eq!(chi_square_uniform(&[0, 0]), None);
    }

    #[test]
    fn chi_square_pvalue_behaviour() {
        // Near-zero statistic: p close to 1; huge statistic: p close to 0.
        assert!(chi_square_pvalue(0.1, 5) > 0.9);
        assert!(chi_square_pvalue(100.0, 5) < 1e-6);
        // Median of chi2(10) is ≈ 9.34: p ≈ 0.5.
        let p = chi_square_pvalue(9.34, 10);
        assert!((p - 0.5).abs() < 0.02, "p = {p}");
    }

    #[test]
    fn ks_identical_samples_is_zero() {
        let a = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(ks_distance(&a, &a), Some(0.0));
    }

    #[test]
    fn ks_disjoint_samples_is_one() {
        let a = [1.0, 2.0, 3.0];
        let b = [10.0, 11.0, 12.0];
        assert_eq!(ks_distance(&a, &b), Some(1.0));
    }

    #[test]
    fn ks_known_value() {
        // F_a jumps to 1 at 1; F_b jumps 0.5 at 1 and 1.0 at 2: D = 0.5.
        let a = [1.0, 1.0];
        let b = [1.0, 2.0];
        assert_eq!(ks_distance(&a, &b), Some(0.5));
    }

    #[test]
    fn ks_empty_is_none() {
        assert_eq!(ks_distance(&[], &[1.0]), None);
        assert_eq!(ks_distance(&[1.0], &[]), None);
        assert_eq!(ks_distance(&[f64::NAN], &[1.0]), None);
    }

    #[test]
    fn ks_symmetric() {
        let a = [1.0, 3.0, 5.0, 7.0];
        let b = [2.0, 3.0, 4.0];
        assert_eq!(ks_distance(&a, &b), ks_distance(&b, &a));
    }
}
