//! Spearman rank correlation, in pandas' rank-once form.
//!
//! This is **pandas' `DataFrame.corr(method="spearman")` semantics**: each
//! column is ranked once, over its own non-null rows (mid-ranks, so ties
//! are handled), and a pair is the Pearson correlation of those ranks over
//! the rows both have. It is the one Spearman every path computes:
//! `plot_correlation(df)`, `plot_correlation(df, x)` and `create_report`
//! read the ranks of [`super::ColumnPrep`], the baseline profiler's eager
//! matrix ranks each column with [`crate::rank::ranks`] and calls
//! [`super::pearson`], and a loose pair of slices goes through
//! [`rank_once`]. Row `x` of a matrix and the vector of `x` are the same
//! numbers. SciPy's per-pair form, which re-ranks each pair's complete
//! rows, coincides with it whenever neither column has nulls.

use super::pearson::pearson;
use crate::rank::ranks;

/// Spearman's rho of two equal-length slices, NaN marking a null: the
/// Pearson correlation of each slice's own mid-ranks.
pub(super) fn rank_once(x: &[f64], y: &[f64]) -> Option<f64> {
    pearson(&ranks(x), &ranks(y))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::spearman_rank_once;

    #[test]
    fn monotone_nonlinear_is_one() {
        // y = x^3 is monotone: Spearman 1, even though Pearson < 1.
        let x: [f64; 5] = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y: Vec<f64> = x.iter().map(|v| v.powi(3)).collect();
        assert!((rank_once(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        assert!(pearson(&x, &y).unwrap() < 1.0);
    }

    #[test]
    fn reversed_is_minus_one() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [10.0, 3.0, 2.0, 1.0];
        assert!((rank_once(&x, &y).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn known_value_with_ties() {
        // scipy.stats.spearmanr([1,2,2,3], [1,3,2,4]) = 3/sqrt(10)
        let x = [1.0, 2.0, 2.0, 3.0];
        let y = [1.0, 3.0, 2.0, 4.0];
        let rho = rank_once(&x, &y).unwrap();
        let expected = 3.0 / 10.0_f64.sqrt();
        assert!((rho - expected).abs() < 1e-12, "rho = {rho}");
    }

    #[test]
    fn degenerate_cases() {
        assert_eq!(rank_once(&[], &[]), None);
        assert_eq!(rank_once(&[1.0], &[1.0]), None);
        assert_eq!(rank_once(&[2.0, 2.0], &[1.0, 3.0]), None); // constant ranks
    }

    #[test]
    fn nan_pairs_dropped() {
        // x is ranked over its three values, y over its four, and the pair
        // correlates the ranks of rows 0, 2 and 3: (1, 2, 3) against
        // (1, 3, 4) — not the 1 that re-ranking the complete rows gives.
        let x = [1.0, f64::NAN, 3.0, 4.0];
        let y = [1.0, 2.0, 3.0, 4.0];
        let rho = rank_once(&x, &y).unwrap();
        assert!((rho - spearman_rank_once(&x, &y).unwrap()).abs() < 1e-12);
        assert!((rho - pearson(&[1.0, 2.0, 3.0], &[1.0, 3.0, 4.0]).unwrap()).abs() < 1e-12);
        assert!(rho < 1.0 - 1e-3);
    }

    #[test]
    fn rank_once_matches_per_pair_without_nulls() {
        // Without nulls a pair's complete rows are the whole columns, so
        // ranking once is ranking per pair: the oracle's mid-ranks.
        let x: Vec<f64> = (0..100).map(|i| ((i * 37) % 53) as f64).collect();
        let y: Vec<f64> = (0..100).map(|i| ((i * 29) % 47) as f64).collect();
        let a = rank_once(&x, &y).unwrap();
        let b = spearman_rank_once(&x, &y).unwrap();
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn symmetry() {
        let x = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0];
        let y = [2.0, 7.0, 1.0, 8.0, 2.0, 8.0];
        assert_eq!(rank_once(&x, &y), rank_once(&y, &x));
    }
}
