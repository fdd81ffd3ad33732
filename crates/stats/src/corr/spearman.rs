//! Spearman rank correlation.

use super::{complete_pairs, pearson::pearson};
use crate::rank::ranks;

/// Spearman's rho over pairwise-complete observations: Pearson correlation
/// of mid-ranks, which handles ties correctly. Ranks are computed over
/// the pair's complete observations (SciPy semantics).
pub fn spearman(x: &[f64], y: &[f64]) -> Option<f64> {
    let (xs, ys) = complete_pairs(x, y);
    if xs.len() < 2 {
        return None;
    }
    pearson(&ranks(&xs), &ranks(&ys))
}

/// Spearman's rho from per-column precomputed ranks (NaN rank at null
/// positions): Pearson over the rank vectors with pairwise-complete
/// filtering. This is **pandas' `DataFrame.corr(method="spearman")`
/// semantics** — each column is ranked once, over its own non-null rows,
/// and the ranks are shared by all its pairs — and it is the one
/// semantics every DataPrep path uses: `plot_correlation(df)`,
/// `plot_correlation(df, x)` and `create_report` read the ranks of
/// [`super::ColumnPrep`], the baseline profiler's eager matrix ranks
/// with [`crate::rank::ranks`], and row `x` of a matrix and the vector of
/// `x` are the same numbers.
/// It coincides with the per-pair (SciPy) [`spearman`] whenever neither
/// column has nulls; with nulls the two differ, because [`spearman`]
/// re-ranks over each pair's complete rows. Pearson is shift-invariant,
/// so any per-column constant may be subtracted from the ranks first.
pub fn spearman_from_ranks(rank_x: &[f64], rank_y: &[f64]) -> Option<f64> {
    pearson(rank_x, rank_y)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotone_nonlinear_is_one() {
        // y = x^3 is monotone: Spearman 1, even though Pearson < 1.
        let x: [f64; 5] = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y: Vec<f64> = x.iter().map(|v| v.powi(3)).collect();
        assert!((spearman(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        assert!(pearson(&x, &y).unwrap() < 1.0);
    }

    #[test]
    fn reversed_is_minus_one() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [10.0, 3.0, 2.0, 1.0];
        assert!((spearman(&x, &y).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn known_value_with_ties() {
        // scipy.stats.spearmanr([1,2,2,3], [1,3,2,4]) = 3/sqrt(10)
        let x = [1.0, 2.0, 2.0, 3.0];
        let y = [1.0, 3.0, 2.0, 4.0];
        let rho = spearman(&x, &y).unwrap();
        let expected = 3.0 / 10.0_f64.sqrt();
        assert!((rho - expected).abs() < 1e-12, "rho = {rho}");
    }

    #[test]
    fn degenerate_cases() {
        assert_eq!(spearman(&[], &[]), None);
        assert_eq!(spearman(&[1.0], &[1.0]), None);
        assert_eq!(spearman(&[2.0, 2.0], &[1.0, 3.0]), None); // constant ranks
    }

    #[test]
    fn nan_pairs_dropped() {
        let x = [1.0, f64::NAN, 3.0, 4.0];
        let y = [1.0, 2.0, 3.0, 4.0];
        assert!((spearman(&x, &y).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rank_once_matches_per_pair_without_nulls() {
        use crate::rank::ranks;
        let x: Vec<f64> = (0..100).map(|i| ((i * 37) % 53) as f64).collect();
        let y: Vec<f64> = (0..100).map(|i| ((i * 29) % 47) as f64).collect();
        let a = spearman(&x, &y).unwrap();
        let b = spearman_from_ranks(&ranks(&x), &ranks(&y)).unwrap();
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn symmetry() {
        let x = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0];
        let y = [2.0, 7.0, 1.0, 8.0, 2.0, 8.0];
        assert_eq!(spearman(&x, &y), spearman(&y, &x));
    }
}
