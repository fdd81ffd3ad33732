//! Correlation kernels and matrices.
//!
//! `plot_correlation` (paper Figure 2, rows 5–7) needs three coefficients —
//! Pearson, Spearman, Kendall's tau — over single pairs, one-vs-rest
//! vectors, and full matrices. Pairs with a NaN on either side are dropped
//! (pairwise-complete observations), matching Pandas' `corr` semantics.
//! A loose pair of slices ([`CorrMethod::compute`]) runs the kernels a
//! matrix cell runs — [`pearson`], [`pearson`] over ranks, the Kendall
//! cell — so a coefficient means the same thing on every path.

mod kendall;
mod matrix;
mod pearson;
mod prep;
mod spearman;

use kendall::{kendall_cell, KendallScratch};
use prep::Sorted;

pub use matrix::CorrMatrix;
pub use pearson::{pearson, PearsonPartial};
pub use prep::{corr_cells, upper_triangle, Col, ColumnPrep};

/// The correlation methods DataPrep.EDA computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CorrMethod {
    /// Pearson product-moment correlation.
    Pearson,
    /// Spearman rank correlation.
    Spearman,
    /// Kendall's tau-b.
    KendallTau,
}

impl CorrMethod {
    /// All methods, in report order.
    pub const ALL: [CorrMethod; 3] =
        [CorrMethod::Pearson, CorrMethod::Spearman, CorrMethod::KendallTau];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            CorrMethod::Pearson => "Pearson",
            CorrMethod::Spearman => "Spearman",
            CorrMethod::KendallTau => "KendallTau",
        }
    }

    /// This coefficient over the two slices' common prefix, NaN marking a
    /// null: [`pearson`]; Spearman in pandas' rank-once form (each slice
    /// ranked over its own non-NaN rows, then [`pearson`] of the ranks);
    /// Kendall's tau-b by the matrix cell over the two slices' sort
    /// orders, the part of a [`ColumnPrep`] it reads.
    pub fn compute(self, x: &[f64], y: &[f64]) -> Option<f64> {
        let n = x.len().min(y.len());
        let (x, y) = (x.get(..n).unwrap_or(x), y.get(..n).unwrap_or(y));
        match self {
            CorrMethod::Pearson => pearson(x, y),
            CorrMethod::Spearman => spearman::rank_once(x, y),
            CorrMethod::KendallTau => {
                kendall_cell(&Sorted::of(x), &Sorted::of(y), &mut KendallScratch::default())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{kendall_tau_fenwick, pearson_two_pass, spearman_rank_once};

    #[test]
    fn method_names() {
        assert_eq!(CorrMethod::Pearson.name(), "Pearson");
        assert_eq!(CorrMethod::ALL.len(), 3);
    }

    #[test]
    fn dispatch_agrees_with_direct_calls() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [1.5, 3.1, 2.9, 4.2];
        assert_eq!(CorrMethod::Pearson.compute(&x, &y), pearson(&x, &y));
        let (rho, want) = (CorrMethod::Spearman.compute(&x, &y), spearman_rank_once(&x, &y));
        assert!((rho.unwrap() - want.unwrap()).abs() < 1e-12);
        assert_eq!(CorrMethod::KendallTau.compute(&x, &y), kendall_tau_fenwick(&x, &y));
        // Slices of unequal length are read over their common prefix.
        for method in CorrMethod::ALL {
            assert_eq!(method.compute(&x, &y[..3]), method.compute(&x[..3], &y[..3]));
            assert_eq!(method.compute(&x[..2], &y), method.compute(&x[..2], &y[..2]));
        }
    }

    #[test]
    fn complete_pairs_drops_nans() {
        // Pearson and Kendall read the pairwise-complete rows; Spearman
        // ranks each slice over its own non-NaN rows first (pandas), so
        // it is not the coefficient of the complete rows alone.
        let x = [1.0, f64::NAN, 3.0, 4.0, 5.0, 2.0];
        let y = [2.0, 9.0, f64::NAN, 1.0, 7.0, 3.0];
        let (xs, ys) = ([1.0, 4.0, 5.0, 2.0], [2.0, 1.0, 7.0, 3.0]);
        for method in [CorrMethod::Pearson, CorrMethod::KendallTau] {
            assert_eq!(method.compute(&x, &y), method.compute(&xs, &ys), "{method:?}");
        }
        assert_eq!(CorrMethod::Pearson.compute(&x, &y), pearson_two_pass(&xs, &ys));
        let rank_once = CorrMethod::Spearman.compute(&x, &y).unwrap();
        assert!((rank_once - spearman_rank_once(&x, &y).unwrap()).abs() < 1e-12);
        assert!((rank_once - CorrMethod::Spearman.compute(&xs, &ys).unwrap()).abs() > 1e-3);
    }
}
