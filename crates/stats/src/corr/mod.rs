//! Correlation kernels and matrices.
//!
//! `plot_correlation` (paper Figure 2, rows 5–7) needs three coefficients —
//! Pearson, Spearman, Kendall's tau — over single pairs, one-vs-rest
//! vectors, and full matrices. Pairs with a NaN on either side are dropped
//! (pairwise-complete observations), matching Pandas' `corr` semantics.

mod kendall;
mod matrix;
mod pearson;
mod prep;
mod spearman;

pub use kendall::kendall_tau;
pub use matrix::CorrMatrix;
pub use pearson::{pearson, PearsonPartial};
pub use prep::{corr_cells, upper_triangle, Col, ColumnPrep};
pub use spearman::{spearman, spearman_from_ranks};

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

    /// Compute this coefficient over a pair of equal-length slices.
    pub fn compute(self, x: &[f64], y: &[f64]) -> Option<f64> {
        match self {
            CorrMethod::Pearson => pearson(x, y),
            CorrMethod::Spearman => spearman(x, y),
            CorrMethod::KendallTau => kendall_tau(x, y),
        }
    }
}

/// Drop index positions where either side is NaN; returns parallel vectors.
pub(crate) fn complete_pairs(x: &[f64], y: &[f64]) -> (Vec<f64>, Vec<f64>) {
    assert_eq!(x.len(), y.len(), "correlation inputs must be equal length");
    let mut xs = Vec::with_capacity(x.len());
    let mut ys = Vec::with_capacity(y.len());
    // No poll: single linear filter pass; correlation kernels poll per chunk/pass
    for (&a, &b) in x.iter().zip(y) {
        if !a.is_nan() && !b.is_nan() {
            xs.push(a);
            ys.push(b);
        }
    }
    (xs, ys)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(CorrMethod::Spearman.compute(&x, &y), spearman(&x, &y));
        assert_eq!(CorrMethod::KendallTau.compute(&x, &y), kendall_tau(&x, &y));
    }

    #[test]
    fn complete_pairs_drops_nans() {
        let (x, y) = complete_pairs(&[1.0, f64::NAN, 3.0], &[1.0, 2.0, f64::NAN]);
        assert_eq!(x, vec![1.0]);
        assert_eq!(y, vec![1.0]);
    }
}
