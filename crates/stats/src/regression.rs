//! Simple linear regression.
//!
//! `plot_correlation(df, x, y)` draws a scatter plot with a regression line
//! (paper Figure 2, row 7); this module provides the fit.

use crate::corr::PearsonPartial;

/// An ordinary-least-squares fit `y = slope · x + intercept`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearFit {
    /// Line slope.
    pub slope: f64,
    /// Line intercept.
    pub intercept: f64,
    /// Coefficient of determination.
    pub r2: f64,
    /// Number of complete pairs used.
    pub n: u64,
}

impl LinearFit {
    /// Fit over pairwise-complete observations.
    ///
    /// Returns `None` with fewer than 2 complete pairs or zero x-variance.
    pub fn fit(x: &[f64], y: &[f64]) -> Option<LinearFit> {
        let mut p = PearsonPartial::new();
        p.push_slices(x, y);
        Self::from_partial(&p)
    }

    /// Fit from a pre-aggregated co-moment partial (used by the two-phase
    /// pipeline: partials reduce across partitions, the fit happens eagerly).
    pub fn from_partial(p: &PearsonPartial) -> Option<LinearFit> {
        if p.n < 2 {
            return None;
        }
        let (m2x, m2y) = p.second_moments();
        if m2x <= 0.0 {
            return None;
        }
        let slope = p.comoment() / m2x;
        let (mean_x, mean_y) = p.means();
        let intercept = mean_y - slope * mean_x;
        let r2 = if m2y > 0.0 {
            let r = p.comoment() / (m2x * m2y).sqrt();
            r * r
        } else {
            // y is constant: the line explains everything trivially.
            1.0
        };
        Some(LinearFit { slope, intercept, r2, n: p.n })
    }

    /// Predicted `y` at `x`.
    #[cfg(test)]
    pub fn predict(&self, x: f64) -> f64 {
        self.slope * x + self.intercept
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line() {
        let x = [0.0, 1.0, 2.0, 3.0];
        let y = [1.0, 3.0, 5.0, 7.0];
        let fit = LinearFit::fit(&x, &y).unwrap();
        assert!((fit.slope - 2.0).abs() < 1e-12);
        assert!((fit.intercept - 1.0).abs() < 1e-12);
        assert!((fit.r2 - 1.0).abs() < 1e-12);
        assert_eq!(fit.n, 4);
        assert!((fit.predict(10.0) - 21.0).abs() < 1e-12);
    }

    #[test]
    fn noisy_line_r2_below_one() {
        let x: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let y: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(i, v)| 3.0 * v + ((i * 37) % 11) as f64 - 5.0)
            .collect();
        let fit = LinearFit::fit(&x, &y).unwrap();
        assert!((fit.slope - 3.0).abs() < 0.05);
        assert!(fit.r2 > 0.99 && fit.r2 < 1.0);
    }

    #[test]
    fn negative_slope() {
        let x = [1.0, 2.0, 3.0];
        let y = [6.0, 4.0, 2.0];
        let fit = LinearFit::fit(&x, &y).unwrap();
        assert!((fit.slope + 2.0).abs() < 1e-12);
    }

    #[test]
    fn nan_pairs_skipped() {
        let x = [0.0, 1.0, f64::NAN, 3.0];
        let y = [0.0, 2.0, 100.0, 6.0];
        let fit = LinearFit::fit(&x, &y).unwrap();
        assert_eq!(fit.n, 3);
        assert!((fit.slope - 2.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs() {
        assert!(LinearFit::fit(&[], &[]).is_none());
        assert!(LinearFit::fit(&[1.0], &[2.0]).is_none());
        assert!(LinearFit::fit(&[2.0, 2.0], &[1.0, 3.0]).is_none());
    }

    #[test]
    fn constant_y_gives_flat_line() {
        let fit = LinearFit::fit(&[1.0, 2.0, 3.0], &[5.0, 5.0, 5.0]).unwrap();
        assert!((fit.slope).abs() < 1e-12);
        assert!((fit.intercept - 5.0).abs() < 1e-12);
        assert_eq!(fit.r2, 1.0);
    }
}
