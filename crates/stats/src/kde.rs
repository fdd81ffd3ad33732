//! Gaussian kernel density estimation.
//!
//! Used by the univariate-numeric panel (paper Figure 2, row 2): the KDE
//! curve is drawn over the histogram. Bandwidth defaults to Silverman's
//! rule of thumb, matching the SciPy/Seaborn default the paper's plots use.

use crate::quantile::{quantile_sorted, sorted_values};

/// Silverman's rule-of-thumb bandwidth:
/// `0.9 · min(σ̂, IQR/1.34) · n^(-1/5)`.
///
/// Returns `None` when fewer than 2 distinct values make a bandwidth
/// meaningless.
pub fn silverman_bandwidth(values: &[f64]) -> Option<f64> {
    let sorted = sorted_values(values);
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let mean = sorted.iter().sum::<f64>() / n as f64;
    let var = sorted.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1) as f64;
    let std = var.sqrt();
    let iqr = quantile_sorted(&sorted, 0.75)? - quantile_sorted(&sorted, 0.25)?;
    let spread = if iqr > 0.0 { std.min(iqr / 1.34) } else { std };
    if spread <= 0.0 {
        return None;
    }
    Some(0.9 * spread * (n as f64).powf(-0.2))
}

/// Evaluate a Gaussian KDE on `grid_size` evenly spaced points spanning
/// `[min - 3h, max + 3h]`.
///
/// Returns `(xs, densities)`; empty vectors when the data is degenerate
/// (fewer than 2 distinct values). Each grid point sums over every
/// value, so the interruption probe is polled per grid point; an
/// interrupted call also returns empty vectors (its task is discarded).
pub fn kde_grid(values: &[f64], grid_size: usize) -> (Vec<f64>, Vec<f64>) {
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    let Some(h) = silverman_bandwidth(&finite) else {
        return (Vec::new(), Vec::new());
    };
    let grid_size = grid_size.max(2);
    let min = finite.iter().copied().fold(f64::INFINITY, f64::min);
    let max = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let lo = min - 3.0 * h;
    let hi = max + 3.0 * h;
    let step = (hi - lo) / (grid_size - 1) as f64;
    let xs: Vec<f64> = (0..grid_size).map(|i| lo + step * i as f64).collect();
    let norm = 1.0 / (finite.len() as f64 * h * (2.0 * std::f64::consts::PI).sqrt());
    let mut ys = Vec::with_capacity(grid_size);
    for &x in &xs {
        if crate::interrupt::interrupted() {
            return (Vec::new(), Vec::new());
        }
        let sum: f64 = finite
            .iter()
            .map(|&v| {
                let z = (x - v) / h;
                (-0.5 * z * z).exp()
            })
            .sum();
        ys.push(sum * norm);
    }
    (xs, ys)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_needs_spread() {
        assert!(silverman_bandwidth(&[]).is_none());
        assert!(silverman_bandwidth(&[1.0]).is_none());
        assert!(silverman_bandwidth(&[2.0; 10]).is_none());
        assert!(silverman_bandwidth(&[1.0, 2.0, 3.0]).unwrap() > 0.0);
    }

    #[test]
    fn bandwidth_shrinks_with_n() {
        let small: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let large: Vec<f64> = (0..10000).map(|i| (i % 10) as f64).collect();
        assert!(silverman_bandwidth(&large).unwrap() < silverman_bandwidth(&small).unwrap());
    }

    #[test]
    fn kde_integrates_to_one() {
        let data: Vec<f64> = (0..200).map(|i| ((i * 31) % 100) as f64 / 10.0).collect();
        let (xs, ys) = kde_grid(&data, 256);
        let step = xs[1] - xs[0];
        let integral: f64 = ys.iter().sum::<f64>() * step;
        assert!((integral - 1.0).abs() < 0.02, "integral = {integral}");
    }

    #[test]
    fn kde_peak_near_mode() {
        // Cluster around 5 with a couple of distant points.
        let mut data = vec![5.0, 5.1, 4.9, 5.0, 5.05, 4.95, 5.0];
        data.push(0.0);
        data.push(10.0);
        let (xs, ys) = kde_grid(&data, 512);
        let peak_x = xs[ys
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0];
        assert!((peak_x - 5.0).abs() < 0.5, "peak at {peak_x}");
    }

    #[test]
    fn kde_degenerate_data_is_empty() {
        let (xs, ys) = kde_grid(&[3.0; 5], 100);
        assert!(xs.is_empty() && ys.is_empty());
    }

    #[test]
    fn kde_ignores_non_finite() {
        let (xs, ys) = kde_grid(&[1.0, 2.0, f64::NAN, 3.0, f64::INFINITY], 64);
        assert_eq!(xs.len(), 64);
        assert!(ys.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn interruption_stops_the_grid_at_the_next_point() {
        use crate::interrupt::tests::{test_probe, TEST_INTERRUPT, TEST_POLLS_LEFT};
        crate::interrupt::register(test_probe);
        let data: Vec<f64> = (0..50).map(f64::from).collect();
        TEST_POLLS_LEFT.with(|p| p.set(Some(10)));
        let (xs, ys) = kde_grid(&data, 64);
        assert!(xs.is_empty() && ys.is_empty());
        assert!(TEST_INTERRUPT.with(|f| f.get()), "fewer than ten grid points were polled");
        TEST_INTERRUPT.with(|f| f.set(false));
        assert_eq!(kde_grid(&data, 64).1.len(), 64);
    }

    #[test]
    fn kde_grid_is_monotone() {
        let (xs, _) = kde_grid(&[1.0, 2.0, 3.0], 32);
        assert!(xs.windows(2).all(|w| w[0] < w[1]));
    }
}
