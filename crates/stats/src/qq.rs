//! Normal quantile-quantile support.
//!
//! The univariate-numeric panel includes a normal Q-Q plot (paper Figure 2).
//! [`normal_quantile`] implements Acklam's rational approximation of the
//! standard normal inverse CDF (relative error < 1.15e-9), and
//! [`normal_qq_points`] pairs theoretical quantiles with sample quantiles.

use crate::moments::Moments;
use crate::quantile::quantile_sorted;

/// Inverse CDF (quantile function) of the standard normal distribution.
///
/// Returns `-inf` / `+inf` at `p = 0` / `p = 1`, NaN outside `[0, 1]`.
pub fn normal_quantile(p: f64) -> f64 {
    if p.is_nan() || !(0.0..=1.0).contains(&p) {
        return f64::NAN;
    }
    if p == 0.0 {
        return f64::NEG_INFINITY;
    }
    if p == 1.0 {
        return f64::INFINITY;
    }
    // Acklam's algorithm.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -((((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0))
    }
}

/// CDF of the standard normal distribution (via `erf`-style approximation:
/// Abramowitz & Stegun 7.1.26, |error| < 1.5e-7).
pub fn normal_cdf(x: f64) -> f64 {
    let t = 1.0 / (1.0 + 0.3275911 * x.abs() / std::f64::consts::SQRT_2);
    let erf = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-(x * x) / 2.0).exp();
    if x >= 0.0 {
        0.5 * (1.0 + erf)
    } else {
        0.5 * (1.0 - erf)
    }
}

/// Q-Q points of an ascending `sorted` sample against the normal
/// distribution fitted to `moments`' mean and standard deviation — the
/// finite values' ones, as the stats table prints them, so an infinite
/// value moves the sample quantiles it reaches and nothing else.
///
/// At most `max_points` evenly spaced probability levels are evaluated, so
/// huge columns still render a small plot. Returns `(theoretical, sample)`
/// pairs; empty when the data is degenerate.
pub fn normal_qq_points(sorted: &[f64], moments: &Moments, max_points: usize) -> Vec<(f64, f64)> {
    let Some(std) = moments.std().filter(|&std| std > 0.0) else {
        return Vec::new();
    };
    let k = sorted.len().min(max_points.max(2));
    (0..k)
        .map(|i| {
            // Hazen plotting positions over the reduced point set.
            let p = (i as f64 + 0.5) / k as f64;
            let theoretical = moments.mean + std * normal_quantile(p);
            // `sorted` is non-empty (k ≤ its length); a NaN point is
            // dropped by the renderer if the invariant ever breaks.
            (theoretical, quantile_sorted(sorted, p).unwrap_or(f64::NAN))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_known_values() {
        assert!((normal_quantile(0.5)).abs() < 1e-9);
        assert!((normal_quantile(0.975) - 1.959964).abs() < 1e-5);
        assert!((normal_quantile(0.025) + 1.959964).abs() < 1e-5);
        assert!((normal_quantile(0.8413447) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn quantile_boundaries() {
        assert_eq!(normal_quantile(0.0), f64::NEG_INFINITY);
        assert_eq!(normal_quantile(1.0), f64::INFINITY);
        assert!(normal_quantile(-0.1).is_nan());
        assert!(normal_quantile(1.1).is_nan());
    }

    #[test]
    fn quantile_is_odd_around_half() {
        for &p in &[0.01, 0.1, 0.3, 0.45] {
            let lo = normal_quantile(p);
            let hi = normal_quantile(1.0 - p);
            assert!((lo + hi).abs() < 1e-9, "p={p}: {lo} vs {hi}");
        }
    }

    #[test]
    fn cdf_inverts_quantile() {
        for &p in &[0.05, 0.2, 0.5, 0.8, 0.95] {
            let x = normal_quantile(p);
            assert!((normal_cdf(x) - p).abs() < 1e-5, "p={p}");
        }
    }

    #[test]
    fn qq_points_of_normalish_data_follow_diagonal() {
        // A symmetric triangular-ish sample: Q-Q should stay near the line.
        let mut vals = Vec::new();
        for i in 0..100 {
            let u = (i as f64 + 0.5) / 100.0;
            vals.push(normal_quantile(u) * 2.0 + 10.0);
        }
        let pts = normal_qq_points(&vals, &Moments::from_slice(&vals), 50);
        assert_eq!(pts.len(), 50);
        for (t, s) in pts {
            assert!((t - s).abs() < 0.3, "({t}, {s})");
        }
    }

    #[test]
    fn qq_points_degenerate_cases() {
        let qq = |vals: &[f64]| normal_qq_points(vals, &Moments::from_slice(vals), 10);
        assert!(qq(&[]).is_empty());
        assert!(qq(&[1.0]).is_empty());
        assert!(qq(&[2.0; 10]).is_empty());
        // One finite value and an infinity: no spread to fit.
        assert!(qq(&[1.0, f64::INFINITY]).is_empty());
    }

    #[test]
    fn qq_respects_max_points() {
        let qq = |vals: &[f64]| normal_qq_points(vals, &Moments::from_slice(vals), 64);
        let vals: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        assert_eq!(qq(&vals).len(), 64);
        assert_eq!(qq(&[1.0, 2.0, 3.0]).len(), 3);
    }
}
