//! Gaussian kernel density estimation.
//!
//! Used by the univariate-numeric panel (paper Figure 2, row 2): the KDE
//! curve is drawn over the histogram. Bandwidth defaults to Silverman's
//! rule of thumb, matching the SciPy/Seaborn default the paper's plots use.
//!
//! The curve is evaluated sample by sample, not grid point by grid point.
//! On the evenly spaced grid `x_i = lo + i·step`, with `δ = step / h`, a
//! point at offset `d` (in bandwidths) from a sample receives
//! `g = exp(-d²/2)`, and its neighbour one step on receives `g·r` with
//! `r = exp(-d·δ - δ²/2)`, the one after that `g·r·(r·q)` with
//! `q = exp(-δ²)`: walking outward from the grid point nearest the sample
//! costs two multiplies and an add per point instead of an `exp`, and the
//! walk stops `8.5` bandwidths out, where the Gaussian is `2e-16` of its
//! peak. The recurrence is restarted from exact `exp`s every
//! `RESEED` points, which bounds its rounding drift however fine the
//! grid. Each step depends on the one before, so a lone walk waits on its
//! multiplies; when both sides of a sample fit in one restart, the left
//! and right walks advance in one loop, and the CPU runs the two chains
//! side by side. The points still receive the same shares in the same
//! order, so the curve is the same to the bit.

use crate::interrupt::{interrupted, CHECK_INTERVAL};
use crate::quantile::quantile_sorted;

/// Bandwidths past which a sample's kernel is dropped: `exp(-8.5²/2)` is
/// `2e-16`, below one ulp of the sample's own peak contribution.
const REACH: f64 = 8.5;

/// Grid points one recurrence covers before it restarts from `exp`. Its
/// relative error grows with the square of the steps taken; 64 keeps a
/// curve within `2e-13` of its peak at any grid size.
const RESEED: usize = 64;

/// The finite values of an ascending slice: non-finite ones (`±inf`, and
/// NaN under `total_cmp`) can only sit at its two ends.
fn finite_run(sorted: &[f64]) -> &[f64] {
    let start = sorted.iter().take_while(|v| !v.is_finite()).count();
    let end = sorted.len() - sorted.iter().rev().take_while(|v| !v.is_finite()).count();
    sorted.get(start..end).unwrap_or(&[])
}

/// Silverman's rule-of-thumb bandwidth over **ascending** values,
/// non-finite ends ignored: `0.9 · min(σ̂, IQR/1.34) · n^(-1/5)`.
///
/// Returns `None` when fewer than 2 distinct values make a bandwidth
/// meaningless.
pub fn silverman_bandwidth(sorted: &[f64]) -> Option<f64> {
    let sorted = finite_run(sorted);
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let mean = sorted.iter().sum::<f64>() / n as f64;
    let var = sorted.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1) as f64;
    let std = var.sqrt();
    let iqr = quantile_sorted(sorted, 0.75)? - quantile_sorted(sorted, 0.25)?;
    let spread = if iqr > 0.0 { std.min(iqr / 1.34) } else { std };
    if spread <= 0.0 {
        return None;
    }
    Some(0.9 * spread * (n as f64).powf(-0.2))
}

/// One sample's kernel walking over grid points at offsets `d`,
/// `d + delta`, `d + 2·delta`, … bandwidths from it (`delta` is negative
/// walking left).
struct Walk {
    /// What the next point receives.
    g: f64,
    /// The factor from that point's share to the one after it.
    r: f64,
}

impl Walk {
    fn new(d: f64, delta: f64) -> Walk {
        Walk { g: (-0.5 * d * d).exp(), r: (-d * delta - 0.5 * delta * delta).exp() }
    }

    /// Add the walk's share to `y` and move one point on; `q` is
    /// `exp(-delta²)`.
    #[inline]
    fn step(&mut self, y: &mut f64, q: f64) {
        *y += self.g;
        self.g *= self.r;
        self.r *= q;
    }
}

/// Add one sample's kernel to `points`, which sit at offsets `d`,
/// `d + delta`, `d + 2·delta`, … bandwidths from it; `q` is `exp(-delta²)`.
fn spread<'a>(points: impl Iterator<Item = &'a mut f64>, d: f64, delta: f64, q: f64) {
    let mut walk = Walk::new(d, delta);
    // No poll: bounded to RESEED grid points; kde_grid polls per block of samples
    for y in points {
        walk.step(y, q);
    }
}

/// [`spread`] right over `right` from offset `d` and left over `left`
/// (its last point first) from `d - delta`, the two walks advanced in one
/// loop: two independent multiply chains, so each hides the other's
/// latency. Every point gets the same share [`spread`] would give it.
fn spread_both(right: &mut [f64], left: &mut [f64], d: f64, delta: f64, q: f64) {
    let (mut rightward, mut leftward) = (Walk::new(d, delta), Walk::new(d - delta, -delta));
    let both = right.len().min(left.len());
    let (right_near, right_far) = right.split_at_mut(both);
    let (left_far, left_near) = left.split_at_mut(left.len() - both);
    // No poll: bounded to RESEED grid points; kde_grid polls per block of samples
    for (a, b) in right_near.iter_mut().zip(left_near.iter_mut().rev()) {
        rightward.step(a, q);
        leftward.step(b, q);
    }
    right_far.iter_mut().for_each(|y| rightward.step(y, q));
    left_far.iter_mut().rev().for_each(|y| leftward.step(y, q));
}

/// Evaluate a Gaussian KDE of **ascending** values (non-finite ends
/// ignored) on `grid_size` evenly spaced points spanning
/// `[min - 3h, max + 3h]`.
///
/// Returns `(xs, densities)`; empty vectors when the data is degenerate
/// (fewer than 2 distinct values). See the module docs for the
/// evaluation; the densities are within `1e-12` of the curve's peak of
/// the direct sum over every (sample, grid point) pair. The interruption
/// probe is polled per block of samples covering about
/// [`CHECK_INTERVAL`] grid points; an interrupted call also returns empty
/// vectors (its task is discarded).
pub fn kde_grid(sorted: &[f64], grid_size: usize) -> (Vec<f64>, Vec<f64>) {
    let sorted = finite_run(sorted);
    let (Some(h), Some(min), Some(max)) =
        (silverman_bandwidth(sorted), sorted.first(), sorted.last())
    else {
        return (Vec::new(), Vec::new());
    };
    let grid_size = grid_size.max(2);
    let lo = min - 3.0 * h;
    let hi = max + 3.0 * h;
    let step = (hi - lo) / (grid_size - 1) as f64;
    let xs: Vec<f64> = (0..grid_size).map(|i| lo + step * i as f64).collect();
    let delta = step / h;
    let q = (-delta * delta).exp();
    // Points a sample reaches on each side of its nearest one.
    let reach = (REACH / delta).ceil().min(grid_size as f64) as usize;
    let mut ys = vec![0.0f64; grid_size];
    for block in sorted.chunks((CHECK_INTERVAL / (2 * reach + 1)).max(1)) {
        if interrupted() {
            return (Vec::new(), Vec::new());
        }
        for &v in block {
            let nearest = (((v - lo) / step).round() as usize).min(grid_size - 1);
            let Some(d) = xs.get(nearest).map(|x| (x - v) / h) else { continue };
            let (left, right) = ys.split_at_mut(nearest);
            let (from, to) = (left.len().saturating_sub(reach), right.len().min(reach + 1));
            let right = right.get_mut(..to).unwrap_or_default();
            let left = left.get_mut(from..).unwrap_or_default();
            if right.len() <= RESEED && left.len() <= RESEED {
                spread_both(right, left, d, delta, q);
                continue;
            }
            for (k, points) in right.chunks_mut(RESEED).enumerate() {
                spread(points.iter_mut(), d + (k * RESEED) as f64 * delta, delta, q);
            }
            for (k, points) in left.rchunks_mut(RESEED).enumerate() {
                spread(points.iter_mut().rev(), d - (k * RESEED + 1) as f64 * delta, -delta, q);
            }
        }
    }
    let norm = 1.0 / (sorted.len() as f64 * h * (2.0 * std::f64::consts::PI).sqrt());
    ys.iter_mut().for_each(|y| *y *= norm);
    (xs, ys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantile::sorted_values;

    /// The direct sum — every grid point over every sample, an `exp` each:
    /// what `kde_grid` was, kept as its oracle.
    fn kde_direct(values: &[f64], grid_size: usize) -> (Vec<f64>, Vec<f64>) {
        let mut finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
        finite.sort_unstable_by(f64::total_cmp);
        let Some(h) = silverman_bandwidth(&finite) else {
            return (Vec::new(), Vec::new());
        };
        let grid_size = grid_size.max(2);
        let lo = finite[0] - 3.0 * h;
        let hi = finite[finite.len() - 1] + 3.0 * h;
        let step = (hi - lo) / (grid_size - 1) as f64;
        let xs: Vec<f64> = (0..grid_size).map(|i| lo + step * i as f64).collect();
        let norm = 1.0 / (finite.len() as f64 * h * (2.0 * std::f64::consts::PI).sqrt());
        let density = |x: f64| {
            let sum: f64 = finite.iter().map(|&v| (-0.5 * ((x - v) / h).powi(2)).exp()).sum();
            sum * norm
        };
        let ys = xs.iter().map(|&x| density(x)).collect();
        (xs, ys)
    }

    fn uniform(state: &mut u64) -> f64 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((*state >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    fn normal(state: &mut u64) -> f64 {
        let (u, v) = (uniform(state), uniform(state));
        (-2.0 * u.ln()).sqrt() * (2.0 * std::f64::consts::PI * v).cos()
    }

    /// Sample shapes the recurrence must get right, ascending.
    fn families(n: usize) -> Vec<(&'static str, Vec<f64>)> {
        let mut s = 7u64;
        let mut families: Vec<(&str, Vec<f64>)> = vec![
            ("normal", (0..n).map(|_| normal(&mut s)).collect()),
            ("lognormal", (0..n).map(|_| normal(&mut s).exp()).collect()),
            ("uniform", (0..n).map(|_| uniform(&mut s)).collect()),
            ("integer", (0..n).map(|_| (uniform(&mut s) * 40.0).floor()).collect()),
            // One outlier stretches the range to ~1e10 bandwidths: δ ≫ 1,
            // `q` underflows to 0 and every sample reaches one point.
            ("outlier", (0..n).map(|i| if i == 0 { 1e9 } else { normal(&mut s) }).collect()),
            ("two-valued", (0..n).map(|i| (i % 2) as f64).collect()),
            ("3-row", vec![1.0, 2.0, 4.0]),
            ("2-row", vec![1.0, 2.0]),
            ("infinite ends", vec![f64::NEG_INFINITY, 0.5, 1.0, 2.5, 4.0, f64::INFINITY]),
        ];
        families.iter_mut().for_each(|(_, values)| values.sort_unstable_by(f64::total_cmp));
        families
    }

    #[test]
    fn recurrence_matches_the_direct_sum() {
        // 8000 points puts δ far below 1: thousands of steps per sample.
        for (n, grid) in [(2000, 2), (2000, 200), (300, 8000)] {
            for (name, sample) in families(n) {
                if name == "outlier" {
                    let h = silverman_bandwidth(&sample).unwrap();
                    assert!((sample[n - 1] - sample[0]) / h > 1e6, "δ is not ≫ 1");
                }
                let (xs, ys) = kde_grid(&sample, grid);
                let (want_xs, want_ys) = kde_direct(&sample, grid);
                assert_eq!(xs, want_xs, "{name} grid {grid}");
                assert_eq!(ys.len(), grid, "{name} grid {grid}");
                let peak = want_ys.iter().copied().fold(0.0, f64::max);
                assert!(peak > 0.0, "{name} grid {grid}");
                for (i, (got, want)) in ys.iter().zip(&want_ys).enumerate() {
                    let off = (got - want).abs();
                    assert!(off <= 1e-12 * peak, "{name} grid {grid} point {i}: {got} vs {want}");
                }
            }
        }
    }

    /// `kde_grid` with every sample's left and right walks run one after
    /// the other, restart by restart: what it was before the paired walks,
    /// kept as their oracle.
    fn kde_two_walks(sorted: &[f64], grid_size: usize) -> (Vec<f64>, Vec<f64>) {
        let sorted = finite_run(sorted);
        let (Some(h), Some(min), Some(max)) =
            (silverman_bandwidth(sorted), sorted.first(), sorted.last())
        else {
            return (Vec::new(), Vec::new());
        };
        let grid_size = grid_size.max(2);
        let lo = min - 3.0 * h;
        let step = (max + 3.0 * h - lo) / (grid_size - 1) as f64;
        let xs: Vec<f64> = (0..grid_size).map(|i| lo + step * i as f64).collect();
        let delta = step / h;
        let q = (-delta * delta).exp();
        let reach = (REACH / delta).ceil().min(grid_size as f64) as usize;
        let mut ys = vec![0.0f64; grid_size];
        for &v in sorted {
            let nearest = (((v - lo) / step).round() as usize).min(grid_size - 1);
            let d = (xs[nearest] - v) / h;
            let (left, right) = ys.split_at_mut(nearest);
            let (from, to) = (left.len().saturating_sub(reach), right.len().min(reach + 1));
            for (k, points) in right[..to].chunks_mut(RESEED).enumerate() {
                spread(points.iter_mut(), d + (k * RESEED) as f64 * delta, delta, q);
            }
            for (k, points) in left[from..].rchunks_mut(RESEED).enumerate() {
                spread(points.iter_mut().rev(), d - (k * RESEED + 1) as f64 * delta, -delta, q);
            }
        }
        let norm = 1.0 / (sorted.len() as f64 * h * (2.0 * std::f64::consts::PI).sqrt());
        ys.iter_mut().for_each(|y| *y *= norm);
        (xs, ys)
    }

    #[test]
    fn paired_walks_are_the_two_walks_to_the_bit() {
        // 200 points is what a report draws; at 2000 and 8000 a sample
        // reaches past one restart and takes the unpaired walks.
        let mut paired = 0;
        for grid in [2, 9, 64, 200, 2000, 8000] {
            for (name, sample) in families(500) {
                let (xs, ys) = kde_grid(&sample, grid);
                let (want_xs, want_ys) = kde_two_walks(&sample, grid);
                assert_eq!(xs, want_xs, "{name} grid {grid}");
                let bits = |v: &[f64]| v.iter().map(|y| y.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&ys), bits(&want_ys), "{name} grid {grid}");
                let h = silverman_bandwidth(&sample).unwrap();
                let reach = (REACH * h / (xs[1] - xs[0])).ceil() as usize;
                paired += usize::from(reach < RESEED);
            }
        }
        assert!(paired > 0, "no curve took the paired walks");
    }

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
        let large: Vec<f64> = (0..10000).map(|i| (i / 1000) as f64).collect();
        assert!(silverman_bandwidth(&large).unwrap() < silverman_bandwidth(&small).unwrap());
    }

    #[test]
    fn kde_integrates_to_one() {
        let data: Vec<f64> = (0..200).map(|i| ((i * 31) % 100) as f64 / 10.0).collect();
        for (name, sample) in families(500).into_iter().chain([("strided", sorted_values(&data))]) {
            if name == "outlier" {
                // Its grid is far coarser than its bandwidth: no quadrature.
                continue;
            }
            let (xs, ys) = kde_grid(&sample, 256);
            let step = xs[1] - xs[0];
            let integral: f64 = ys.iter().sum::<f64>() * step;
            assert!((integral - 1.0).abs() < 0.02, "{name}: integral = {integral}");
        }
    }

    #[test]
    fn kde_peak_near_mode() {
        // Cluster around 5 with a couple of distant points.
        let data = [0.0, 4.9, 4.95, 5.0, 5.0, 5.0, 5.05, 5.1, 10.0];
        let (xs, ys) = kde_grid(&data, 512);
        let peak_x =
            xs[ys.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0];
        assert!((peak_x - 5.0).abs() < 0.5, "peak at {peak_x}");
    }

    #[test]
    fn kde_degenerate_data_is_empty() {
        let (xs, ys) = kde_grid(&[3.0; 5], 100);
        assert!(xs.is_empty() && ys.is_empty());
        let (xs, ys) = kde_grid(&[f64::NEG_INFINITY, f64::INFINITY, f64::NAN], 100);
        assert!(xs.is_empty() && ys.is_empty());
    }

    #[test]
    fn kde_ignores_non_finite() {
        // Ascending under `total_cmp`: NaN sorts past +inf.
        let sample = [f64::NEG_INFINITY, 1.0, 2.0, 3.0, f64::INFINITY, f64::NAN];
        let (xs, ys) = kde_grid(&sample, 64);
        assert_eq!(xs.len(), 64);
        assert!(ys.iter().all(|v| v.is_finite()));
        assert_eq!((xs, ys), kde_grid(&[1.0, 2.0, 3.0], 64));
    }

    #[test]
    fn interruption_stops_the_grid_at_the_next_point() {
        use crate::interrupt::tests::{test_probe, TEST_INTERRUPT, TEST_POLLS_LEFT};
        crate::interrupt::register(test_probe);
        // One poll per block of samples, a block covering about
        // CHECK_INTERVAL grid points at `2·reach + 1` points a sample.
        let data: Vec<f64> = (0..400).map(|i| f64::from(i) / 8.0).collect();
        let (xs, _) = kde_grid(&data, 64);
        let reach = (REACH * silverman_bandwidth(&data).unwrap() / (xs[1] - xs[0])).ceil() as usize;
        let blocks = data.len().div_ceil(CHECK_INTERVAL / (2 * reach + 1));
        assert!(blocks >= 4, "{blocks} blocks");
        // The last block's poll still stops the call.
        TEST_POLLS_LEFT.with(|p| p.set(Some(blocks)));
        let (xs, ys) = kde_grid(&data, 64);
        assert!(xs.is_empty() && ys.is_empty());
        assert!(TEST_INTERRUPT.with(|f| f.get()), "fewer than {blocks} blocks were polled");
        TEST_INTERRUPT.with(|f| f.set(false));
        // One poll more than the call makes: it is never interrupted.
        TEST_POLLS_LEFT.with(|p| p.set(Some(blocks + 1)));
        assert_eq!(kde_grid(&data, 64).1.len(), 64);
        assert!(!TEST_INTERRUPT.with(|f| f.get()), "more than {blocks} polls");
        TEST_POLLS_LEFT.with(|p| p.set(None));
    }

    #[test]
    fn kde_grid_is_monotone() {
        let (xs, _) = kde_grid(&[1.0, 2.0, 3.0], 32);
        assert!(xs.windows(2).all(|w| w[0] < w[1]));
    }
}
