//! Pearson product-moment correlation, whole-slice and mergeable.

use crate::interrupt::{interrupted, CHECK_INTERVAL};
use crate::vector::{reduce_sum, LANES};

/// Pearson correlation over the pairwise-complete observations of the
/// two slices' common prefix (a pair with NaN on either side is skipped).
///
/// Returns `None` when fewer than 2 complete pairs remain or either side
/// is constant on them.
pub fn pearson(x: &[f64], y: &[f64]) -> Option<f64> {
    let mut p = PearsonPartial::new();
    p.push_slices(x, y);
    p.finish()
}

/// Mergeable co-moment accumulator for Pearson correlation.
///
/// Tracks means and centered second moments with the pairwise-update
/// formulas, so per-partition partials combine exactly.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PearsonPartial {
    /// Number of complete pairs.
    pub n: u64,
    mean_x: f64,
    mean_y: f64,
    m2x: f64,
    m2y: f64,
    cxy: f64,
}

impl PearsonPartial {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a partial directly from reduced sums (the φ coefficient of
    /// [`crate::vector::phi`] computes them from counts).
    pub(crate) fn from_raw(
        n: u64,
        mean_x: f64,
        mean_y: f64,
        m2x: f64,
        m2y: f64,
        cxy: f64,
    ) -> Self {
        PearsonPartial { n, mean_x, mean_y, m2x, m2y, cxy }
    }

    /// Accumulate the common prefix of two co-indexed columns, NaN
    /// marking a value to skip: one `pearson_chunk` per
    /// [`CHECK_INTERVAL`] pairs, merged, polling the
    /// cooperative-interruption probe before each.
    pub fn push_slices(&mut self, x: &[f64], y: &[f64]) {
        let len = x.len().min(y.len());
        let (x, y) = (x.get(..len).unwrap_or(x), y.get(..len).unwrap_or(y));
        for (cx, cy) in x.chunks(CHECK_INTERVAL).zip(y.chunks(CHECK_INTERVAL)) {
            if interrupted() {
                return;
            }
            self.merge(&pearson_chunk(cx, cy));
        }
    }

    /// Merge another partial into this one.
    pub fn merge(&mut self, other: &PearsonPartial) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let na = self.n as f64;
        let nb = other.n as f64;
        let n = na + nb;
        let dx = other.mean_x - self.mean_x;
        let dy = other.mean_y - self.mean_y;
        self.m2x += other.m2x + dx * dx * na * nb / n;
        self.m2y += other.m2y + dy * dy * na * nb / n;
        self.cxy += other.cxy + dx * dy * na * nb / n;
        self.mean_x += dx * nb / n;
        self.mean_y += dy * nb / n;
        self.n += other.n;
    }

    /// The correlation coefficient, `None` when degenerate.
    pub fn finish(&self) -> Option<f64> {
        coefficient(self.n, self.m2x, self.m2y, self.cxy)
    }

    /// Means `(mean_x, mean_y)` of the accumulated pairs.
    pub fn means(&self) -> (f64, f64) {
        (self.mean_x, self.mean_y)
    }

    /// Centered second moments `(Σ(x-x̄)², Σ(y-ȳ)²)`.
    pub fn second_moments(&self) -> (f64, f64) {
        (self.m2x, self.m2y)
    }

    /// Centered co-moment `Σ(x-x̄)(y-ȳ)`.
    pub fn comoment(&self) -> f64 {
        self.cxy
    }
}

/// `cxy / sqrt(m2x · m2y)` from `n` pairs' centered moments: `None` below
/// two pairs or when a side has no spread; NaN when a moment is not
/// finite (squares past `f64::MAX`, or infinite values), where the
/// quotient would read an arbitrary 0. Where only the product overflows
/// or underflows, the two roots are taken apart. Every Pearson shape —
/// the lane pass, a centered-dot matrix cell, φ — ends here.
pub(super) fn coefficient(n: u64, m2x: f64, m2y: f64, cxy: f64) -> Option<f64> {
    if n < 2 || m2x <= 0.0 || m2y <= 0.0 {
        return None;
    }
    let m2 = m2x * m2y;
    Some(if m2.is_normal() {
        cxy / m2.sqrt()
    } else if m2x.is_finite() && m2y.is_finite() {
        cxy / (m2x.sqrt() * m2y.sqrt())
    } else {
        f64::NAN
    })
}

/// Shifted sums of one chunk, one accumulator per lane.
#[derive(Default)]
struct Lanes {
    n: [f64; LANES],
    dx: [f64; LANES],
    dy: [f64; LANES],
    xx: [f64; LANES],
    yy: [f64; LANES],
    xy: [f64; LANES],
}

impl Lanes {
    /// Add one block of `LANES` pairs, shifted by `(sx, sy)`. A pair with
    /// NaN on either side is masked to zero in its lane: no branch, no
    /// division.
    /// (Six accumulator arrays zipped, not an array of lane structs: the
    /// compiler keeps these in vector registers, and an array of structs
    /// runs at less than half the speed.)
    #[inline(always)]
    fn add(&mut self, bx: &[f64], by: &[f64], (sx, sy): (f64, f64)) {
        let Lanes { n, dx: sdx, dy: sdy, xx, yy, xy } = self;
        let lanes = n.iter_mut().zip(sdx).zip(sdy).zip(xx).zip(yy).zip(xy);
        // No poll: LANES pairs
        for ((((((n, sdx), sdy), xx), yy), xy), (&a, &b)) in lanes.zip(bx.iter().zip(by)) {
            let complete = !a.is_nan() && !b.is_nan();
            let dx = if complete { a - sx } else { 0.0 };
            let dy = if complete { b - sy } else { 0.0 };
            *n += if complete { 1.0 } else { 0.0 };
            *sdx += dx;
            *sdy += dy;
            *xx += dx * dx;
            *yy += dy * dy;
            *xy += dx * dy;
        }
    }
}

/// The partial of one chunk (two equal-length slices) in one pass over
/// the raw values: count and `Σdx, Σdy, Σdx², Σdy², Σdxdy` in [`LANES`]
/// accumulators, shifted by the chunk's first complete pair so the sums
/// stay well-conditioned — and so a side that is constant on the complete
/// pairs sums exactly zero, and [`PearsonPartial::finish`] keeps its
/// `None`. The final partial block is padded with NaN, which masks it.
fn pearson_chunk(x: &[f64], y: &[f64]) -> PearsonPartial {
    let first = x.iter().zip(y).find(|(a, b)| !a.is_nan() && !b.is_nan());
    let Some(shift) = first.map(|(&a, &b)| (a, b)) else {
        return PearsonPartial::new();
    };
    let mut s = Lanes::default();
    let (cx, cy) = (x.chunks_exact(LANES), y.chunks_exact(LANES));
    let (mut tx, mut ty) = ([f64::NAN; LANES], [f64::NAN; LANES]);
    tx.iter_mut().zip(cx.remainder()).for_each(|(t, v)| *t = *v);
    ty.iter_mut().zip(cy.remainder()).for_each(|(t, v)| *t = *v);
    // No poll: one CHECK_INTERVAL chunk; push_slices polls between chunks
    for (bx, by) in cx.zip(cy) {
        s.add(bx, by, shift);
    }
    s.add(&tx, &ty, shift);

    let n = reduce_sum(&s.n);
    let (tdx, tdy) = (reduce_sum(&s.dx), reduce_sum(&s.dy));
    // Σd² − (Σd)²/n is ≥ 0 up to rounding; the clamp keeps a NaN (from an
    // infinite value), so such a coefficient is NaN rather than `None`.
    let clamp = |m2: f64| if m2 < 0.0 { 0.0 } else { m2 };
    let (sx, sy) = shift;
    PearsonPartial {
        n: n as u64,
        mean_x: sx + tdx / n,
        mean_y: sy + tdy / n,
        m2x: clamp(reduce_sum(&s.xx) - tdx * tdx / n),
        m2y: clamp(reduce_sum(&s.yy) - tdy * tdy / n),
        cxy: reduce_sum(&s.xy) - tdx * tdy / n,
    }
}

eda_dataframe::no_heap!(PearsonPartial);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::pearson_two_pass;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
    }

    fn data(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 2654435761) % 1000) as f64 / 10.0 - 40.0).collect()
    }

    #[test]
    fn interruption_stops_push_slices_at_the_poll() {
        use crate::interrupt::tests::polled;
        // One poll before each CHECK_INTERVAL chunk: four over these slices.
        let x = data(4 * CHECK_INTERVAL);
        let y: Vec<f64> = x.iter().rev().copied().collect();
        let push = || {
            let mut p = PearsonPartial::new();
            p.push_slices(&x, &y);
            p.n
        };
        // Fired at the second poll: the first chunk is in, nothing after.
        assert_eq!(polled(2, push), (CHECK_INTERVAL as u64, 2));
        // Fired one poll past the call's last: never interrupted.
        assert_eq!(polled(5, push), (x.len() as u64, 4));
    }

    #[test]
    fn perfect_positive() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&x, &y).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_negative() {
        let x = [1.0, 2.0, 3.0];
        let y = [3.0, 2.0, 1.0];
        assert!((pearson(&x, &y).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn known_value() {
        // scipy.stats.pearsonr([1,2,3,4,5], [2,1,4,3,5]) ≈ 0.8
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [2.0, 1.0, 4.0, 3.0, 5.0];
        assert!((pearson(&x, &y).unwrap() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn constant_side_is_none() {
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), None);
        assert_eq!(pearson(&[1.0, 2.0], &[5.0, 5.0]), None);
    }

    #[test]
    fn too_few_pairs_is_none() {
        assert_eq!(pearson(&[], &[]), None);
        assert_eq!(pearson(&[1.0], &[2.0]), None);
        // NaNs shrink the effective sample.
        assert_eq!(pearson(&[1.0, f64::NAN, 3.0], &[1.0, 2.0, f64::NAN]), None);
    }

    #[test]
    fn nan_pairs_are_dropped() {
        let x = [1.0, 2.0, f64::NAN, 4.0, 5.0];
        let y = [2.0, 4.0, 100.0, 8.0, 10.0];
        assert!((pearson(&x, &y).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_single_pass() {
        let x: Vec<f64> = (0..500).map(|i| ((i * 17) % 83) as f64).collect();
        let y: Vec<f64> = (0..500).map(|i| ((i * 29) % 97) as f64 + 0.5).collect();
        let mut whole = PearsonPartial::new();
        whole.push_slices(&x, &y);
        // Chunks of 77 pairs: each ends in a partial lane block.
        let mut merged = PearsonPartial::new();
        for (cx, cy) in x.chunks(77).zip(y.chunks(77)) {
            let mut part = PearsonPartial::new();
            part.push_slices(cx, cy);
            merged.merge(&part);
        }
        assert_eq!(merged.n, whole.n);
        let oracle = pearson_two_pass(&x, &y).unwrap();
        for r in [merged.finish().unwrap(), whole.finish().unwrap()] {
            assert!(close(r, oracle, 1e-12), "{r} vs {oracle}");
        }
    }

    #[test]
    fn symmetry() {
        let x = [3.0, 1.0, 4.0, 1.0, 5.0];
        let y = [2.0, 7.0, 1.0, 8.0, 2.0];
        assert_eq!(pearson(&x, &y), pearson(&y, &x));
    }

    #[test]
    fn pearson_chunk_matches_scalar() {
        // One chunk against the oracle's two scalar passes.
        let x = data(701);
        let y: Vec<f64> = x.iter().enumerate().map(|(i, v)| v * 0.5 + (i % 7) as f64).collect();
        let vector = pearson_chunk(&x, &y);
        assert_eq!(vector.n, 701);
        let (want, got) = (pearson_two_pass(&x, &y).unwrap(), vector.finish().unwrap());
        assert!(close(got, want, 1e-12), "{got} vs {want}");
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let (mx, my) = vector.means();
        assert!(close(mx, mean(&x), 1e-12) && close(my, mean(&y), 1e-12));
    }

    #[test]
    fn pearson_chunk_skips_nan_pairs() {
        let x = [1.0, f64::NAN, 3.0, 4.0, 5.0];
        let y = [2.0, 4.0, f64::NAN, 8.0, 10.0];
        let p = pearson_chunk(&x, &y);
        assert_eq!(p.n, 3);
        assert!(close(p.finish().unwrap(), 1.0, 1e-12));
        // The shift is the first *complete* pair, so a side constant on
        // the complete pairs (but not overall) sums exactly zero.
        let x = [f64::NAN, 9.0, 2.0, 2.0, 7.0, 2.0];
        let y = [1.0, f64::NAN, 3.0, 4.0, f64::NAN, 8.0];
        assert_eq!(pearson_chunk(&x, &y).second_moments().0, 0.0);
        assert_eq!(pearson(&x, &y), None);
        // No complete pair at all.
        assert_eq!(pearson_chunk(&x[..2], &y[..2]), PearsonPartial::new());
    }

    #[test]
    fn common_prefix_of_unequal_slices() {
        let (x, y) = (data(9000), data(8200));
        let (a, b) = (pearson(&x, &y[..8100]), pearson(&x[..8100], &y[..8100]));
        assert_eq!(a, b);
        assert_eq!(pearson(&x[..5000], &y), pearson(&x[..5000], &y[..5000]));
    }
}
