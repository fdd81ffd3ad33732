//! Pearson product-moment correlation, whole-slice and mergeable.

use super::complete_pairs;

/// Pearson correlation over pairwise-complete observations.
///
/// Returns `None` when fewer than 2 complete pairs remain or either side
/// has zero variance.
pub fn pearson(x: &[f64], y: &[f64]) -> Option<f64> {
    let (xs, ys) = complete_pairs(x, y);
    let mut p = PearsonPartial::new();
    // Chunked accumulation: polls the interrupt probe per CHECK_INTERVAL
    // pairs and takes the vector shape when available.
    p.push_slices(&xs, &ys);
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

    /// Build a partial directly from reduced sums — the bridge from the
    /// lane-parallel chunk kernels in [`crate::vector`], which compute
    /// the same centered moments from shifted power sums.
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

    /// Accumulate a pair of parallel slices (co-indexed columns),
    /// polling the cooperative-interruption probe every
    /// [`crate::interrupt::CHECK_INTERVAL`] pairs.
    /// Takes the vector shape when [`crate::vector::simd_enabled`].
    pub fn push_slices(&mut self, x: &[f64], y: &[f64]) {
        if crate::vector::simd_enabled() {
            crate::vector::pearson_slices(self, x, y);
            return;
        }
        let len = x.len().min(y.len());
        let step = crate::interrupt::CHECK_INTERVAL;
        let mut start = 0;
        while start < len {
            if crate::interrupt::interrupted() {
                return;
            }
            let end = (start + step).min(len);
            for (a, b) in x[start..end].iter().zip(&y[start..end]) {
                self.push(*a, *b);
            }
            start = end;
        }
    }

    /// Accumulate one pair; NaN on either side is skipped.
    #[inline]
    pub fn push(&mut self, x: f64, y: f64) {
        if x.is_nan() || y.is_nan() {
            return;
        }
        self.n += 1;
        let n = self.n as f64;
        let dx = x - self.mean_x;
        let dy = y - self.mean_y;
        self.mean_x += dx / n;
        self.mean_y += dy / n;
        // Note: uses the updated mean for one side (standard co-moment trick).
        self.m2x += dx * (x - self.mean_x);
        self.m2y += dy * (y - self.mean_y);
        self.cxy += dx * (y - self.mean_y);
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
        if self.n < 2 || self.m2x <= 0.0 || self.m2y <= 0.0 {
            return None;
        }
        Some(self.cxy / (self.m2x * self.m2y).sqrt())
    }

    /// Covariance (sample), `None` when fewer than 2 pairs.
    pub fn covariance(&self) -> Option<f64> {
        (self.n > 1).then(|| self.cxy / (self.n - 1) as f64)
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

#[cfg(test)]
mod tests {
    use super::*;

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
        let whole = {
            let mut p = PearsonPartial::new();
            for (a, b) in x.iter().zip(&y) {
                p.push(*a, *b);
            }
            p
        };
        let mut merged = PearsonPartial::new();
        for (cx, cy) in x.chunks(77).zip(y.chunks(77)) {
            let mut part = PearsonPartial::new();
            for (a, b) in cx.iter().zip(cy) {
                part.push(*a, *b);
            }
            merged.merge(&part);
        }
        assert_eq!(merged.n, whole.n);
        assert!((merged.finish().unwrap() - whole.finish().unwrap()).abs() < 1e-12);
        assert!((merged.covariance().unwrap() - whole.covariance().unwrap()).abs() < 1e-9);
    }

    #[test]
    fn symmetry() {
        let x = [3.0, 1.0, 4.0, 1.0, 5.0];
        let y = [2.0, 7.0, 1.0, 8.0, 2.0];
        assert_eq!(pearson(&x, &y), pearson(&y, &x));
    }
}
