//! Streaming, mergeable moment statistics.
//!
//! [`Moments`] accumulates the first four central moments plus the range
//! and value-quality counters in one pass, using the numerically stable
//! parallel update formulas of Pébay (2008). Two partials built over
//! disjoint partitions merge into exactly the state a single pass over the
//! union would produce (up to floating-point rounding) — the property the
//! partition-parallel pipeline relies on. [`Moments::of`] is the one way
//! a column window becomes a partial, whether the window is a graph
//! partition or a streamed CSV chunk.

use eda_dataframe::{Column, Result};

/// One-pass accumulator for count, mean, central moments m2..m4, extrema,
/// and data-quality counters.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Moments {
    /// Number of finite values accumulated.
    pub count: u64,
    /// Mean of finite values.
    pub mean: f64,
    /// Sum of squared deviations from the mean.
    pub m2: f64,
    /// Sum of cubed deviations.
    pub m3: f64,
    /// Sum of fourth-power deviations.
    pub m4: f64,
    /// Minimum finite value.
    pub min: f64,
    /// Maximum finite value.
    pub max: f64,
    /// Sum of finite values.
    pub sum: f64,
    /// Number of exact zeros.
    pub zeros: u64,
    /// Number of negative values.
    pub negatives: u64,
    /// Number of infinite values (excluded from the moments).
    pub infinites: u64,
    /// Number of NaN values (excluded from the moments).
    pub nans: u64,
}

impl Moments {
    /// An empty accumulator.
    pub fn new() -> Self {
        Moments { min: f64::INFINITY, max: f64::NEG_INFINITY, ..Default::default() }
    }

    /// Accumulate every value of a slice.
    pub fn from_slice(values: &[f64]) -> Self {
        let mut m = Moments::new();
        m.push_slice(values);
        m
    }

    /// Accumulate the non-null values of a numeric column window (ints
    /// widened): a null-free float window goes in as one contiguous slice.
    /// Every non-null value lands in `count`, `nans` or `infinites`, so the
    /// window's nulls are what is left of its rows. An error for a column
    /// that is not numeric.
    pub fn of(column: &Column) -> Result<Self> {
        let mut m = Moments::new();
        match column.dense_f64() {
            Some(values) => m.push_slice(values),
            None => column.for_each_numeric(|v| m.push(v))?,
        }
        Ok(m)
    }

    /// Accumulate every value of a slice. The kernel layer hands columnar
    /// windows here directly — no per-value dynamic dispatch, no staging
    /// copy of the window. Polls the cooperative-interruption probe
    /// every [`crate::interrupt::CHECK_INTERVAL`] values and bails early
    /// when it fires (the scheduler discards the partial accumulator).
    #[inline]
    pub fn push_slice(&mut self, values: &[f64]) {
        for chunk in values.chunks(crate::interrupt::CHECK_INTERVAL) {
            if crate::interrupt::interrupted() {
                return;
            }
            for &v in chunk {
                self.push(v);
            }
        }
    }

    /// Accumulate one value.
    #[inline]
    pub fn push(&mut self, value: f64) {
        if value.is_nan() {
            self.nans += 1;
            return;
        }
        if value.is_infinite() {
            self.infinites += 1;
            return;
        }
        if value == 0.0 {
            self.zeros += 1;
        }
        if value < 0.0 {
            self.negatives += 1;
        }
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.sum += value;
        if self.count == 0 {
            // The first value is the mean (added to the empty mean, 0.0,
            // so that -0.0 reads 0.0 as the update below has it), and its
            // central moments are 0. The update would get there by
            // multiplying its square by 0: NaN once the square overflows
            // (|value| > 1.3e154).
            self.count = 1;
            self.mean += value;
            return;
        }

        // Welford/Pébay incremental update.
        let n1 = self.count as f64;
        self.count += 1;
        let n = self.count as f64;
        let delta = value - self.mean;
        let delta_n = delta / n;
        let delta_n2 = delta_n * delta_n;
        let term1 = delta * delta_n * n1;
        self.mean += delta_n;
        self.m4 += term1 * delta_n2 * (n * n - 3.0 * n + 3.0)
            + 6.0 * delta_n2 * self.m2
            - 4.0 * delta_n * self.m3;
        self.m3 += term1 * delta_n * (n - 2.0) - 3.0 * delta_n * self.m2;
        self.m2 += term1;
    }

    /// Merge another partial into this one (Pébay's pairwise formulas).
    pub fn merge(&mut self, other: &Moments) {
        if other.count == 0 {
            self.zeros += other.zeros;
            self.negatives += other.negatives;
            self.infinites += other.infinites;
            self.nans += other.nans;
            return;
        }
        if self.count == 0 {
            let (zeros, negatives, infinites, nans) =
                (self.zeros, self.negatives, self.infinites, self.nans);
            *self = other.clone();
            self.zeros += zeros;
            self.negatives += negatives;
            self.infinites += infinites;
            self.nans += nans;
            return;
        }
        let na = self.count as f64;
        let nb = other.count as f64;
        let n = na + nb;
        let delta = other.mean - self.mean;
        let delta2 = delta * delta;
        let delta3 = delta2 * delta;
        let delta4 = delta2 * delta2;

        let m4 = self.m4
            + other.m4
            + delta4 * na * nb * (na * na - na * nb + nb * nb) / (n * n * n)
            + 6.0 * delta2 * (na * na * other.m2 + nb * nb * self.m2) / (n * n)
            + 4.0 * delta * (na * other.m3 - nb * self.m3) / n;
        let m3 = self.m3
            + other.m3
            + delta3 * na * nb * (na - nb) / (n * n)
            + 3.0 * delta * (na * other.m2 - nb * self.m2) / n;
        let m2 = self.m2 + other.m2 + delta2 * na * nb / n;
        let mean = self.mean + delta * nb / n;

        self.count += other.count;
        self.mean = mean;
        self.m2 = m2;
        self.m3 = m3;
        self.m4 = m4;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum += other.sum;
        self.zeros += other.zeros;
        self.negatives += other.negatives;
        self.infinites += other.infinites;
        self.nans += other.nans;
    }

    /// Sample variance (`m2 / (n-1)`), `None` when fewer than 2 values.
    pub fn variance(&self) -> Option<f64> {
        (self.count > 1).then(|| self.m2 / (self.count - 1) as f64)
    }

    /// Sample standard deviation.
    pub fn std(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Coefficient of variation (`std / mean`).
    pub fn cv(&self) -> Option<f64> {
        match (self.std(), self.mean) {
            (Some(s), m) if m != 0.0 => Some(s / m),
            _ => None,
        }
    }

    /// Skewness `g1 = sqrt(n) m3 / m2^{3/2}`, `None` when degenerate.
    pub fn skewness(&self) -> Option<f64> {
        if self.count < 2 || self.m2 <= 0.0 {
            return None;
        }
        let n = self.count as f64;
        Some(n.sqrt() * self.m3 / self.m2.powf(1.5))
    }

    /// Excess kurtosis `g2 = n m4 / m2^2 - 3`, `None` when degenerate.
    pub fn kurtosis(&self) -> Option<f64> {
        if self.count < 2 || self.m2 <= 0.0 {
            return None;
        }
        let n = self.count as f64;
        Some(n * self.m4 / (self.m2 * self.m2) - 3.0)
    }

    /// Range `max - min`, `None` when empty.
    pub fn range(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max - self.min)
    }
}

eda_dataframe::no_heap!(Moments);

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn empty_moments() {
        let m = Moments::new();
        assert_eq!(m.count, 0);
        assert_eq!(m.variance(), None);
        assert_eq!(m.skewness(), None);
        assert_eq!(m.range(), None);
    }

    #[test]
    fn basic_stats() {
        let m = Moments::from_slice(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(m.count, 8);
        assert!(close(m.mean, 5.0, 1e-12));
        assert!(close(m.variance().unwrap(), 32.0 / 7.0, 1e-12));
        assert!(close(m.std().unwrap(), (32.0f64 / 7.0).sqrt(), 1e-12));
        assert_eq!(m.min, 2.0);
        assert_eq!(m.max, 9.0);
        assert_eq!(m.sum, 40.0);
        assert_eq!(m.range(), Some(7.0));
    }

    #[test]
    fn quality_counters() {
        let m = Moments::from_slice(&[0.0, -1.0, f64::NAN, f64::INFINITY, 2.0]);
        assert_eq!(m.count, 3); // 0, -1, 2
        assert_eq!(m.zeros, 1);
        assert_eq!(m.negatives, 1);
        assert_eq!(m.nans, 1);
        assert_eq!(m.infinites, 1);
    }

    #[test]
    fn skewness_of_symmetric_data_is_zero() {
        let m = Moments::from_slice(&[-2.0, -1.0, 0.0, 1.0, 2.0]);
        assert!(close(m.skewness().unwrap(), 0.0, 1e-12));
    }

    #[test]
    fn skewness_sign() {
        // Long right tail => positive skew.
        let right = Moments::from_slice(&[1.0, 1.0, 1.0, 2.0, 10.0]);
        assert!(right.skewness().unwrap() > 0.0);
        let left = Moments::from_slice(&[-10.0, -2.0, -1.0, -1.0, -1.0]);
        assert!(left.skewness().unwrap() < 0.0);
    }

    #[test]
    fn kurtosis_of_uniform_is_negative() {
        // Discrete uniform has excess kurtosis < 0.
        let vals: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let m = Moments::from_slice(&vals);
        assert!(m.kurtosis().unwrap() < 0.0);
    }

    #[test]
    fn constant_column_degenerate() {
        let m = Moments::from_slice(&[3.0; 10]);
        assert_eq!(m.variance().unwrap(), 0.0);
        assert_eq!(m.skewness(), None);
        assert_eq!(m.kurtosis(), None);
    }

    #[test]
    fn merge_equals_single_pass() {
        let data: Vec<f64> = (0..1000).map(|i| ((i * 37) % 101) as f64 - 50.0).collect();
        let whole = Moments::from_slice(&data);
        let mut merged = Moments::from_slice(&data[..313]);
        merged.merge(&Moments::from_slice(&data[313..700]));
        merged.merge(&Moments::from_slice(&data[700..]));
        assert_eq!(merged.count, whole.count);
        assert!(close(merged.mean, whole.mean, 1e-10));
        assert!(close(merged.m2, whole.m2, 1e-10));
        assert!(close(merged.m3, whole.m3, 1e-8));
        assert!(close(merged.m4, whole.m4, 1e-8));
        assert_eq!(merged.min, whole.min);
        assert_eq!(merged.max, whole.max);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let a = Moments::from_slice(&[1.0, 2.0, 3.0]);
        let mut left = a.clone();
        left.merge(&Moments::new());
        assert_eq!(left, a);
        let mut right = Moments::new();
        right.merge(&a);
        assert_eq!(right, a);
    }

    #[test]
    fn interrupted_push_slice_bails_at_chunk_boundary() {
        use crate::interrupt::{self, tests::TEST_INTERRUPT};
        interrupt::register(interrupt::tests::test_probe);
        let data = vec![1.0; interrupt::CHECK_INTERVAL * 3];

        // Probe clear: the full slice accumulates.
        let mut full = Moments::new();
        full.push_slice(&data);
        assert_eq!(full.count, data.len() as u64);

        // Probe set: the kernel bails before the first chunk.
        TEST_INTERRUPT.with(|f| f.set(true));
        let mut bailed = Moments::new();
        bailed.push_slice(&data);
        TEST_INTERRUPT.with(|f| f.set(false));
        assert_eq!(bailed.count, 0);
    }

    #[test]
    fn a_column_window_counts_its_values_and_nothing_at_its_nulls() {
        let floats = Column::from_opt_f64(vec![Some(1.0), None, Some(f64::NAN), Some(f64::INFINITY), Some(-2.0)]);
        let m = Moments::of(&floats).unwrap();
        assert_eq!((m.count, m.nans, m.infinites, m.negatives), (2, 1, 1, 1));
        assert_eq!(m, Moments::from_slice(&[1.0, f64::NAN, f64::INFINITY, -2.0]));
        // A null-free window of a column with nulls takes the slice path.
        assert_eq!(Moments::of(&floats.slice(2, 3)).unwrap(), Moments::from_slice(&[f64::NAN, f64::INFINITY, -2.0]));
        let ints = Column::from_opt_i64(vec![Some(3), None, Some(-4)]);
        assert_eq!(Moments::of(&ints).unwrap(), Moments::from_slice(&[3.0, -4.0]));
        assert!(Moments::of(&Column::from_strs(&["a"])).is_err());
    }

    #[test]
    fn cv_requires_nonzero_mean() {
        let m = Moments::from_slice(&[-1.0, 1.0]);
        assert_eq!(m.cv(), None);
        let m2 = Moments::from_slice(&[1.0, 3.0]);
        assert!(m2.cv().unwrap() > 0.0);
    }
}
