//! Streaming, mergeable moment statistics.
//!
//! [`Moments`] accumulates the first four central moments plus the range
//! and value-quality counters, a block of 1,024 values at a time: one
//! lane pass gives the block's sum, range, zeros, negatives and mean, a
//! second pass over the same block (still in L1) its Σd², Σd³ and Σd⁴,
//! and blocks merge with the parallel update formulas of Pébay (2008). Two partials built over disjoint partitions merge into the
//! state a single pass over the union would produce (up to floating-point
//! rounding) — the property the partition-parallel pipeline relies on.
//! [`Moments::of`] is the one way a column window becomes a partial,
//! whether the window is a graph partition or a streamed CSV chunk.

use std::ops::Range;

use eda_dataframe::{Column, Error, Result};

use crate::interrupt::{interrupted, CHECK_INTERVAL};
use crate::vector::{reduce_sum, LANES};

/// Values per block: read twice, and at 8 KiB still in L1 the second
/// time. [`CHECK_INTERVAL`] is a whole number of blocks.
const BLOCK: usize = 1024;

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
    /// widened): a null-free float window goes in as one contiguous slice,
    /// any other is gathered, a run between nulls at a time, into the same
    /// blocks. Every non-null value lands in `count`, `nans` or
    /// `infinites`, so the window's nulls are what is left of its rows.
    /// An error for a column that is not numeric.
    pub fn of(column: &Column) -> Result<Self> {
        let mut m = Moments::new();
        if let Some(values) = column.dense_f64() {
            m.push_slice(values);
            return Ok(m);
        }
        let mut blocks = Blocks::new();
        match (column.f64_values(), column.i64_values()) {
            (Some(floats), _) => valid_runs(column, |rows| {
                blocks.push_run(floats.get(rows).unwrap_or_default(), |v| v);
            }),
            (None, Some(ints)) => valid_runs(column, |rows| {
                blocks.push_run(ints.get(rows).unwrap_or_default(), |v| v as f64);
            }),
            (None, None) => {
                return Err(Error::TypeMismatch {
                    context: "Moments::of".into(),
                    expected: "numeric",
                    got: column.dtype().name(),
                })
            }
        }
        m.merge(&blocks.finish());
        Ok(m)
    }

    /// Accumulate every value of a slice. The kernel layer hands columnar
    /// windows here directly — no per-value dynamic dispatch, no staging
    /// copy of the window. Polls the cooperative-interruption probe
    /// every [`CHECK_INTERVAL`] values and stops early when it fires,
    /// keeping what it folded before (the scheduler discards the partial
    /// accumulator).
    pub fn push_slice(&mut self, values: &[f64]) {
        let mut fold = Fold::new();
        for chunk in values.chunks(CHECK_INTERVAL) {
            if interrupted() {
                break;
            }
            chunk.chunks(BLOCK).for_each(|block| fold.block(block));
        }
        self.merge(&fold.finish());
    }

    /// Accumulate one value, merged as a block of its own (the partial a
    /// one-value slice folds to, built directly): for a caller that meets
    /// values one at a time and keeps no batch of them. Values that can
    /// be batched fold faster, and to other bits, through
    /// [`Moments::extend`].
    pub fn push(&mut self, value: f64) {
        let one = if value.is_finite() {
            Moments {
                count: 1,
                // Added to 0.0, as a block's mean about its shift is, so
                // that -0.0 reads 0.0.
                mean: 0.0 + value,
                min: value,
                max: value,
                sum: value,
                zeros: u64::from(value == 0.0),
                negatives: u64::from(value < 0.0),
                ..Moments::new()
            }
        } else {
            let infinites = u64::from(value.is_infinite());
            Moments { infinites, nans: 1 - infinites, ..Moments::new() }
        };
        self.merge(&one);
    }

    /// Accumulate values that come one at a time, gathered into the blocks
    /// [`Moments::push_slice`] would cut from them as one slice (and so to
    /// the same bits).
    pub fn extend(&mut self, values: impl IntoIterator<Item = f64>) {
        let mut blocks = Blocks::new();
        values.into_iter().for_each(|v| blocks.push_run(&[v], |v| v));
        self.merge(&blocks.finish());
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

/// Blocks merged about one shift, the first finite value folded: each
/// block's deviations are taken from its mean relative to the shift, a
/// number near the data's spread, not from a mean rounded to an ulp of
/// the data's magnitude. `finish` moves the mean back.
struct Fold {
    shift: Option<f64>,
    about: Moments,
}

impl Fold {
    fn new() -> Self {
        Fold { shift: None, about: Moments::new() }
    }

    fn block(&mut self, values: &[f64]) {
        let shift = match self.shift {
            Some(shift) => shift,
            None => {
                self.shift = values.iter().copied().find(|v| v.is_finite());
                self.shift.unwrap_or(0.0)
            }
        };
        self.about.merge(&block(values, shift));
    }

    fn finish(self) -> Moments {
        let mut m = self.about;
        if let (Some(shift), true) = (self.shift, m.count > 0) {
            m.mean += shift;
        }
        m
    }
}

/// The runs of valid rows of a column window, in order: the rows between
/// its nulls (some runs empty).
pub(crate) fn valid_runs(column: &Column, mut f: impl FnMut(Range<usize>)) {
    let mut start = 0;
    if let Some(validity) = column.validity() {
        validity.for_each_unset(|null| {
            f(start..null);
            start = null + 1;
        });
    }
    f(start..column.len());
}

/// Values that come a run at a time, folded [`BLOCK`] at a time.
struct Blocks {
    fold: Fold,
    values: [f64; BLOCK],
    len: usize,
}

impl Blocks {
    fn new() -> Self {
        Blocks { fold: Fold::new(), values: [0.0; BLOCK], len: 0 }
    }

    /// Append `run`, each value read as `to_f64` reads it.
    #[inline]
    fn push_run<T: Copy>(&mut self, mut run: &[T], to_f64: impl Fn(T) -> f64) {
        while !run.is_empty() {
            let free = self.values.get_mut(self.len..).unwrap_or_default();
            let taken = free.len().min(run.len());
            free.iter_mut().zip(run).for_each(|(slot, &v)| *slot = to_f64(v));
            run = run.get(taken..).unwrap_or_default();
            self.len += taken;
            if self.len == BLOCK {
                self.fold.block(&self.values);
                self.len = 0;
            }
        }
    }

    fn finish(mut self) -> Moments {
        self.fold.block(self.values.get(..self.len).unwrap_or_default());
        self.fold.finish()
    }
}

/// The first pass over a block of finite values, one accumulator per
/// lane: their sum, their sum about the shift, their range and the
/// zeros and negatives among them.
struct Level {
    sum: [f64; LANES],
    shifted: [f64; LANES],
    min: [f64; LANES],
    max: [f64; LANES],
    zeros: [f64; LANES],
    negatives: [f64; LANES],
}

impl Level {
    fn of(values: &[f64], shift: f64) -> Level {
        let mut level = Level {
            sum: [0.0; LANES],
            shifted: [0.0; LANES],
            min: [f64::INFINITY; LANES],
            max: [f64::NEG_INFINITY; LANES],
            zeros: [0.0; LANES],
            negatives: [0.0; LANES],
        };
        let (words, rest) = values.as_chunks::<LANES>();
        words.iter().for_each(|word| level.add(word, shift));
        level.add(rest, shift);
        level
    }

    /// Add up to [`LANES`] values, value `i` in lane `i`.
    /// (Accumulator arrays zipped, not an array of lane structs, as in
    /// the Pearson kernel.)
    #[inline(always)]
    fn add(&mut self, word: &[f64], shift: f64) {
        let Level { sum, shifted, min, max, zeros, negatives } = self;
        let lanes = sum.iter_mut().zip(shifted).zip(min).zip(max).zip(zeros).zip(negatives);
        // No poll: LANES values
        for ((((((sum, shifted), min), max), zeros), negatives), &v) in lanes.zip(word) {
            *sum += v;
            *shifted += v - shift;
            *min = if v < *min { v } else { *min };
            *max = if v > *max { v } else { *max };
            *zeros += if v == 0.0 { 1.0 } else { 0.0 };
            *negatives += if v < 0.0 { 1.0 } else { 0.0 };
        }
    }

    /// The partial of `values`, the block this pass read, from a second
    /// pass for Σd², Σd³ and Σd⁴ about their mean.
    fn spread(self, values: &[f64], shift: f64) -> Moments {
        if values.is_empty() {
            return Moments::new();
        }
        let n = values.len() as f64;
        let mean = reduce_sum(&self.shifted) / n;
        let mut powers = [[0.0; LANES]; 3];
        let mut add = |word: &[f64]| {
            let [s2, s3, s4] = &mut powers;
            // No poll: LANES values
            for (((s2, s3), s4), &v) in s2.iter_mut().zip(s3).zip(s4).zip(word) {
                let d = (v - shift) - mean;
                let d2 = d * d;
                *s2 += d2;
                *s3 += d2 * d;
                *s4 += d2 * d2;
            }
        };
        let (words, rest) = values.as_chunks::<LANES>();
        words.iter().for_each(|word| add(word));
        add(rest);
        let [s2, s3, s4] = &powers;
        Moments {
            count: values.len() as u64,
            mean,
            m2: reduce_sum(s2),
            m3: reduce_sum(s3),
            m4: reduce_sum(s4),
            min: self.min.iter().fold(f64::INFINITY, |m, &v| if v < m { v } else { m }),
            max: self.max.iter().fold(f64::NEG_INFINITY, |m, &v| if v > m { v } else { m }),
            sum: reduce_sum(&self.sum),
            zeros: reduce_sum(&self.zeros) as u64,
            negatives: reduce_sum(&self.negatives) as u64,
            infinites: 0,
            nans: 0,
        }
    }
}

/// The partial of one block of at most [`BLOCK`] values, its mean taken
/// about `shift` (the range, sum and counters are the values' own). The
/// lanes add every value unmasked: a block whose sum about the shift is
/// not finite holds a NaN or an infinity (or overflowed), and only then
/// are its finite values gathered and the passes run over them.
fn block(values: &[f64], shift: f64) -> Moments {
    let level = Level::of(values, shift);
    if reduce_sum(&level.shifted).is_finite() {
        return level.spread(values, shift);
    }
    let mut kept = [0.0; BLOCK];
    let (mut len, mut infinites) = (0, 0);
    for &v in values {
        if let (true, Some(slot)) = (v.is_finite(), kept.get_mut(len)) {
            *slot = v;
            len += 1;
        }
        infinites += u64::from(v.is_infinite());
    }
    let kept = kept.get(..len).unwrap_or_default();
    let nans = (values.len() - len) as u64 - infinites;
    Moments { infinites, nans, ..Level::of(kept, shift).spread(kept, shift) }
}

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
    fn gathered_windows_fold_the_blocks_of_their_values() {
        // Runs between nulls cross block edges; the gathered fold is the
        // slice fold of the same values, to the bit.
        let rows = 3 * BLOCK + 17;
        let value = |i: usize| ((i * 7919) % 1013) as f64 - 300.0;
        let null = |i: usize| i % 7 == 3 || (900..1200).contains(&i);
        let kept: Vec<f64> = (0..rows).filter(|&i| !null(i)).map(value).collect();
        let floats =
            Column::from_opt_f64((0..rows).map(|i| (!null(i)).then(|| value(i))).collect());
        let ints =
            Column::from_opt_i64((0..rows).map(|i| (!null(i)).then(|| value(i) as i64)).collect());
        assert_eq!(Moments::of(&floats).unwrap(), Moments::from_slice(&kept));
        assert_eq!(Moments::of(&ints).unwrap(), Moments::from_slice(&kept));
        let mut extended = Moments::new();
        extended.extend(kept.iter().copied());
        assert_eq!(extended, Moments::from_slice(&kept));
    }

    #[test]
    fn one_pushed_value_is_a_block_of_one() {
        for v in [2.5, -3.0, 0.0, -0.0, 1e300, f64::MAX, f64::NAN, f64::INFINITY, -f64::INFINITY] {
            let mut pushed = Moments::new();
            pushed.push(v);
            let folded = Moments::from_slice(&[v]);
            assert_eq!(pushed, folded, "{v}");
            assert_eq!(pushed.mean.to_bits(), folded.mean.to_bits(), "{v}");
        }
        let mut pushed = Moments::from_slice(&[1.0, 2.0]);
        pushed.push(4.0);
        let mut merged = Moments::from_slice(&[1.0, 2.0]);
        merged.merge(&Moments::from_slice(&[4.0]));
        assert_eq!(pushed, merged);
    }

    #[test]
    fn cv_requires_nonzero_mean() {
        let m = Moments::from_slice(&[-1.0, 1.0]);
        assert_eq!(m.cv(), None);
        let m2 = Moments::from_slice(&[1.0, 3.0]);
        assert!(m2.cv().unwrap() > 0.0);
    }
}
