//! Fixed-bin histograms with mergeable partials.
//!
//! The bin range is fixed at construction — in the two-phase pipeline the
//! global `[min, max]` comes from a first-pass [`crate::Moments`] (or the
//! precomputed chunk metadata), after which every partition fills the same
//! bin grid and partials merge by element-wise addition. This mirrors how
//! the paper computes one histogram across Dask partitions.

use eda_dataframe::HeapSize;

/// A histogram over `[min, max]` with equal-width bins.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Inclusive lower bound of the first bin.
    pub min: f64,
    /// Inclusive upper bound of the last bin.
    pub max: f64,
    /// Per-bin counts.
    pub counts: Vec<u64>,
    /// Values below `min` (possible when the range was estimated).
    pub underflow: u64,
    /// Values above `max`.
    pub overflow: u64,
}

impl Histogram {
    /// An empty histogram with `bins` equal-width bins over `[min, max]`.
    ///
    /// Degenerate ranges (`min == max`, or non-finite bounds) collapse to a
    /// single bin that captures everything equal to `min`.
    pub fn new(min: f64, max: f64, bins: usize) -> Histogram {
        let bins = bins.max(1);
        if !min.is_finite() || !max.is_finite() || min >= max {
            return Histogram { min, max: min, counts: vec![0; 1], underflow: 0, overflow: 0 };
        }
        Histogram { min, max, counts: vec![0; bins], underflow: 0, overflow: 0 }
    }

    /// Build over a slice using its own extrema for the range.
    pub fn from_values(values: &[f64], bins: usize) -> Histogram {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &v in values {
            if v.is_finite() {
                min = min.min(v);
                max = max.max(v);
            }
        }
        let mut h = Histogram::new(min, max, bins);
        h.fill_slice(values);
        h
    }

    /// Number of bins.
    pub fn nbins(&self) -> usize {
        self.counts.len()
    }

    /// Whether the range is degenerate (single-point).
    pub fn is_degenerate(&self) -> bool {
        self.min >= self.max
    }

    /// Accumulate one value. Non-finite values are ignored.
    #[inline]
    pub fn push(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        if self.is_degenerate() {
            if value == self.min {
                if let Some(count) = self.counts.first_mut() {
                    *count += 1;
                }
            } else if value < self.min {
                self.underflow += 1;
            } else {
                self.overflow += 1;
            }
            return;
        }
        if value < self.min {
            self.underflow += 1;
            return;
        }
        if value > self.max {
            self.overflow += 1;
            return;
        }
        let width = (self.max - self.min) / self.nbins() as f64;
        // The maximum falls into the last bin (right-closed final bin).
        let idx = (((value - self.min) / width) as usize).min(self.nbins().saturating_sub(1));
        if let Some(count) = self.counts.get_mut(idx) {
            *count += 1;
        }
    }

    /// Accumulate many values. Polls the cooperative-interruption probe
    /// every [`crate::interrupt::CHECK_INTERVAL`] values and bails early
    /// when it fires (the partial grid is discarded by the scheduler).
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, values: I) {
        for (i, v) in values.into_iter().enumerate() {
            if i % crate::interrupt::CHECK_INTERVAL == 0 && crate::interrupt::interrupted() {
                return;
            }
            self.push(v);
        }
    }

    /// Accumulate a contiguous slice — the columnar-window entry point,
    /// [`Histogram::extend`] over its values.
    pub fn fill_slice(&mut self, values: &[f64]) {
        self.extend(values.iter().copied());
    }

    /// Merge a partial built over the identical bin grid.
    ///
    /// Panics if the grids differ — partials must come from the same plan.
    pub fn merge(&mut self, other: &Histogram) {
        self.merge_with(other, |a, b| a + b);
    }

    /// Combine every counter with `other`'s over the identical grid.
    fn merge_with(&mut self, other: &Histogram, op: impl Fn(u64, u64) -> u64) {
        assert_eq!(self.min, other.min, "histogram grids differ (min)");
        assert_eq!(self.max, other.max, "histogram grids differ (max)");
        assert_eq!(self.nbins(), other.nbins(), "histogram grids differ (bins)");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a = op(*a, *b);
        }
        self.underflow = op(self.underflow, other.underflow);
        self.overflow = op(self.overflow, other.overflow);
    }

    /// The histogram of the values that remain once those counted in
    /// `dropped` are removed. `dropped` must be filled over the identical
    /// grid, through the same entry point, from a subset of the values
    /// counted here; counts are integers, so the result equals filling
    /// the remaining values from scratch.
    ///
    /// Panics if the grids differ — both sides must come from the same plan.
    pub fn minus(&self, dropped: &Histogram) -> Histogram {
        let mut out = self.clone();
        out.merge_with(dropped, u64::saturating_sub);
        out
    }

    /// Total count captured in bins (excluding under/overflow).
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// All bin boundaries (length `nbins + 1`).
    pub fn edges(&self) -> Vec<f64> {
        if self.is_degenerate() {
            return vec![self.min, self.min];
        }
        let width = (self.max - self.min) / self.nbins() as f64;
        (0..=self.nbins())
            .map(|i| self.min + width * i as f64)
            .collect()
    }

    /// Normalized bin heights (sum to 1), or zeros when empty.
    pub fn density(&self) -> Vec<f64> {
        let total = self.total() as f64;
        if total == 0.0 {
            return vec![0.0; self.nbins()];
        }
        self.counts.iter().map(|&c| c as f64 / total).collect()
    }
}

impl HeapSize for Histogram {
    fn heap_bytes(&self) -> usize {
        self.counts.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_bins() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.extend([0.0, 1.9, 2.0, 5.5, 9.9, 10.0]);
        assert_eq!(h.counts, vec![2, 1, 1, 0, 2]);
        assert_eq!(h.total(), 6);
    }

    #[test]
    fn max_value_lands_in_last_bin() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.push(1.0);
        assert_eq!(h.counts[3], 1);
        assert_eq!(h.overflow, 0);
    }

    #[test]
    fn out_of_range_counted_separately() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.push(-0.5);
        h.push(1.5);
        assert_eq!(h.underflow, 1);
        assert_eq!(h.overflow, 1);
        assert_eq!(h.total(), 0);
    }

    #[test]
    fn non_finite_ignored() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.push(f64::NAN);
        h.push(f64::INFINITY);
        assert_eq!(h.total(), 0);
        assert_eq!(h.underflow + h.overflow, 0);
    }

    #[test]
    fn degenerate_range_single_bin() {
        let h = Histogram::from_values(&[5.0, 5.0, 5.0], 10);
        assert_eq!(h.nbins(), 1);
        assert_eq!(h.total(), 3);
        assert!(h.is_degenerate());
    }

    #[test]
    fn empty_input_degenerate() {
        let h = Histogram::from_values(&[], 10);
        assert_eq!(h.total(), 0);
        assert_eq!(h.nbins(), 1);
    }

    #[test]
    fn merge_partials_equals_whole() {
        let data: Vec<f64> = (0..500).map(|i| (i % 97) as f64).collect();
        let whole = {
            let mut h = Histogram::new(0.0, 96.0, 20);
            h.extend(data.iter().copied());
            h
        };
        let mut merged = Histogram::new(0.0, 96.0, 20);
        for chunk in data.chunks(123) {
            let mut part = Histogram::new(0.0, 96.0, 20);
            part.extend(chunk.iter().copied());
            merged.merge(&part);
        }
        assert_eq!(merged, whole);
    }

    #[test]
    fn minus_equals_filling_the_remaining_values() {
        let data: Vec<f64> = (0..500).map(|i| (i % 97) as f64 - 3.0).collect();
        let fill = |values: &mut dyn Iterator<Item = f64>| {
            // Range narrower than the data, so under/overflow subtract too.
            let mut h = Histogram::new(0.0, 90.0, 12);
            h.extend(values);
            h
        };
        let before = fill(&mut data.iter().copied());
        let dropped = fill(&mut data.iter().copied().step_by(3));
        let kept = fill(&mut data.iter().copied().enumerate().filter(|(i, _)| i % 3 != 0).map(|(_, v)| v));
        assert_eq!(before.minus(&dropped), kept);
        assert_eq!(before.minus(&Histogram::new(0.0, 90.0, 12)), before);
    }

    #[test]
    #[should_panic(expected = "grids differ")]
    fn merge_mismatched_grids_panics() {
        let mut a = Histogram::new(0.0, 1.0, 4);
        let b = Histogram::new(0.0, 2.0, 4);
        a.merge(&b);
    }

    #[test]
    fn interruption_stops_extend_at_the_poll() {
        use crate::interrupt::{tests::polled, CHECK_INTERVAL};
        // One poll per CHECK_INTERVAL values: four over this input.
        let data: Vec<f64> = (0..4 * CHECK_INTERVAL).map(|i| (i % 97) as f64).collect();
        let fill = || {
            let mut h = Histogram::new(0.0, 96.0, 20);
            h.fill_slice(&data);
            h.total()
        };
        // Fired at the second poll: the first block is in, nothing after.
        assert_eq!(polled(2, fill), (CHECK_INTERVAL as u64, 2));
        // Fired one poll past the call's last: never interrupted.
        assert_eq!(polled(5, fill), (data.len() as u64, 4));
    }

    #[test]
    fn edges_are_uniform() {
        let h = Histogram::new(0.0, 10.0, 5);
        assert_eq!(h.edges(), vec![0.0, 2.0, 4.0, 6.0, 8.0, 10.0]);
    }

    #[test]
    fn density_sums_to_one() {
        let h = Histogram::from_values(&[1.0, 2.0, 3.0, 4.0], 4);
        let sum: f64 = h.density().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }
}
