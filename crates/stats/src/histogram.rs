//! Fixed-bin histograms with mergeable partials.
//!
//! The bin range is fixed at construction — in the two-phase pipeline the
//! global `[min, max]` comes from a first-pass [`crate::Moments`], after
//! which every partition fills the same bin grid and partials merge by
//! element-wise addition. This mirrors how
//! the paper computes one histogram across Dask partitions.

use eda_dataframe::{Column, HeapSize, Result, Selection};

use crate::interrupt::{interrupted, CHECK_INTERVAL};
use crate::moments::valid_runs;

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

    /// The bin `value` falls in ([`Grid::bin`]).
    #[inline]
    pub fn bin(&self, value: f64) -> Option<usize> {
        self.grid().bin(value)
    }

    /// This histogram's bin grid, its scale and edge width taken once: a
    /// caller that bins many values without counting them takes it once
    /// too.
    pub fn grid(&self) -> Grid {
        let (span, nbins) = (self.max - self.min, self.nbins() as f64);
        Grid {
            min: self.min,
            max: self.max,
            width: span / nbins,
            per_unit: nbins / span,
            last: self.nbins() as i64 - 1,
        }
    }

    /// Count `value` in its bin of `grid` (this histogram's), or in the
    /// underflow or overflow count. Non-finite values are ignored.
    #[inline]
    fn count(&mut self, grid: &Grid, value: f64) {
        match grid.bin(value) {
            Some(idx) => {
                if let Some(count) = self.counts.get_mut(idx) {
                    *count += 1;
                }
            }
            None if !value.is_finite() => {}
            None if value < self.min => self.underflow += 1,
            None => self.overflow += 1,
        }
    }

    /// Accumulate one value into its [`Histogram::bin`], or the underflow
    /// or overflow count. Non-finite values are ignored.
    #[inline]
    pub fn push(&mut self, value: f64) {
        self.count(&self.grid(), value);
    }

    /// Accumulate many values on a grid taken once. Polls the
    /// cooperative-interruption probe every [`CHECK_INTERVAL`] values and
    /// bails early when it fires (the partial grid is discarded by the
    /// scheduler).
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, values: I) {
        Fill::new(self).run(values);
    }

    /// Accumulate a contiguous slice — [`Histogram::extend`] over its
    /// values.
    pub fn fill_slice(&mut self, values: &[f64]) {
        self.extend(values.iter().copied());
    }

    /// Accumulate the non-null values in `rows` of a numeric column window
    /// (ints widened) as one [`Histogram::extend`]: with every row
    /// selected, a run between nulls at a time (the walk of
    /// [`crate::Moments::of`]; a null-free window is one run), else a
    /// selected row at a time. An error for a column that is not numeric.
    pub fn fill_column(&mut self, column: &Column, rows: Selection<'_>) -> Result<()> {
        let mut fill = Fill::new(self);
        match (rows, column.f64_values(), column.i64_values()) {
            (Selection::All, Some(floats), _) => valid_runs(column, |run| {
                fill.run(floats.get(run).unwrap_or_default().iter().copied());
            }),
            (Selection::All, None, Some(ints)) => valid_runs(column, |run| {
                fill.run(ints.get(run).unwrap_or_default().iter().map(|&v| v as f64));
            }),
            (rows, _, _) => column.for_each_numeric_in(rows, |v| fill.run([v]))?,
        }
        Ok(())
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
        let grid = self.grid();
        (0..=self.nbins() as i64).map(|i| grid.edge(i)).collect()
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

/// A histogram's bin grid ([`Histogram::grid`]): bins are left-closed at
/// their printed [`Histogram::edges`] and the last one is right-closed
/// too, so `max` lands in the last bin.
#[derive(Debug, Clone, Copy)]
pub struct Grid {
    min: f64,
    max: f64,
    /// `(max − min) / nbins`.
    width: f64,
    /// `nbins / (max − min)`.
    per_unit: f64,
    /// The last bin.
    last: i64,
}

impl Grid {
    /// Number of bins.
    pub fn nbins(&self) -> usize {
        (self.last + 1) as usize
    }

    /// The bin `value` falls in. `None` for a non-finite value and one
    /// outside `[min, max]`; a degenerate range's one bin holds `min`
    /// alone.
    #[inline]
    pub fn bin(&self, value: f64) -> Option<usize> {
        if !value.is_finite() || value < self.min {
            return None;
        }
        if self.min >= self.max {
            return (value == self.min).then_some(0);
        }
        if value > self.max {
            return None;
        }
        // A guess off by at most one bin, which the printed edges correct.
        let guess = (((value - self.min) * self.per_unit) as i64).min(self.last);
        let below = i64::from(value < self.edge(guess));
        let above = i64::from(guess < self.last && value >= self.edge(guess + 1));
        Some((guess + above - below) as usize)
    }

    /// Edge `i` of a non-degenerate range, `min + width·i`, as
    /// [`Histogram::edges`] prints it and [`Grid::bin`] places by it.
    #[inline]
    fn edge(&self, i: i64) -> f64 {
        self.min + self.width * i as f64
    }
}

/// One fill of a histogram: its grid taken once, and the interruption
/// probe polled every [`CHECK_INTERVAL`] values over every run it counts.
struct Fill<'h> {
    hist: &'h mut Histogram,
    grid: Grid,
    /// Values left before the next poll.
    until_poll: usize,
    stopped: bool,
}

impl<'h> Fill<'h> {
    fn new(hist: &'h mut Histogram) -> Self {
        let grid = hist.grid();
        Fill { hist, grid, until_poll: 0, stopped: false }
    }

    /// Count `values`, until the probe fires.
    #[inline]
    fn run(&mut self, values: impl IntoIterator<Item = f64>) {
        for value in values {
            if self.until_poll == 0 {
                if self.stopped || interrupted() {
                    self.stopped = true;
                    return;
                }
                self.until_poll = CHECK_INTERVAL;
            }
            self.until_poll -= 1;
            self.hist.count(&self.grid, value);
        }
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
    fn bin_boundaries() {
        let h = Histogram::new(0.0, 10.0, 5);
        // Every edge opens its bin; `max` closes the last one.
        for (edge, bin) in [(0.0, 0), (2.0, 1), (4.0, 2), (6.0, 3), (8.0, 4), (10.0, 4)] {
            assert_eq!(h.bin(edge), Some(bin), "edge {edge}");
        }
        assert_eq!(h.bin(1.999_999), Some(0));
        assert_eq!(h.bin(10.0_f64.next_down()), Some(4));
        for outside in [-1e-12, 0.0_f64.next_down(), 10.0_f64.next_up(), -5.0, 1e300] {
            assert_eq!(h.bin(outside), None, "{outside}");
        }
        for odd in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(h.bin(odd), None, "{odd}");
        }
        // A degenerate range is one bin holding its one point.
        let point = Histogram::new(3.0, 3.0, 5);
        assert_eq!(point.nbins(), 1);
        assert_eq!(point.bin(3.0), Some(0));
        for other in [3.0_f64.next_down(), 3.0_f64.next_up(), f64::NAN, f64::INFINITY] {
            assert_eq!(point.bin(other), None, "{other}");
        }
        // A value equal to a printed edge opens its bin, and the value just
        // below it stays in the bin before, on grids whose edges are
        // inexact too (`[0.1, 1.5]` in 20: edges 1, 3 and 15 used to land
        // one bin low).
        for (lo, hi, bins) in [(0.1, 1.5, 20), (0.3, 7.7, 9), (-2.2, 0.7, 13), (1e-3, 0.1, 50)] {
            let h = Histogram::new(lo, hi, bins);
            let edges = h.edges();
            assert_eq!(h.bin(edges[0]), Some(0));
            for (i, &edge) in edges.iter().enumerate().take(bins).skip(1) {
                assert_eq!(h.bin(edge), Some(i), "[{lo}, {hi}] in {bins}: edge {i} = {edge}");
                assert_eq!(h.bin(edge.next_down()), Some(i - 1), "below edge {i} = {edge}");
            }
            assert_eq!(h.bin(hi), Some(bins - 1));
        }
        // `push` counts exactly what `bin` places.
        let mut filled = Histogram::new(0.0, 10.0, 5);
        filled.extend([0.0, 2.0, 10.0, 10.5, -0.5, f64::NAN, f64::INFINITY]);
        assert_eq!(filled.counts, vec![1, 1, 0, 0, 1]);
        assert_eq!((filled.underflow, filled.overflow), (1, 1));
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
