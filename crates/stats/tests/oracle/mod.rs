//! Independent oracles, shared by `prop_kernels.rs`, the unit tests of
//! `eda-stats` (whose crate root includes this file by path) and the
//! workspace's own tests. Nothing here calls into `eda_stats`.
//! For Kendall, the O(n²) double loop is the check the production cell
//! is held against, and the Fenwick tree counts inversions at sizes the
//! double loop is too slow for. For Pearson and rank-once
//! Spearman, a two-pass compensated co-moment — no streaming update, no
//! lanes, no chunks; for a column's moments, the same two passes. For the
//! KDE curve, the direct sum over every (value, grid point) pair. For
//! frequency tables, counts in a `BTreeMap` keyed by name, ranked by a
//! full sort; for word tables, each row split into owned tokens and
//! counted one by one.

#![allow(dead_code)]

use std::collections::BTreeMap;

/// The rows where neither side is NaN.
fn complete_pairs(x: &[f64], y: &[f64]) -> (Vec<f64>, Vec<f64>) {
    assert_eq!(x.len(), y.len());
    x.iter().zip(y).filter(|(a, b)| !a.is_nan() && !b.is_nan()).map(|(a, b)| (*a, *b)).unzip()
}

/// Neumaier-compensated sum; the plain sum once that is `±inf` or NaN
/// (the carry of an overflowed sum is NaN).
fn compensated_sum(values: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut carry) = (0.0f64, 0.0f64);
    for v in values {
        let t = sum + v;
        carry += if sum.abs() >= v.abs() { (sum - t) + v } else { (v - t) + sum };
        sum = t;
    }
    if sum.is_finite() {
        sum + carry
    } else {
        sum
    }
}

/// Pearson over the pairwise-complete rows by two passes: the means, then
/// the centered sums with the compensated correction term
/// (`Σd² − (Σd)²/n`, Björck). `None` under the rules every Pearson path
/// keeps: fewer than two complete pairs, or a side constant on them; NaN
/// where a sum of squares is not finite, and the two roots taken apart
/// where only their product overflows or underflows.
pub fn pearson_two_pass(x: &[f64], y: &[f64]) -> Option<f64> {
    let (xs, ys) = complete_pairs(x, y);
    let n = xs.len();
    let constant = |v: &[f64]| v.iter().all(|&a| a == v[0]);
    if n < 2 || constant(&xs) || constant(&ys) {
        return None;
    }
    let nf = n as f64;
    let mx = compensated_sum(xs.iter().copied()) / nf;
    let my = compensated_sum(ys.iter().copied()) / nf;
    let dx: Vec<f64> = xs.iter().map(|a| a - mx).collect();
    let dy: Vec<f64> = ys.iter().map(|b| b - my).collect();
    let (sx, sy) = (compensated_sum(dx.iter().copied()), compensated_sum(dy.iter().copied()));
    let sxx = compensated_sum(dx.iter().map(|d| d * d)) - sx * sx / nf;
    let syy = compensated_sum(dy.iter().map(|d| d * d)) - sy * sy / nf;
    let sxy = compensated_sum(dx.iter().zip(&dy).map(|(a, b)| a * b)) - sx * sy / nf;
    let m2 = sxx * syy;
    Some(if m2.is_normal() {
        sxy / m2.sqrt()
    } else if sxx.is_finite() && syy.is_finite() {
        sxy / (sxx.sqrt() * syy.sqrt())
    } else {
        f64::NAN
    })
}

/// A column's moments and value-quality counters, kept the way a
/// streaming accumulator keeps them: moments over the finite values only,
/// `variance` the sample variance (`m2 / (n − 1)`), `skewness`
/// `√n·m3 / m2^{3/2}` and `kurtosis` the excess `n·m4 / m2² − 3`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoPassMoments {
    /// Finite values.
    pub count: u64,
    /// Their mean; NaN when there is none.
    pub mean: f64,
    /// `None` below two finite values.
    pub variance: Option<f64>,
    /// `None` below two finite values or without spread.
    pub skewness: Option<f64>,
    /// `None` below two finite values or without spread.
    pub kurtosis: Option<f64>,
    /// Smallest finite value; `+inf` when there is none.
    pub min: f64,
    /// Largest finite value; `-inf` when there is none.
    pub max: f64,
    /// Values equal to zero.
    pub zeros: u64,
    /// Finite values below zero.
    pub negatives: u64,
    /// `±inf` values.
    pub infinites: u64,
    /// NaN values.
    pub nans: u64,
}

/// [`TwoPassMoments`] of `values` by two passes: the mean as a
/// compensated sum of the offsets from the first finite value (so a
/// constant column's deviations are exactly zero), then compensated sums
/// of the deviations' powers, each corrected for the mean's rounding
/// (`m2 = Σd² − (Σd)²/n`, and the same expansion for `m3` and `m4`).
/// Where the powers overflow (deviations past `f64::MAX^(1/k)`), a
/// moment is `inf` or NaN, never a finite number.
pub fn two_pass_moments(values: &[f64]) -> TwoPassMoments {
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    let count = |keep: fn(&f64) -> bool| values.iter().filter(|v| keep(v)).count() as u64;
    let n = finite.len();
    let nf = n as f64;
    let shift = finite.first().copied().unwrap_or(0.0);
    let mean = shift + compensated_sum(finite.iter().map(|v| v - shift)) / nf;
    let d: Vec<f64> = finite.iter().map(|v| v - mean).collect();
    let power_sum = |k: i32| compensated_sum(d.iter().map(|d| d.powi(k)));
    let (s2, s3, s4) = (power_sum(2), power_sum(3), power_sum(4));
    // Each deviation from the rounded mean is exact (Sterbenz), and
    // `c = Σd/n` is what rounding the mean lost: the moments about the
    // mean itself follow from the binomial expansion in `c`.
    let c = compensated_sum(d.iter().copied()) / nf;
    let m2 = if s2.is_finite() { s2 - nf * c * c } else { s2 };
    let m3 = if s3.is_finite() { s3 - 3.0 * c * s2 + 2.0 * nf * c.powi(3) } else { s3 };
    let m4 = if s4.is_finite() {
        s4 - 4.0 * c * s3 + 6.0 * c * c * s2 - 3.0 * nf * c.powi(4)
    } else {
        s4
    };
    let spread = n >= 2 && m2 > 0.0;
    TwoPassMoments {
        count: n as u64,
        mean: if n == 0 { f64::NAN } else { mean },
        variance: (n >= 2).then(|| m2 / (nf - 1.0)),
        skewness: spread.then(|| nf.sqrt() * m3 / m2.powf(1.5)),
        kurtosis: spread.then(|| nf * m4 / (m2 * m2) - 3.0),
        min: finite.iter().copied().fold(f64::INFINITY, f64::min),
        max: finite.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        zeros: count(|v| *v == 0.0),
        negatives: count(|v| v.is_finite() && *v < 0.0),
        infinites: count(|v| v.is_infinite()),
        nans: count(|v| v.is_nan()),
    }
}

/// Silverman's rule of thumb over the finite values,
/// `0.9 · min(σ̂, IQR/1.34) · n^(-1/5)` (σ̂ alone when the IQR is 0), by
/// its own sort, [`two_pass_moments`] and type-7 (linearly interpolated)
/// quartiles. `None` below two finite values or without spread.
pub fn silverman(values: &[f64]) -> Option<f64> {
    let mut finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    finite.sort_by(f64::total_cmp);
    let n = finite.len();
    let std = two_pass_moments(&finite).variance?.sqrt();
    let quartile = |q: f64| {
        let pos = q * (n - 1) as f64;
        let (lo, hi) = (finite[pos.floor() as usize], finite[pos.ceil() as usize]);
        lo + (hi - lo) * (pos - pos.floor())
    };
    let iqr = quartile(0.75) - quartile(0.25);
    let spread = if iqr > 0.0 { std.min(iqr / 1.34) } else { std };
    (spread > 0.0).then(|| 0.9 * spread * (n as f64).powf(-0.2))
}

/// The Gaussian KDE of the finite values with bandwidth `h`, by the
/// direct sum: every one of `grid_size` (at least 2) evenly spaced points
/// over `[min − 3h, max + 3h]` sums an `exp` per value, compensated. The
/// bandwidth is an argument so a kernel's grid can be held against this
/// one to the bit ([`silverman`] checks the bandwidth on its own). Empty
/// without a finite value.
pub fn kde_direct(values: &[f64], h: f64, grid_size: usize) -> (Vec<f64>, Vec<f64>) {
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    let Some(min) = finite.iter().copied().reduce(f64::min) else {
        return (Vec::new(), Vec::new());
    };
    let max = finite.iter().copied().fold(min, f64::max);
    let grid_size = grid_size.max(2);
    let (lo, hi) = (min - 3.0 * h, max + 3.0 * h);
    let step = (hi - lo) / (grid_size - 1) as f64;
    let xs: Vec<f64> = (0..grid_size).map(|i| lo + step * i as f64).collect();
    let norm = 1.0 / (finite.len() as f64 * h * (2.0 * std::f64::consts::PI).sqrt());
    let density = |x: f64| {
        let kernels = finite.iter().map(|&v| (-0.5 * ((x - v) / h).powi(2)).exp());
        compensated_sum(kernels) * norm
    };
    let ys = xs.iter().map(|&x| density(x)).collect();
    (xs, ys)
}

/// Mid-ranks (1-based, ties averaged) of a column's non-NaN rows; NaN at
/// NaN rows.
pub fn mid_ranks(v: &[f64]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..v.len()).filter(|&i| !v[i].is_nan()).collect();
    order.sort_by(|&a, &b| v[a].total_cmp(&v[b]));
    let mut out = vec![f64::NAN; v.len()];
    let mut start = 0;
    while start < order.len() {
        let mut end = start + 1;
        while end < order.len() && v[order[end]] == v[order[start]] {
            end += 1;
        }
        // Positions start+1 ..= end share their mean.
        let rank = (start + 1 + end) as f64 / 2.0;
        order[start..end].iter().for_each(|&row| out[row] = rank);
        start = end;
    }
    out
}

/// pandas' rank-once Spearman: every column ranked over its own non-NaN
/// rows, then Pearson over the rows both have.
pub fn spearman_rank_once(x: &[f64], y: &[f64]) -> Option<f64> {
    pearson_two_pass(&mid_ranks(x), &mid_ranks(y))
}

/// Tau-b by the O(n²) double loop over all pairs.
pub fn kendall_tau_quadratic(x: &[f64], y: &[f64]) -> Option<f64> {
    let (xs, ys) = complete_pairs(x, y);
    let n = xs.len();
    if n < 2 {
        return None;
    }
    // By comparison, not subtraction: `inf - inf` is NaN, and the product
    // of two tiny differences underflows to zero.
    let sign = |a: f64, b: f64| i8::from(a > b) - i8::from(a < b);
    let (mut concordant, mut discordant, mut tx, mut ty) = (0i64, 0i64, 0u64, 0u64);
    for i in 0..n {
        for j in i + 1..n {
            let dx = sign(xs[i], xs[j]);
            let dy = sign(ys[i], ys[j]);
            if dx == 0 && dy == 0 {
                tx += 1;
                ty += 1;
            } else if dx == 0 {
                tx += 1;
            } else if dy == 0 {
                ty += 1;
            } else if dx == dy {
                concordant += 1;
            } else {
                discordant += 1;
            }
        }
    }
    let n0 = (n * (n - 1) / 2) as f64;
    let denom = (n0 - tx as f64) * (n0 - ty as f64);
    if denom <= 0.0 {
        return None;
    }
    Some((concordant - discordant) as f64 / denom.sqrt())
}

/// Pairs `i < j` with `seq[i] > seq[j]`, by the double loop.
pub fn inversions_quadratic(seq: &[u32]) -> u64 {
    (0..seq.len())
        .map(|j| seq[..j].iter().filter(|&&earlier| earlier > seq[j]).count() as u64)
        .sum()
}

/// Pairs `i < j` with `seq[i] > seq[j]`, through a Fenwick tree over the
/// values (all below `groups`).
pub fn inversions_fenwick(seq: &[u32], groups: usize) -> u64 {
    let mut tree = Fenwick::new(groups);
    let mut inversions = 0u64;
    for (seen, &v) in seq.iter().enumerate() {
        inversions += seen as u64 - tree.prefix_count(v as usize);
        tree.add(v as usize);
    }
    inversions
}

/// `k choose 2`.
fn pairs(k: u64) -> u64 {
    k * k.saturating_sub(1) / 2
}

/// O(n log n) tau-b: Knight's tie arithmetic with the discordant pairs
/// counted by [`inversions_fenwick`] over rank-compressed y values — the
/// same pair counts as the double loop, through a mechanism shared with
/// no production path.
pub fn kendall_tau_fenwick(x: &[f64], y: &[f64]) -> Option<f64> {
    let (xs, ys) = complete_pairs(x, y);
    let n = xs.len();
    if n < 2 {
        return None;
    }

    // Order by (x, y), so within an x-tie group y never strictly
    // decreases and within-group pairs are never counted as inversions.
    // `+ 0.0` folds `-0.0` into `0.0`: they compare equal, so they tie.
    let key = |v: f64| v + 0.0;
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_unstable_by(|&a, &b| {
        key(xs[a]).total_cmp(&key(xs[b])).then(key(ys[a]).total_cmp(&key(ys[b])))
    });

    // Tie-pair counts from run lengths: n1 over x, n2 over y, n3 joint.
    let n0 = pairs(n as u64);
    let mut n1 = 0u64;
    let mut n3 = 0u64;
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && xs[idx[j + 1]] == xs[idx[i]] {
            j += 1;
        }
        n1 += pairs((j - i + 1) as u64);
        let mut k = i;
        while k <= j {
            let mut m = k;
            while m < j && ys[idx[m + 1]] == ys[idx[k]] {
                m += 1;
            }
            n3 += pairs((m - k + 1) as u64);
            k = m + 1;
        }
        i = j + 1;
    }

    // Rank-compress y and count y tie pairs from the sorted copy.
    let mut distinct: Vec<f64> = ys.iter().map(|&v| key(v)).collect();
    distinct.sort_unstable_by(f64::total_cmp);
    let n2: u64 = distinct.chunk_by(|a, b| a == b).map(|run| pairs(run.len() as u64)).sum();
    distinct.dedup();
    let seq: Vec<u32> = idx
        .iter()
        .map(|&p| {
            distinct.binary_search_by(|v| v.total_cmp(&key(ys[p]))).expect("every y is present")
                as u32
        })
        .collect();
    let discordant = inversions_fenwick(&seq, distinct.len());

    // Same integer identities as the double loop: C + D + (n1 + n2 - n3)
    // covers every pair, so C - D falls out exactly. Signed arithmetic —
    // the degenerate all-tied case drives the partial sums negative.
    let concordant = n0 as i64 - n1 as i64 - n2 as i64 + n3 as i64 - discordant as i64;
    let denom = ((n0 - n1) as f64) * ((n0 - n2) as f64);
    if denom <= 0.0 {
        return None;
    }
    Some((concordant - discordant as i64) as f64 / denom.sqrt())
}

/// Fenwick tree over element counts, 0-indexed ranks.
struct Fenwick {
    tree: Vec<u64>,
}

impl Fenwick {
    fn new(size: usize) -> Self {
        Fenwick { tree: vec![0; size + 1] }
    }

    /// Increment the count at `rank`.
    fn add(&mut self, rank: usize) {
        let mut i = rank + 1;
        while i < self.tree.len() {
            self.tree[i] += 1;
            i += i & i.wrapping_neg();
        }
    }

    /// Number of inserted elements with rank ≤ `rank`.
    fn prefix_count(&self, rank: usize) -> u64 {
        let mut i = rank + 1;
        let mut total = 0;
        while i > 0 {
            total += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        total
    }
}

/// Occurrences per category, by name, and the nulls seen alongside: the
/// table a code-keyed frequency table is held against.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    pub counts: BTreeMap<String, u64>,
    pub nulls: u64,
}

impl Counts {
    /// Count every value, `None` as a null.
    pub fn of<'a>(values: impl IntoIterator<Item = Option<&'a str>>) -> Counts {
        let mut t = Counts::default();
        for v in values {
            match v {
                Some(v) => t.add(v, 1),
                None => t.nulls += 1,
            }
        }
        t
    }

    /// `(category, count)` pairs as a table prints them, with `nulls`.
    pub fn from_entries<S: AsRef<str>>(
        entries: impl IntoIterator<Item = (S, u64)>,
        nulls: u64,
    ) -> Counts {
        let mut t = Counts { nulls, ..Counts::default() };
        entries.into_iter().for_each(|(c, n)| t.add(c.as_ref(), n));
        t
    }

    pub fn add(&mut self, category: &str, n: u64) {
        *self.counts.entry(category.to_string()).or_insert(0) += n;
    }

    pub fn merge(&mut self, other: &Counts) {
        other.counts.iter().for_each(|(c, &n)| self.add(c, n));
        self.nulls += other.nulls;
    }

    pub fn count(&self, category: &str) -> u64 {
        self.counts.get(category).copied().unwrap_or(0)
    }

    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Every `(category, count)`, most frequent first, ties by name.
    pub fn ranked(&self) -> Vec<(String, u64)> {
        let mut all: Vec<(String, u64)> =
            self.counts.iter().map(|(c, &n)| (c.clone(), n)).collect();
        all.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        all
    }

    /// The first `k` of [`Counts::ranked`].
    pub fn top_k(&self, k: usize) -> Vec<(String, u64)> {
        let mut all = self.ranked();
        all.truncate(k);
        all
    }

    /// The most frequent category and its count.
    pub fn mode(&self) -> Option<(String, u64)> {
        self.top_k(1).pop()
    }

    /// Every count, descending.
    pub fn counts_desc(&self) -> Vec<u64> {
        self.ranked().into_iter().map(|(_, n)| n).collect()
    }

    /// Shannon entropy (nats), `-p ln p` summed over the counts in
    /// descending order.
    pub fn entropy(&self) -> f64 {
        let total = self.total() as f64;
        if total == 0.0 {
            return 0.0;
        }
        self.counts_desc().iter().map(|&n| n as f64 / total).map(|p| -p * p.ln()).sum()
    }
}

/// Lower-cased alphanumeric tokens of a string, split on every other
/// character: one owned `String` per token.
pub fn tokens(text: &str) -> Vec<String> {
    let mut out = vec![String::new()];
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            out.last_mut().unwrap().extend(ch.to_lowercase());
        } else if !out.last().unwrap().is_empty() {
            out.push(String::new());
        }
    }
    out.retain(|t| !t.is_empty());
    out
}

/// The words of `values`, row by row: every token of every non-null value
/// counted once (nulls are not counted).
pub fn word_counts<'a>(values: impl IntoIterator<Item = Option<&'a str>>) -> Counts {
    let mut t = Counts::default();
    values.into_iter().flatten().flat_map(tokens).for_each(|w| t.add(&w, 1));
    t
}
