//! Kendall's tau-b via Knight's O(n log n) algorithm.
//!
//! The naive tau is O(n²) in pair comparisons — too slow for the row counts
//! in the paper's Table 2. Knight (1966) counts discordant pairs as merge
//! sort inversions after sorting by one coordinate, and corrects for ties:
//!
//! `tau_b = (n0 - n1 - n2 + n3 - 2·D) / sqrt((n0 - n1)(n0 - n2))`
//!
//! with `n0 = n(n-1)/2`, `n1`/`n2` tie pair counts in x/y, `n3` joint-tie
//! pairs, `D` discordant pairs — the same formulation SciPy uses.
//!
//! Two entry points share the tie arithmetic and the inversion counter:
//! [`kendall_tau`] for one pair of raw columns (it sorts the pair), and
//! `kendall_cell` for two NaN-free columns prepared by
//! [`super::ColumnPrep`], which needs no comparison sort — Knight's
//! `(x, y)`-ordered sequence is scattered out of the two columns' own sort
//! orders. On NaN-free columns the two agree bit for bit.

use super::complete_pairs;
use super::prep::Sorted;

/// Sort key of a non-NaN value: `-0.0` and `0.0` compare equal, so they
/// must tie — and sort as one value — rather than be ordered by sign bit.
fn key(v: f64) -> f64 {
    v + 0.0
}

/// Kendall's tau-b over pairwise-complete observations.
///
/// Returns `None` when fewer than 2 complete pairs remain or either side is
/// entirely tied.
pub fn kendall_tau(x: &[f64], y: &[f64]) -> Option<f64> {
    let (xs, ys) = complete_pairs(x, y);
    let n = xs.len();
    if n < 2 {
        return None;
    }

    // Sort indices by (x, y).
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_unstable_by(|&a, &b| {
        key(xs[a]).total_cmp(&key(xs[b])).then(key(ys[a]).total_cmp(&key(ys[b])))
    });

    let n0 = pairs(n as u64);

    // Tie counts in x, and joint ties (x and y both equal).
    let mut n1 = 0u64;
    let mut n3 = 0u64;
    {
        let mut i = 0;
        let mut next_poll = 0;
        while i < n {
            if i >= next_poll {
                if crate::interrupt::interrupted() {
                    return None;
                }
                next_poll = i + crate::interrupt::CHECK_INTERVAL;
            }
            let mut j = i;
            while j + 1 < n && xs[idx[j + 1]] == xs[idx[i]] {
                j += 1;
            }
            n1 += pairs((j - i + 1) as u64);
            // Within the x-tie group, indices are sorted by y: count y runs.
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
    }

    // Tie counts in y.
    let mut sorted_y: Vec<f64> = ys.clone();
    sorted_y.sort_unstable_by(f64::total_cmp);
    let mut n2 = 0u64;
    {
        let mut i = 0;
        let mut next_poll = 0;
        while i < n {
            if i >= next_poll {
                if crate::interrupt::interrupted() {
                    return None;
                }
                next_poll = i + crate::interrupt::CHECK_INTERVAL;
            }
            let mut j = i;
            while j + 1 < n && sorted_y[j + 1] == sorted_y[i] {
                j += 1;
            }
            n2 += pairs((j - i + 1) as u64);
            i = j + 1;
        }
    }

    // Discordant pairs = inversions of the y sequence ordered by (x, y).
    let mut seq: Vec<f64> = idx.iter().map(|&i| ys[i]).collect();
    let mut buf = vec![0.0; n];
    let discordant = count_inversions(&mut seq, &mut buf)?;

    let denom = ((n0 - n1) as f64) * ((n0 - n2) as f64);
    if denom <= 0.0 {
        return None;
    }
    let numer = n0 as f64 - n1 as f64 - n2 as f64 + n3 as f64 - 2.0 * discordant as f64;
    Some(numer / denom.sqrt())
}

/// `k choose 2`.
pub(super) fn pairs(k: u64) -> u64 {
    k * k.saturating_sub(1) / 2
}

/// Runs this short are insertion-sorted before the merge passes start.
const RUN: usize = 16;
// The run pass polls per CHECK_INTERVAL block; blocks must not split runs.
const _: () = assert!(crate::interrupt::CHECK_INTERVAL.is_multiple_of(RUN));

/// Count inversions (strictly decreasing pairs) of `seq`: insertion-sorted
/// runs of [`RUN`], then bottom-up merge passes that ping-pong between
/// `seq` and `buf` (same length) instead of copying back. Either buffer
/// may hold the sorted result afterwards.
///
/// Returns `None` when the run is interrupted mid-count (polled every
/// [`crate::interrupt::CHECK_INTERVAL`] elements of the run pass and once
/// per O(n) merge pass, so cancellation latency is one pass).
fn count_inversions<T: Copy + PartialOrd>(seq: &mut [T], buf: &mut [T]) -> Option<u64> {
    let mut inversions = 0u64;
    for block in seq.chunks_mut(crate::interrupt::CHECK_INTERVAL) {
        if crate::interrupt::interrupted() {
            return None;
        }
        inversions += block.chunks_mut(RUN).map(sort_run).sum::<u64>();
    }
    let (mut src, mut dst) = (seq, buf);
    let mut width = RUN;
    while width < src.len() {
        if crate::interrupt::interrupted() {
            return None;
        }
        for (window, out) in src.chunks(2 * width).zip(dst.chunks_mut(2 * width)) {
            inversions += merge_count(window, width, out);
        }
        std::mem::swap(&mut src, &mut dst);
        width *= 2;
    }
    Some(inversions)
}

/// Insertion-sort one short run, counting the swaps (= its inversions).
fn sort_run<T: Copy + PartialOrd>(run: &mut [T]) -> u64 {
    let mut inversions = 0;
    // eda-lint: allow(EDA-L6) bounded to one run of RUN elements
    for i in 1..run.len() {
        let mut j = i;
        while j > 0 && run.get(j - 1) > run.get(j) {
            run.swap(j - 1, j);
            inversions += 1;
            j -= 1;
        }
    }
    inversions
}

/// Merge the two sorted halves of `window` (split at `mid`) into `out`,
/// counting cross-half inversions.
fn merge_count<T: Copy + PartialOrd>(window: &[T], mid: usize, out: &mut [T]) -> u64 {
    let (mut left, mut right) = window.split_at(mid.min(window.len()));
    let mut inversions = 0u64;
    let mut slots = out.iter_mut();
    // eda-lint: allow(EDA-L6) bounded to one merge window; count_inversions polls between passes
    while let ([a, left_rest @ ..], [b, right_rest @ ..]) = (left, right) {
        let Some(slot) = slots.next() else { break };
        if a <= b {
            *slot = *a;
            left = left_rest;
        } else {
            // `b` jumps ahead of all remaining left items: each is an
            // inversion.
            inversions += left.len() as u64;
            *slot = *b;
            right = right_rest;
        }
    }
    // One side is exhausted; the other is already in order.
    slots.zip(left.iter().chain(right)).for_each(|(slot, v)| *slot = *v);
    inversions
}

/// Buffers one Kendall cell needs, kept across the cells of a tile so a
/// tile allocates them once.
#[derive(Debug, Default)]
pub struct KendallScratch {
    seq: Vec<u32>,
    buf: Vec<u32>,
    cursors: Vec<u32>,
}

/// Kendall's tau-b of two NaN-free columns from their sorted state. Equal
/// to [`kendall_tau`] on the same data bit for bit, without a comparison
/// sort per pair: Knight's sequence — y ordered by `(x, y)` — is y's tie
/// group of each row, visited in x's order when x has no ties, and
/// otherwise scattered in *y's* order into one cursor per x tie group
/// (stable, so every group comes out y-ascending). Inversions are then
/// counted over those `u32` group indices, which order like the values.
pub(super) fn kendall_cell(x: &Sorted, y: &Sorted, scratch: &mut KendallScratch) -> Option<f64> {
    let n = x.dense.len();
    if n < 2 || y.dense.len() != n {
        return None;
    }
    let n0 = pairs(n as u64);
    let (n1, n2) = (x.tie_pairs, y.tie_pairs);
    if n1 >= n0 || n2 >= n0 {
        return None;
    }
    let KendallScratch { seq, buf, cursors } = scratch;
    let y_group = |row: u32| y.dense.get(row as usize).copied().unwrap_or(0);
    let mut n3 = 0u64;
    seq.clear();
    if n1 == 0 {
        seq.extend(x.perm.iter().map(|&row| y_group(row)));
    } else {
        seq.resize(n, 0);
        cursors.clear();
        cursors.extend(x.group_starts.iter().take(x.group_starts.len().saturating_sub(1)));
        for block in y.perm.chunks(crate::interrupt::CHECK_INTERVAL) {
            if crate::interrupt::interrupted() {
                return None;
            }
            for &row in block {
                let group = x.dense.get(row as usize).copied().unwrap_or(0);
                let Some(cursor) = cursors.get_mut(group as usize) else { continue };
                if let Some(slot) = seq.get_mut(*cursor as usize) {
                    *slot = y_group(row);
                }
                *cursor += 1;
            }
        }
        if n2 > 0 {
            // Joint ties: runs of one y group inside one x group.
            // eda-lint: allow(EDA-L6) one linear pass over the tie groups
            for bounds in x.group_starts.windows(2) {
                let [start, end] = *bounds else { continue };
                let group = seq.get(start as usize..end as usize).unwrap_or(&[]);
                n3 += group.chunk_by(|a, b| a == b).map(|run| pairs(run.len() as u64)).sum::<u64>();
            }
        }
    }
    buf.resize(n, 0);
    let discordant = count_inversions(seq, buf)?;
    let denom = ((n0 - n1) as f64) * ((n0 - n2) as f64);
    let numer = n0 as f64 - n1 as f64 - n2 as f64 + n3 as f64 - 2.0 * discordant as f64;
    Some(numer / denom.sqrt())
}

/// Independent O(n log n) tau-b cross-check used to validate the fast
/// path in tests. Formerly an O(n²) double loop over all pairs; now it
/// counts discordant pairs as inversions with a Fenwick (binary indexed)
/// tree over rank-compressed y values — the same pair counts as the
/// double loop, via a mechanism shared with neither Knight merge path.
#[doc(hidden)]
pub fn kendall_tau_naive(x: &[f64], y: &[f64]) -> Option<f64> {
    let (xs, ys) = complete_pairs(x, y);
    let n = xs.len();
    if n < 2 {
        return None;
    }

    // Order by (x, y) — the same primary sort Knight uses, so within an
    // x-tie group y never strictly decreases and within-group pairs are
    // never counted as inversions.
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
    let mut distinct: Vec<f64> = ys.clone();
    distinct.sort_unstable_by(f64::total_cmp);
    let mut n2 = 0u64;
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && distinct[j + 1] == distinct[i] {
            j += 1;
        }
        n2 += pairs((j - i + 1) as u64);
        i = j + 1;
    }
    distinct.dedup();

    // Discordant pairs: walk in (x, y) order, and for each element count
    // the already-seen elements with a strictly larger y rank.
    let mut tree = Fenwick::new(distinct.len());
    let mut discordant = 0u64;
    for (seen, &p) in idx.iter().enumerate() {
        // Every y is in `distinct` by construction; the insertion
        // point is the same rank, so a miss cannot miscount.
        let rank = distinct
            .binary_search_by(|v| v.total_cmp(&ys[p]))
            .unwrap_or_else(|pos| pos);
        discordant += seen as u64 - tree.prefix_count(rank);
        tree.add(rank);
    }

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_agreement() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert!((kendall_tau(&x, &y).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_disagreement() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [4.0, 3.0, 2.0, 1.0];
        assert!((kendall_tau(&x, &y).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn known_value() {
        // scipy.stats.kendalltau([1,2,3,4,5], [2,1,4,3,5]).statistic == 0.6
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [2.0, 1.0, 4.0, 3.0, 5.0];
        assert!((kendall_tau(&x, &y).unwrap() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn ties_handled_as_tau_b() {
        // scipy.stats.kendalltau([1,2,2,3], [1,2,3,4]) ≈ 0.9128709291752769
        let x = [1.0, 2.0, 2.0, 3.0];
        let y = [1.0, 2.0, 3.0, 4.0];
        let tau = kendall_tau(&x, &y).unwrap();
        assert!((tau - 0.912_870_929_175_276_9).abs() < 1e-12, "tau = {tau}");
    }

    #[test]
    fn degenerate_cases() {
        assert_eq!(kendall_tau(&[], &[]), None);
        assert_eq!(kendall_tau(&[1.0], &[1.0]), None);
        assert_eq!(kendall_tau(&[2.0, 2.0], &[1.0, 3.0]), None);
    }

    #[test]
    fn nan_pairs_dropped() {
        let x = [1.0, f64::NAN, 2.0, 3.0];
        let y = [1.0, 99.0, 2.0, 3.0];
        assert!((kendall_tau(&x, &y).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fast_matches_naive_on_pseudorandom_data() {
        // Deterministic pseudo-random data with plenty of ties.
        let x: Vec<f64> = (0..300).map(|i| ((i * 37 + 11) % 23) as f64).collect();
        let y: Vec<f64> = (0..300).map(|i| ((i * 53 + 7) % 19) as f64).collect();
        let fast = kendall_tau(&x, &y).unwrap();
        let naive = kendall_tau_naive(&x, &y).unwrap();
        assert!((fast - naive).abs() < 1e-12, "{fast} vs {naive}");
    }

    #[test]
    fn fast_matches_naive_continuous() {
        let x: Vec<f64> = (0..200).map(|i| ((i * 97 + 13) % 541) as f64 / 7.0).collect();
        let y: Vec<f64> = (0..200).map(|i| ((i * 31 + 29) % 769) as f64 / 11.0).collect();
        let fast = kendall_tau(&x, &y).unwrap();
        let naive = kendall_tau_naive(&x, &y).unwrap();
        assert!((fast - naive).abs() < 1e-12);
    }

    #[test]
    fn symmetry() {
        let x = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0];
        let y = [2.0, 7.0, 1.0, 8.0, 2.0, 8.0, 1.0];
        let a = kendall_tau(&x, &y).unwrap();
        let b = kendall_tau(&y, &x).unwrap();
        assert!((a - b).abs() < 1e-12);
    }

    /// The prepared-column cell, as `corr_cells` runs it.
    fn cell(x: &[f64], y: &[f64]) -> Option<f64> {
        use crate::corr::{corr_cells, Col, ColumnPrep, CorrMethod};
        let (px, py) = (ColumnPrep::prepare(x), ColumnPrep::prepare(y));
        let cols = [Col { values: x, prep: &px }, Col { values: y, prep: &py }];
        corr_cells(CorrMethod::KendallTau, &cols, &[(0, 1)])[0]
    }

    #[test]
    fn prepped_matches_plain_on_tied_data() {
        let x: Vec<f64> = (0..300).map(|i| ((i * 37 + 11) % 23) as f64).collect();
        let y: Vec<f64> = (0..300).map(|i| ((i * 53 + 7) % 19) as f64).collect();
        let fast = cell(&x, &y).unwrap();
        assert_eq!(fast, kendall_tau(&x, &y).unwrap());
        // Either column's sort order can drive the cell.
        assert_eq!(fast, cell(&y, &x).unwrap());
    }

    #[test]
    fn prepped_matches_plain_continuous() {
        let x: Vec<f64> = (0..200).map(|i| ((i * 97 + 13) % 541) as f64 / 7.0).collect();
        let y: Vec<f64> = (0..200).map(|i| ((i * 31 + 29) % 769) as f64 / 11.0).collect();
        assert_eq!(cell(&x, &y), kendall_tau(&x, &y));
    }

    #[test]
    fn prep_rejects_nan_columns() {
        use crate::corr::ColumnPrep;
        assert!(!ColumnPrep::prepare(&[1.0, f64::NAN]).is_complete());
        assert!(ColumnPrep::prepare(&[1.0, 2.0]).is_complete());
    }

    #[test]
    fn prepped_degenerate() {
        assert_eq!(cell(&[2.0, 2.0], &[1.0, 3.0]), None);
        assert_eq!(cell(&[1.0], &[3.0]), None);
        assert_eq!(cell(&[], &[]), None);
    }

    /// Column families the cell must get right: many ties, no ties, one
    /// value, sorted, reversed, signed zeros, and the tiny lengths.
    fn families(n: usize) -> Vec<(&'static str, Vec<f64>)> {
        let mut state = 0x9E3779B97F4A7C15u64 ^ n as u64;
        let mut next = move |modulus: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) % modulus) as f64
        };
        vec![
            ("tie-heavy", (0..n).map(|_| next(4)).collect()),
            ("some ties", (0..n).map(|_| next(n as u64 / 2 + 1) / 4.0).collect()),
            ("distinct", (0..n).map(|i| next(1 << 30) + i as f64 / (2 * n) as f64).collect()),
            ("constant", vec![7.5; n]),
            ("sorted", (0..n).map(|i| i as f64).collect()),
            ("reversed", (0..n).map(|i| -(i as f64)).collect()),
            ("signed zeros", (0..n).map(|i| if i % 3 == 0 { -0.0 } else { next(2) }).collect()),
        ]
    }

    #[test]
    fn cell_is_bit_equal_to_the_pair_kernel_and_matches_the_quadratic_oracle() {
        for n in [0, 1, 2, 3, 15, 16, 17, 33, 250] {
            let columns = families(n);
            for (xname, x) in &columns {
                for (yname, y) in &columns {
                    let what = format!("n={n} {xname} ~ {yname}");
                    let got = cell(x, y);
                    assert_eq!(got, kendall_tau(x, y), "{what}");
                    assert_eq!(got, cell(y, x), "{what}: argument order");
                    match (got, kendall_tau_quadratic(x, y)) {
                        (Some(g), Some(o)) => assert!((g - o).abs() < 1e-12, "{what}: {g} vs {o}"),
                        (g, o) => assert_eq!(g, o, "{what}"),
                    }
                }
            }
        }
    }

    #[test]
    fn interruption_stops_the_cell_inside_the_inversion_count() {
        use crate::interrupt::tests::{test_probe, TEST_INTERRUPT, TEST_POLLS_LEFT};
        crate::interrupt::register(test_probe);
        let x: Vec<f64> = (0..5000).map(|i| ((i * 7919) % 4999) as f64).collect();
        let y: Vec<f64> = (0..5000).map(|i| ((i * 104729) % 4993) as f64).collect();
        // The tile loop polls once, the run pass twice (5000 rows), then
        // each of nine merge passes: the sixth poll is inside the merges.
        TEST_POLLS_LEFT.with(|p| p.set(Some(6)));
        assert_eq!(cell(&x, &y), None);
        assert!(TEST_INTERRUPT.with(|f| f.get()), "the countdown never reached zero");
        TEST_INTERRUPT.with(|f| f.set(false));
        assert!(cell(&x, &y).is_some());
    }

    /// O(n²) double loop kept only as a test oracle for the two
    /// O(n log n) production paths (merge-sort and Fenwick).
    fn kendall_tau_quadratic(x: &[f64], y: &[f64]) -> Option<f64> {
        let (xs, ys) = complete_pairs(x, y);
        let n = xs.len();
        if n < 2 {
            return None;
        }
        let (mut concordant, mut discordant, mut tx, mut ty) = (0i64, 0i64, 0u64, 0u64);
        for i in 0..n {
            for j in i + 1..n {
                let dx = xs[i] - xs[j];
                let dy = ys[i] - ys[j];
                if dx == 0.0 && dy == 0.0 {
                    tx += 1;
                    ty += 1;
                } else if dx == 0.0 {
                    tx += 1;
                } else if dy == 0.0 {
                    ty += 1;
                } else if dx * dy > 0.0 {
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

    #[test]
    fn fenwick_reference_matches_quadratic_oracle() {
        let x: Vec<f64> = (0..300).map(|i| ((i * 37 + 11) % 23) as f64).collect();
        let y: Vec<f64> = (0..300).map(|i| ((i * 53 + 7) % 19) as f64).collect();
        let fenwick = kendall_tau_naive(&x, &y).unwrap();
        let oracle = kendall_tau_quadratic(&x, &y).unwrap();
        assert!((fenwick - oracle).abs() < 1e-12, "{fenwick} vs {oracle}");
        let xc: Vec<f64> = (0..150).map(|i| ((i * 97 + 13) % 541) as f64 / 7.0).collect();
        let yc: Vec<f64> = (0..150).map(|i| ((i * 31 + 29) % 769) as f64 / 11.0).collect();
        let fenwick = kendall_tau_naive(&xc, &yc).unwrap();
        let oracle = kendall_tau_quadratic(&xc, &yc).unwrap();
        assert!((fenwick - oracle).abs() < 1e-12);
    }

    #[test]
    fn fenwick_reference_degenerate_cases() {
        assert_eq!(kendall_tau_naive(&[], &[]), None);
        assert_eq!(kendall_tau_naive(&[1.0], &[1.0]), None);
        // All-tied sides must return None without underflowing the
        // signed pair identities.
        assert_eq!(kendall_tau_naive(&[2.0, 2.0], &[1.0, 3.0]), None);
        assert_eq!(kendall_tau_naive(&[2.0, 2.0, 2.0], &[2.0, 2.0, 2.0]), None);
        let x = [1.0, f64::NAN, 2.0, 3.0];
        let y = [1.0, 99.0, 2.0, 3.0];
        assert!((kendall_tau_naive(&x, &y).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inversion_counter_basics() {
        let mut seq = vec![3.0, 1.0, 2.0];
        let mut buf = vec![0.0; 3];
        assert_eq!(count_inversions(&mut seq, &mut buf), Some(2));
        assert_eq!(seq, vec![1.0, 2.0, 3.0]);

        let mut sorted = vec![1.0, 2.0, 3.0, 4.0];
        let mut buf = vec![0.0; 4];
        assert_eq!(count_inversions(&mut sorted, &mut buf), Some(0));

        let mut rev = vec![4.0, 3.0, 2.0, 1.0];
        let mut buf = vec![0.0; 4];
        assert_eq!(count_inversions(&mut rev, &mut buf), Some(6));
    }
}
