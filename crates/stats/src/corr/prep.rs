//! Per-column state shared by every correlation cell a column takes part
//! in, and the cell kernels that read it.
//!
//! A matrix over `m` columns has `m(m-1)/2` cells per method but only `m`
//! columns: whatever a cell needs that depends on one column alone — its
//! sort order, tie groups, ranks, mean, sum of squares — is computed once
//! in [`ColumnPrep::prepare`] from a *single* argsort of its non-NaN rows
//! (an LSD radix sort, [`argsort`]). The same argsort is the column's
//! ascending values, read back by [`ColumnPrep::ascending`]: quantiles, box
//! and Q-Q plots need no sort of their own.
//! With that in hand a Kendall cell needs no comparison sort at all
//! (`kendall::kendall_cell` walks the two sort orders, skipping rows where
//! either column is NaN), and a Pearson or Spearman cell of two NaN-free
//! columns is one dot product of two centered vectors
//! ([`crate::vector::centered_dot`]). The NaN rule for those two: a pair
//! touching a column with NaN goes to the per-pair kernels, which center
//! on each pair's complete observations (Spearman on the ranks kept here)
//! in one masked lane pass over the raw values, with no copy.

use eda_dataframe::HeapSize;

use super::kendall::{kendall_cell, pairs, KendallScratch};
use super::pearson::pearson;
use super::spearman::spearman_from_ranks;
use super::CorrMethod;
use crate::rank::ranks;
use crate::vector::centered_dot;

/// What [`Sorted::dense`] holds at a NaN row. Never a group index: groups
/// are numbered below the row count, which fits `u32`.
pub(super) const NAN_GROUP: u32 = u32::MAX;

/// What one argsort of a column's non-NaN rows yields.
#[derive(Debug, Clone, Default, PartialEq)]
pub(super) struct Sorted {
    /// The non-NaN rows in ascending value order (ties in row order).
    pub perm: Vec<u32>,
    /// Tie-group index of every row: equal values share one, and groups
    /// are numbered in ascending value order; [`NAN_GROUP`] at NaN rows.
    pub dense: Vec<u32>,
    /// Position in `perm` where each tie group starts, plus a final
    /// `perm.len()`.
    pub group_starts: Vec<u32>,
    /// `Σ t(t-1)/2` over the tie groups.
    pub tie_pairs: u64,
}

/// Sums a centered-dot cell divides by; they describe the whole column, so
/// only a NaN-free one has them.
#[derive(Debug, Clone, PartialEq)]
struct Spread {
    /// Mean of the values.
    mean: f64,
    /// `Σ (v - mean)²`.
    m2: f64,
    /// `Σ r²` over the centered ranks.
    rank_m2: f64,
}

/// Per-column correlation state; see the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnPrep {
    /// Mid-rank of every row minus `(k + 1) / 2`, `k` being the number of
    /// non-NaN rows; NaN at NaN rows. On a NaN-free column this is the
    /// mid-rank minus its mean, exactly (ranks are half-integers), so the
    /// mid-ranks themselves are not kept.
    centered_ranks: Vec<f64>,
    sorted: Sorted,
    /// Present when the column has no NaN.
    spread: Option<Spread>,
}

/// Map a non-NaN float to an integer with the same order, `-0.0` and
/// `0.0` mapping to one key (they compare equal, so they tie).
pub(super) fn order_key(v: f64) -> i64 {
    let bits = (v + 0.0).to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// The non-NaN rows of `values` in ascending `(order_key, row)` order.
///
/// An LSD radix sort of `u32` rows against one array of keys (`order_key`
/// as an unsigned integer of the same order): a stable counting scatter
/// per key byte, least significant first, skipping every byte all keys
/// share. The rows enter in ascending order and each pass is stable, so
/// equal keys stay in row order — exactly what sorting `(key, row)` pairs
/// gives. Scratch is the key array and a second row buffer, 12 bytes a
/// row on top of the result; both are allocated after the result, so
/// freeing them hands the allocator back one block rather than leaving a
/// hole under the long-lived permutation.
pub(super) fn argsort(values: &[f64]) -> Vec<u32> {
    const SIGN: u64 = 1 << 63;
    let kept = values.iter().filter(|v| !v.is_nan()).count();
    let mut perm: Vec<u32> = Vec::with_capacity(kept);
    let mut keys: Vec<u64> = Vec::with_capacity(values.len());
    // Occurrences of each value of each byte, over the kept rows.
    let mut counts = [[0usize; 256]; 8];
    for (row, &v) in (0u32..).zip(values) {
        if v.is_nan() {
            keys.push(0);
            continue;
        }
        let key = order_key(v) as u64 ^ SIGN;
        for (shift, count) in (0..64).step_by(8).zip(&mut counts) {
            if let Some(c) = count.get_mut((key >> shift) as u8 as usize) {
                *c += 1;
            }
        }
        keys.push(key);
        perm.push(row);
    }
    let mut scratch = vec![0u32; kept];
    // Whether the rows sorted so far are in `scratch` rather than `perm`.
    let mut in_scratch = false;
    for (shift, count) in (0..64).step_by(8).zip(&counts) {
        if count.contains(&kept) {
            // Every key has the same byte here: the pass would move nothing.
            continue;
        }
        let mut next = [0usize; 256];
        let mut at = 0;
        for (slot, &c) in next.iter_mut().zip(count) {
            *slot = at;
            at += c;
        }
        let (from, to) = if in_scratch { (&scratch, &mut perm) } else { (&perm, &mut scratch) };
        for &row in from.iter() {
            let byte = keys.get(row as usize).map_or(0, |key| (key >> shift) as u8 as usize);
            if let Some(pos) = next.get_mut(byte) {
                if let Some(dst) = to.get_mut(*pos) {
                    *dst = row;
                }
                *pos += 1;
            }
        }
        in_scratch = !in_scratch;
    }
    if in_scratch {
        perm.copy_from_slice(&scratch);
    }
    perm
}

/// Mean by the corrected two-pass formula: the second pass sums residuals
/// around the first estimate, so the error no longer grows with
/// `|mean| / σ`.
fn mean_of(values: &[f64]) -> f64 {
    let n = values.len() as f64;
    let first = values.iter().sum::<f64>() / n;
    let correction = values.iter().map(|v| v - first).sum::<f64>() / n;
    // A non-finite residual sum (infinite values) would only turn an
    // infinite mean into NaN.
    if correction.is_finite() {
        first + correction
    } else {
        first
    }
}

impl ColumnPrep {
    /// Build the shared state for one column (NaN marks a null).
    pub fn prepare(values: &[f64]) -> ColumnPrep {
        let n = values.len();
        if u32::try_from(n).is_err() {
            // Row ids are `u32`: a longer column keeps only its ranks, and
            // has no Kendall cells.
            let valid = values.iter().filter(|v| !v.is_nan()).count();
            let shift = (valid as f64 + 1.0) / 2.0;
            let mut centered_ranks = ranks(values);
            centered_ranks.iter_mut().for_each(|r| *r -= shift);
            return ColumnPrep { centered_ranks, sorted: Sorted::default(), spread: None };
        }

        // What the prep keeps is allocated before the sort's scratch, which
        // is freed on its return (see `argsort`).
        let mut dense = vec![NAN_GROUP; n];
        let mut centered_ranks = vec![f64::NAN; n];
        let perm = argsort(values);
        // Non-NaN values have equal order keys exactly when they are equal.
        let value_of = |row: u32| values.get(row as usize);

        let kept = perm.len();
        let mut group_starts = Vec::new();
        let mut tie_pairs = 0u64;
        let half = (kept as f64 + 1.0) / 2.0;
        let mut start = 0;
        // No poll: one linear pass over the sorted rows; the sort above cannot poll
        for group in perm.chunk_by(|&a, &b| value_of(a) == value_of(b)) {
            let id = group_starts.len() as u32;
            group_starts.push(start as u32);
            // 1-based positions start+1 ..= start+len share their mean.
            let rank = start as f64 + (group.len() as f64 + 1.0) / 2.0 - half;
            for &row in group {
                if let Some(d) = dense.get_mut(row as usize) {
                    *d = id;
                }
                if let Some(r) = centered_ranks.get_mut(row as usize) {
                    *r = rank;
                }
            }
            tie_pairs += pairs(group.len() as u64);
            start += group.len();
        }
        group_starts.push(kept as u32);
        group_starts.shrink_to_fit();

        let spread = (kept == n).then(|| {
            let mean = if n == 0 { 0.0 } else { mean_of(values) };
            // One finite value repeated has zero spread exactly; the
            // rounded mean of such a column need not equal the value.
            let constant = group_starts.len() == 2 && values.first().is_some_and(|v| v.is_finite());
            let m2 = if constant { 0.0 } else { centered_dot(values, mean, values, mean) };
            let rank_m2 = centered_dot(&centered_ranks, 0.0, &centered_ranks, 0.0);
            Spread { mean, m2, rank_m2 }
        });
        let sorted = Sorted { perm, dense, group_starts, tie_pairs };
        ColumnPrep { centered_ranks, sorted, spread }
    }

    /// Whether the column is NaN-free, i.e. its Pearson and Spearman cells
    /// take the centered dot products rather than the per-pair kernels.
    pub fn is_complete(&self) -> bool {
        self.spread.is_some()
    }

    /// The non-NaN entries of `values` — the column this prep was built
    /// from — in ascending order, as `(row, value)`: the argsort read
    /// back, equal values in row order. `None` for a column too long to
    /// have kept its argsort (more than `u32::MAX` rows), or for `values`
    /// of another length than the prepared column.
    pub fn ascending<'a>(
        &'a self,
        values: &'a [f64],
    ) -> Option<impl ExactSizeIterator<Item = (usize, f64)> + 'a> {
        // `dense` has a slot per row of a column that kept its argsort, and
        // none for one that did not; every `perm` row is then in bounds.
        if values.len() != self.sorted.dense.len() {
            return None;
        }
        let rows = self.sorted.perm.iter().map(|&row| row as usize);
        Some(rows.map(|row| (row, values.get(row).copied().unwrap_or(f64::NAN))))
    }
}

impl HeapSize for ColumnPrep {
    fn heap_bytes(&self) -> usize {
        let s = &self.sorted;
        self.centered_ranks.heap_bytes()
            + s.perm.heap_bytes()
            + s.dense.heap_bytes()
            + s.group_starts.heap_bytes()
    }
}

/// One column as a cell kernel sees it: the raw values (NaN at nulls) and
/// the state prepared from them. The values are borrowed, not copied into
/// the prep — whoever gathered them already holds them.
#[derive(Debug, Clone, Copy)]
pub struct Col<'a> {
    /// Raw values the prep was built from.
    pub values: &'a [f64],
    /// [`ColumnPrep::prepare`] of `values`.
    pub prep: &'a ColumnPrep,
}

/// `c / sqrt(m2a · m2b)` under the `None` rules of
/// [`super::PearsonPartial::finish`].
fn finish(n: usize, m2a: f64, m2b: f64, c: f64) -> Option<f64> {
    if n < 2 || m2a <= 0.0 || m2b <= 0.0 {
        return None;
    }
    Some(c / (m2a * m2b).sqrt())
}

/// One coefficient from two prepared columns.
fn cell(method: CorrMethod, a: Col<'_>, b: Col<'_>, scratch: &mut KendallScratch) -> Option<f64> {
    let n = a.values.len();
    let both = match (&a.prep.spread, &b.prep.spread) {
        (Some(sa), Some(sb)) if b.values.len() == n => Some((sa, sb)),
        _ => None,
    };
    match (method, both) {
        (CorrMethod::KendallTau, _) => kendall_cell(&a.prep.sorted, &b.prep.sorted, scratch),
        (CorrMethod::Pearson, Some((sa, sb))) => {
            finish(n, sa.m2, sb.m2, centered_dot(a.values, sa.mean, b.values, sb.mean))
        }
        (CorrMethod::Spearman, Some((sa, sb))) => {
            let c = centered_dot(&a.prep.centered_ranks, 0.0, &b.prep.centered_ranks, 0.0);
            finish(n, sa.rank_m2, sb.rank_m2, c)
        }
        (CorrMethod::Pearson, None) => pearson(a.values, b.values),
        (CorrMethod::Spearman, None) => {
            spearman_from_ranks(&a.prep.centered_ranks, &b.prep.centered_ranks)
        }
    }
}

/// The coefficients of `pairs` (indices into `cols`), in order. One
/// scratch serves every Kendall cell of the call, and the interruption
/// probe is polled before each cell; an interrupted call pads the rest
/// with `None` (the governed scheduler discards the result).
pub fn corr_cells(
    method: CorrMethod,
    cols: &[Col<'_>],
    pairs: &[(usize, usize)],
) -> Vec<Option<f64>> {
    let mut scratch = KendallScratch::default();
    let mut out = Vec::with_capacity(pairs.len());
    for &(i, j) in pairs {
        if crate::interrupt::interrupted() {
            break;
        }
        out.push(match (cols.get(i), cols.get(j)) {
            (Some(&a), Some(&b)) => cell(method, a, b, &mut scratch),
            _ => None,
        });
    }
    out.resize(pairs.len(), None);
    out
}

/// The pairs `(i, j)`, `i < j < m`, row by row: the order matrix cells
/// are computed and stored in.
pub fn upper_triangle(m: usize) -> Vec<(usize, usize)> {
    (0..m).flat_map(|i| (i + 1..m).map(move |j| (i, j))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corr::{kendall_tau, spearman};

    fn one(method: CorrMethod, x: &[f64], y: &[f64]) -> Option<f64> {
        let (px, py) = (ColumnPrep::prepare(x), ColumnPrep::prepare(y));
        let cols = [Col { values: x, prep: &px }, Col { values: y, prep: &py }];
        corr_cells(method, &cols, &[(0, 1)])[0]
    }

    /// Same `None`-ness, and equal to 1e-12 where both are finite.
    fn agree(got: Option<f64>, want: Option<f64>, what: &str) {
        match (got, want) {
            (Some(g), Some(w)) if g.is_finite() || w.is_finite() => {
                assert!((g - w).abs() < 1e-12, "{what}: {g} vs {w}")
            }
            (Some(_), Some(_)) | (None, None) => {}
            _ => panic!("{what}: {got:?} vs {want:?}"),
        }
    }

    fn lcg(seed: u64, n: usize, modulus: u64) -> Vec<f64> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((s >> 33) % modulus) as f64 / 3.0
            })
            .collect()
    }

    #[test]
    fn prep_ranks_are_the_mid_ranks_centered() {
        let v = [4.0, 1.0, 4.0, 2.0, 9.0, 2.0, 2.0, -0.0, 0.0];
        let prep = ColumnPrep::prepare(&v);
        assert!(prep.is_complete());
        let shift = (v.len() as f64 + 1.0) / 2.0;
        for (c, r) in prep.centered_ranks.iter().zip(ranks(&v)) {
            assert_eq!(c + shift, r);
        }
        let s = &prep.sorted;
        // Groups: {-0,0} {1} {2,2,2} {4,4} {9}.
        assert_eq!(s.group_starts, vec![0, 2, 3, 6, 8, 9]);
        assert_eq!(s.tie_pairs, 1 + 3 + 1);
        assert_eq!(s.perm, vec![7, 8, 1, 3, 5, 6, 0, 2, 4]);
        assert_eq!(s.dense, vec![3, 1, 3, 2, 4, 2, 2, 0, 0]);
    }

    /// The argsort the radix sort replaced: `(key, row)` pairs through a
    /// comparison sort.
    fn comparator_argsort(values: &[f64]) -> Vec<u32> {
        let mut keyed: Vec<(i64, u32)> = (0u32..)
            .zip(values)
            .filter(|(_, v)| !v.is_nan())
            .map(|(row, &v)| (order_key(v), row))
            .collect();
        keyed.sort_unstable();
        keyed.into_iter().map(|(_, row)| row).collect()
    }

    #[test]
    fn radix_argsort_is_the_comparator_argsort() {
        let tiny = f64::from_bits(1);
        let specials = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            tiny,
            -tiny,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE / 3.0,
            f64::MAX,
            f64::MIN,
            f64::NAN,
            1.0,
            -1.0,
        ];
        let mut cases: Vec<(&str, Vec<f64>)> = vec![
            ("empty", vec![]),
            ("all NaN", vec![f64::NAN; 9]),
            ("one row", vec![3.5]),
            ("specials", specials.to_vec()),
            ("specials twice", specials.iter().chain(&specials).rev().copied().collect()),
            ("ties", lcg(5, 1000, 7)),
            ("signed zeros", (0..40).map(|i| if i % 3 == 0 { -0.0 } else { 0.0 }).collect()),
            // Keys that differ in their lowest byte only: seven of the
            // eight passes are skipped.
            (
                "one byte",
                (0..300)
                    .map(|i| f64::from_bits(0x4000_0000_0000_0000 | (i * 7919 % 256)))
                    .collect(),
            ),
            // ... and in their top byte only.
            ("top byte", (0..300).map(|i| f64::from_bits((i * 31 % 127) << 56)).collect()),
        ];
        let mut wide = lcg(6, 65_537, 1 << 40);
        wide.iter_mut().step_by(97).for_each(|v| *v = f64::NAN);
        wide.iter_mut().skip(5).step_by(101).for_each(|v| *v = -*v);
        cases.push(("65,537 rows", wide));
        for (name, values) in &cases {
            let perm = argsort(values);
            assert_eq!(perm, comparator_argsort(values), "{name}");
            assert_eq!(perm.capacity(), perm.len(), "{name}");
        }
    }

    #[test]
    fn ascending_reads_the_sorted_values_back() {
        let v = [2.0, f64::NAN, -0.0, f64::INFINITY, 0.0, -3.0, 2.0, f64::NEG_INFINITY];
        let prep = ColumnPrep::prepare(&v);
        let got: Vec<(usize, f64)> = prep.ascending(&v).unwrap().collect();
        let want = [
            (7, f64::NEG_INFINITY),
            (5, -3.0),
            (2, -0.0),
            (4, 0.0),
            (0, 2.0),
            (6, 2.0),
            (3, f64::INFINITY),
        ];
        assert_eq!(got.len(), want.len());
        for ((row, x), (want_row, y)) in got.into_iter().zip(want) {
            assert_eq!((row, x.to_bits()), (want_row, y.to_bits()));
        }
        assert!(prep.ascending(&v[1..]).is_none(), "not the prepared column");
        let none = ColumnPrep::prepare(&[f64::NAN; 2]);
        assert_eq!(none.ascending(&[f64::NAN; 2]).unwrap().len(), 0);
    }

    #[test]
    fn nan_column_sorts_its_non_nan_rows() {
        let v = [2.0, f64::NAN, 1.0, 3.0, 2.0];
        let prep = ColumnPrep::prepare(&v);
        assert!(!prep.is_complete());
        // Ranks over the four non-NaN rows, centered on (4 + 1) / 2.
        let r = &prep.centered_ranks;
        assert_eq!((r[0], r[2], r[3], r[4]), (0.0, -1.5, 1.5, 0.0));
        assert!(r[1].is_nan());
        let s = &prep.sorted;
        assert_eq!(s.perm, vec![2, 0, 4, 3]);
        assert_eq!(s.dense, vec![1, NAN_GROUP, 0, 2, 1]);
        assert_eq!(s.group_starts, vec![0, 1, 3, 4]);
        assert_eq!(s.tie_pairs, 1);
        // Every row NaN: nothing sorted, no group.
        let none = ColumnPrep::prepare(&[f64::NAN; 3]);
        assert!(none.sorted.perm.is_empty());
        assert_eq!(none.sorted.group_starts, vec![0]);
        assert_eq!(none.sorted.dense, vec![NAN_GROUP; 3]);
    }

    #[test]
    fn centered_dot_cells_match_the_pair_kernels() {
        for (seed, n, modulus) in [(1, 500, 40), (2, 1000, 1 << 20), (3, 17, 5), (4, 2, 9)] {
            let (x, y) = (lcg(seed, n, modulus), lcg(seed + 100, n, modulus));
            agree(one(CorrMethod::Pearson, &x, &y), pearson(&x, &y), "pearson");
            agree(one(CorrMethod::Spearman, &x, &y), spearman(&x, &y), "spearman");
            agree(
                one(CorrMethod::Spearman, &x, &y),
                spearman_from_ranks(&ranks(&x), &ranks(&y)),
                "spearman from ranks",
            );
        }
    }

    #[test]
    fn degenerate_columns_keep_the_none_rules() {
        let ramp: Vec<f64> = (0..6).map(f64::from).collect();
        let cases: [(&str, Vec<f64>); 8] = [
            ("constant", vec![0.1; 6]),
            ("huge", vec![1e300, -2e300, 3e300, 1e300, 0.0, 2e300]),
            ("huge offset", vec![1e300, 1e300 + 1e285, 1e300 - 1e285, 1e300, 1e300, 1e300]),
            ("inf", vec![1.0, f64::INFINITY, 3.0, 4.0, 5.0, 6.0]),
            ("both infs", vec![f64::NEG_INFINITY, f64::INFINITY, 3.0, 4.0, 5.0, 6.0]),
            ("all inf", vec![f64::INFINITY; 6]),
            ("signed zeros", vec![0.0, -0.0, 0.0, -0.0, 0.0, -0.0]),
            ("ramp", ramp.clone()),
        ];
        // The streaming update, whatever shape `pearson` dispatches to:
        // where squares overflow, only it defines the `None` rules.
        let welford = |x: &[f64], y: &[f64]| {
            let mut p = crate::corr::PearsonPartial::new();
            x.iter().zip(y).for_each(|(a, b)| p.push(*a, *b));
            p.finish()
        };
        for (name, x) in &cases {
            for (other, y) in &cases {
                let what = format!("{name} ~ {other}");
                agree(one(CorrMethod::Pearson, x, y), welford(x, y), &what);
                agree(one(CorrMethod::Spearman, x, y), spearman(x, y), &what);
            }
        }
        for method in CorrMethod::ALL {
            assert_eq!(one(method, &[], &[]), None);
            assert_eq!(one(method, &[1.0], &[2.0]), None);
            assert_eq!(one(method, &[1.0, 2.0], &[5.0, 3.0]).map(f64::round), Some(-1.0));
            assert_eq!(one(method, &[1.0, 2.0], &[5.0, 5.0]), None);
        }
    }

    #[test]
    fn nan_pairs_fall_back_to_the_pair_kernels() {
        let x = lcg(7, 300, 50);
        let mut y = lcg(8, 300, 50);
        y[5] = f64::NAN;
        y[77] = f64::NAN;
        assert_eq!(one(CorrMethod::Pearson, &x, &y), pearson(&x, &y));
        // Kendall has no fallback: the cell skips the NaN rows itself and
        // lands on the pair kernel's bits.
        assert_eq!(one(CorrMethod::KendallTau, &x, &y), kendall_tau(&x, &y));
        assert_eq!(one(CorrMethod::KendallTau, &y, &x), kendall_tau(&x, &y));
        // Rank-once: each column ranked over its own non-NaN rows.
        agree(
            one(CorrMethod::Spearman, &x, &y),
            spearman_from_ranks(&ranks(&x), &ranks(&y)),
            "rank-once spearman",
        );
    }

    #[test]
    fn cells_are_symmetric_bit_for_bit() {
        let (x, y) = (lcg(11, 400, 30), lcg(12, 400, 1 << 30));
        for method in CorrMethod::ALL {
            assert_eq!(one(method, &x, &y), one(method, &y, &x), "{method:?}");
        }
    }

    #[test]
    fn interrupted_call_pads_with_none() {
        use crate::interrupt::tests::{test_probe, TEST_INTERRUPT};
        crate::interrupt::register(test_probe);
        let x = lcg(1, 50, 10);
        let prep = ColumnPrep::prepare(&x);
        let cols = [Col { values: &x, prep: &prep }; 3];
        TEST_INTERRUPT.with(|f| f.set(true));
        let out = corr_cells(CorrMethod::Pearson, &cols, &upper_triangle(3));
        TEST_INTERRUPT.with(|f| f.set(false));
        assert_eq!(out, vec![None; 3]);
    }

    #[test]
    fn upper_triangle_is_row_major() {
        assert_eq!(upper_triangle(3), vec![(0, 1), (0, 2), (1, 2)]);
        assert!(upper_triangle(1).is_empty());
        assert_eq!(upper_triangle(40).len(), 40 * 39 / 2);
    }

    #[test]
    fn heap_bytes_counts_every_owned_vector() {
        let n = 1000;
        let distinct = ColumnPrep::prepare(&lcg(1, n, 1 << 40));
        assert_eq!(distinct.heap_bytes(), n * 8 + n * 4 + n * 4 + (n + 1) * 4);
        let tied = ColumnPrep::prepare(&vec![1.0; n]);
        assert_eq!(tied.heap_bytes(), n * 8 + n * 4 + n * 4 + 2 * 4);
        // A NaN row is missing from the sort order only.
        let mut with_nan = lcg(2, n, 1 << 40);
        with_nan[3] = f64::NAN;
        let bytes = n * 8 + (n - 1) * 4 + n * 4 + n * 4;
        assert_eq!(ColumnPrep::prepare(&with_nan).heap_bytes(), bytes);
    }
}
