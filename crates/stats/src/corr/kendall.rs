//! Kendall's tau-b via Knight's O(n log n) algorithm.
//!
//! The naive tau is O(n²) in pair comparisons — too slow for the row counts
//! in the paper's Table 2. Knight (1966) counts discordant pairs as the
//! inversions of the y sequence ordered by `(x, y)`, and corrects for ties:
//!
//! `tau_b = (n0 - n1 - n2 + n3 - 2·D) / sqrt((n0 - n1)(n0 - n2))`
//!
//! with `n0 = n(n-1)/2`, `n1`/`n2` tie pair counts in x/y, `n3` joint-tie
//! pairs, `D` discordant pairs — the same formulation SciPy uses.
//!
//! One entry point builds that sequence, `kendall_cell`, from two
//! columns' sort orders (`Sorted`, which every [`super::ColumnPrep`]
//! holds): a matrix cell, a vector entry and a loose pair
//! ([`super::CorrMethod::compute`], which builds just the two `Sorted`s)
//! all run it. It needs no comparison sort — the sequence is read out of
//! the two columns' own sort orders, skipping rows where either is NaN —
//! and hands a sequence of dense `u32` tie-group indices to the inversion
//! counter, a counting tree that neither sorts nor branches on the data.

use super::prep::{Sorted, NAN_GROUP};
use crate::interrupt::{interrupted, CHECK_INTERVAL};

/// `k choose 2`.
pub(super) fn pairs(k: u64) -> u64 {
    k * k.saturating_sub(1) / 2
}

/// `Σ t(t-1)/2` over tie groups.
fn tie_pairs<'a, T: 'a>(groups: impl Iterator<Item = &'a [T]>) -> u64 {
    groups.map(|group| pairs(group.len() as u64)).sum()
}

/// Tau-b from the pair counts of `n` observations; `None` when either
/// side is entirely tied (or `n < 2`). The numerator is summed in
/// integers, so it does not depend on which column was called x.
fn tau_b(n: u64, n1: u64, n2: u64, n3: u64, discordant: u64) -> Option<f64> {
    let n0 = pairs(n);
    let denom = (n0.saturating_sub(n1) as f64) * (n0.saturating_sub(n2) as f64);
    if denom <= 0.0 {
        return None;
    }
    let numer = i128::from(n0) + i128::from(n3)
        - i128::from(n1)
        - i128::from(n2)
        - 2 * i128::from(discordant);
    Some(numer as f64 / denom.sqrt())
}

/// Fan-out of the counting tree: a node is 16 `u32` counts — one cache
/// line, four SSE2 vectors.
const FAN: usize = 16;

/// `ABOVE[slot][lane]` is all ones where `lane > slot`: ANDed over a node
/// it keeps the counts of the slots above `slot`.
#[expect(clippy::indexing_slicing, reason = "const-evaluated with slot, lane < FAN")]
const ABOVE: [[u32; FAN]; FAN] = {
    let mut masks = [[0u32; FAN]; FAN];
    let mut slot = 0;
    while slot < FAN {
        let mut lane = slot + 1;
        while lane < FAN {
            masks[slot][lane] = u32::MAX;
            lane += 1;
        }
        slot += 1;
    }
    masks
};

/// Count the inversions of `seq` — pairs `i < j` with `seq[i] > seq[j]` —
/// whose values are tie-group indices below `groups`, and the tie pairs
/// `Σ t(t-1)/2` over its values.
///
/// A counting tree of fan-out [`FAN`] over the group index: level 0 holds
/// one count per group, level `k` one per `16^k` groups, each in nodes of
/// 16 up to a single top node. An element adds, at every level, the counts
/// in its node's slots above its own — a fixed 16-lane masked sum, so
/// nothing branches on the data and equal values need no case — bumps its
/// own slot and moves to the parent `idx / 16`; what it added up is the
/// number of earlier elements strictly greater. `levels` is scratch kept
/// across calls.
///
/// Returns `None` when interrupted (polled every [`CHECK_INTERVAL`]
/// elements).
fn count_inversions(seq: &[u32], groups: usize, levels: &mut Vec<Vec<u32>>) -> Option<(u64, u64)> {
    let nodes_per_level = std::iter::successors(Some(groups.div_ceil(FAN).max(1)), |&nodes| {
        (nodes > 1).then(|| nodes.div_ceil(FAN))
    });
    levels.resize_with(nodes_per_level.clone().count(), Vec::new);
    // No poll: at most eight levels cover every u32 group index
    for (level, nodes) in levels.iter_mut().zip(nodes_per_level) {
        level.clear();
        level.resize(nodes * FAN, 0);
    }
    let mut inversions = 0u64;
    for block in seq.chunks(CHECK_INTERVAL) {
        if interrupted() {
            return None;
        }
        for &group in block {
            let mut idx = group as usize;
            for level in levels.iter_mut() {
                let (node, slot) = (idx / FAN, idx % FAN);
                let (Some(counts), Some(above)) =
                    (level.as_chunks_mut::<FAN>().0.get_mut(node), ABOVE.get(slot))
                else {
                    break;
                };
                inversions += u64::from(counts.iter().zip(above).map(|(c, m)| c & m).sum::<u32>());
                if let Some(count) = counts.get_mut(slot) {
                    *count += 1;
                }
                idx = node;
            }
        }
    }
    // Level 0 now counts the elements of every group, and
    // Σ t(t-1)/2 = (Σ t² - Σ t) / 2 with Σ t the sequence's length.
    let squares: u64 =
        levels.first().map_or(0, |level| level.iter().map(|&t| u64::from(t).pow(2)).sum());
    Some((inversions, squares.saturating_sub(seq.len() as u64) / 2))
}

/// Buffers one Kendall cell needs, kept across the cells of a tile so a
/// tile allocates them once.
#[derive(Debug, Default)]
pub struct KendallScratch {
    seq: Vec<u32>,
    cursors: Vec<u32>,
    levels: Vec<Vec<u32>>,
}

/// Kendall's tau-b of two prepared columns over the rows where neither is
/// NaN (`None` when fewer than 2 remain or either side is entirely tied),
/// without a comparison sort per pair: Knight's
/// sequence — y ordered by `(x, y)` — is y's tie group of each kept row,
/// visited in x's order when x has no ties, and otherwise scattered in
/// *y's* order into one cursor per x tie group (stable, so every group
/// comes out y-ascending). A pair of NaN-free columns is the case where
/// every row is kept.
pub(super) fn kendall_cell(x: &Sorted, y: &Sorted, scratch: &mut KendallScratch) -> Option<f64> {
    if x.dense.len() != y.dense.len() {
        return None;
    }
    let KendallScratch { seq, cursors, levels } = scratch;
    // A row's tie group in a column; `None` where the column is NaN.
    let group_in = |column: &Sorted, row: u32| {
        column.dense.get(row as usize).copied().filter(|&group| group != NAN_GROUP)
    };
    let (mut n1, mut n3) = (0u64, 0u64);
    seq.clear();
    if x.tie_pairs == 0 {
        for block in x.perm.chunks(CHECK_INTERVAL) {
            if interrupted() {
                return None;
            }
            seq.extend(block.iter().filter_map(|&row| group_in(y, row)));
        }
    } else {
        // Kept rows per x group, counted one slot up so that the running
        // sums leave every group's first position in its own slot.
        cursors.clear();
        cursors.resize(x.group_starts.len(), 0);
        for block in y.perm.chunks(CHECK_INTERVAL) {
            if interrupted() {
                return None;
            }
            for &row in block {
                let slot = group_in(x, row).and_then(|group| cursors.get_mut(group as usize + 1));
                if let Some(count) = slot {
                    *count += 1;
                }
            }
        }
        let mut kept = 0u32;
        // No poll: one linear pass over the tie groups
        for count in cursors.iter_mut() {
            n1 += pairs(u64::from(*count));
            kept += *count;
            *count = kept;
        }
        seq.resize(kept as usize, 0);
        for block in y.perm.chunks(CHECK_INTERVAL) {
            if interrupted() {
                return None;
            }
            for &row in block {
                let Some(cursor) =
                    group_in(x, row).and_then(|group| cursors.get_mut(group as usize))
                else {
                    continue;
                };
                if let (Some(slot), Some(&group)) =
                    (seq.get_mut(*cursor as usize), y.dense.get(row as usize))
                {
                    *slot = group;
                }
                *cursor += 1;
            }
        }
        if y.tie_pairs > 0 {
            // Joint ties: runs of one y group inside one x group, whose
            // end the scatter left in its cursor.
            let mut start = 0;
            // No poll: one linear pass over the tie groups
            for &end in cursors.iter() {
                let group = seq.get(start as usize..end as usize).unwrap_or(&[]);
                n3 += tie_pairs(group.chunk_by(|a, b| a == b));
                start = end;
            }
        }
    }
    let groups = y.group_starts.len().saturating_sub(1);
    let (discordant, n2) = count_inversions(seq, groups, levels)?;
    tau_b(seq.len() as u64, n1, n2, n3, discordant)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corr::CorrMethod;
    use crate::oracle::{
        inversions_fenwick, inversions_quadratic, kendall_tau_fenwick, kendall_tau_quadratic,
    };

    /// A loose pair, as `CorrMethod::compute` takes it.
    fn tau(x: &[f64], y: &[f64]) -> Option<f64> {
        CorrMethod::KendallTau.compute(x, y)
    }

    #[test]
    fn perfect_agreement() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert!((tau(&x, &y).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_disagreement() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [4.0, 3.0, 2.0, 1.0];
        assert!((tau(&x, &y).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn known_value() {
        // scipy.stats.kendalltau([1,2,3,4,5], [2,1,4,3,5]).statistic == 0.6
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [2.0, 1.0, 4.0, 3.0, 5.0];
        assert!((tau(&x, &y).unwrap() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn ties_handled_as_tau_b() {
        // scipy.stats.kendalltau([1,2,2,3], [1,2,3,4]) ≈ 0.9128709291752769
        let x = [1.0, 2.0, 2.0, 3.0];
        let y = [1.0, 2.0, 3.0, 4.0];
        let tau = tau(&x, &y).unwrap();
        assert!((tau - 0.912_870_929_175_276_9).abs() < 1e-12, "tau = {tau}");
    }

    #[test]
    fn degenerate_cases() {
        assert_eq!(tau(&[], &[]), None);
        assert_eq!(tau(&[1.0], &[1.0]), None);
        assert_eq!(tau(&[2.0, 2.0], &[1.0, 3.0]), None);
    }

    #[test]
    fn nan_pairs_dropped() {
        let x = [1.0, f64::NAN, 2.0, 3.0];
        let y = [1.0, 99.0, 2.0, 3.0];
        assert!((tau(&x, &y).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fast_matches_naive_on_pseudorandom_data() {
        // Deterministic pseudo-random data with plenty of ties.
        let x: Vec<f64> = (0..300).map(|i| ((i * 37 + 11) % 23) as f64).collect();
        let y: Vec<f64> = (0..300).map(|i| ((i * 53 + 7) % 19) as f64).collect();
        let fast = tau(&x, &y).unwrap();
        let naive = kendall_tau_quadratic(&x, &y).unwrap();
        assert!((fast - naive).abs() < 1e-12, "{fast} vs {naive}");
    }

    #[test]
    fn fast_matches_naive_continuous() {
        let x: Vec<f64> = (0..200).map(|i| ((i * 97 + 13) % 541) as f64 / 7.0).collect();
        let y: Vec<f64> = (0..200).map(|i| ((i * 31 + 29) % 769) as f64 / 11.0).collect();
        let fast = tau(&x, &y).unwrap();
        let naive = kendall_tau_quadratic(&x, &y).unwrap();
        assert!((fast - naive).abs() < 1e-12);
    }

    #[test]
    fn symmetry() {
        let x = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0];
        let y = [2.0, 7.0, 1.0, 8.0, 2.0, 8.0, 1.0];
        let a = tau(&x, &y).unwrap();
        let b = tau(&y, &x).unwrap();
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
        // The oracle sums the same integer pair counts: the same bits.
        assert_eq!(fast, kendall_tau_fenwick(&x, &y).unwrap());
        // Either column's sort order can drive the cell.
        assert_eq!(fast, cell(&y, &x).unwrap());
    }

    #[test]
    fn prepped_matches_plain_continuous() {
        let x: Vec<f64> = (0..200).map(|i| ((i * 97 + 13) % 541) as f64 / 7.0).collect();
        let y: Vec<f64> = (0..200).map(|i| ((i * 31 + 29) % 769) as f64 / 11.0).collect();
        assert_eq!(cell(&x, &y), kendall_tau_fenwick(&x, &y));
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
    /// value, sorted, reversed, signed zeros, NaN rows (tied and untied
    /// columns, at different rows), all NaN, and the tiny lengths.
    fn families(n: usize) -> Vec<(&'static str, Vec<f64>)> {
        let mut state = 0x9E3779B97F4A7C15u64 ^ n as u64;
        let mut next = move |modulus: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) % modulus) as f64
        };
        let holes = |values: Vec<f64>, every: usize, at: usize| -> Vec<f64> {
            let nan_at = |i: usize| i % every == at;
            values.iter().enumerate().map(|(i, &v)| if nan_at(i) { f64::NAN } else { v }).collect()
        };
        let tied: Vec<f64> = (0..n).map(|_| next(4)).collect();
        let distinct: Vec<f64> =
            (0..n).map(|i| next(1 << 30) + i as f64 / (2 * n) as f64).collect();
        vec![
            ("tie-heavy with NaN", holes(tied.clone(), 3, 0)),
            ("distinct with NaN", holes(distinct.clone(), 4, 1)),
            (
                "two rows left",
                (0..n).map(|i| if i + 2 >= n { i as f64 } else { f64::NAN }).collect(),
            ),
            ("all NaN", vec![f64::NAN; n]),
            ("tie-heavy", tied),
            ("some ties", (0..n).map(|_| next(n as u64 / 2 + 1) / 4.0).collect()),
            ("distinct", distinct),
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
                    assert_eq!(got, tau(x, y), "{what}");
                    assert_eq!(got, cell(y, x), "{what}: argument order");
                    assert_eq!(got, kendall_tau_fenwick(x, y), "{what}: Fenwick oracle");
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
        // The tile loop polls once; x has a tie, so the cell walks y's
        // order twice (count, scatter) in two blocks of rows each — four
        // polls — and the counter polls per block of the sequence: the
        // seventh poll is halfway through the inversion count.
        TEST_POLLS_LEFT.with(|p| p.set(Some(7)));
        assert_eq!(cell(&x, &y), None);
        assert!(TEST_INTERRUPT.with(|f| f.get()), "the countdown never reached zero");
        TEST_INTERRUPT.with(|f| f.set(false));
        // One poll more than the cell makes: it is never interrupted.
        TEST_POLLS_LEFT.with(|p| p.set(Some(8)));
        assert!(cell(&x, &y).is_some());
        assert!(!TEST_INTERRUPT.with(|f| f.get()), "the cell polled more than seven times");
        TEST_POLLS_LEFT.with(|p| p.set(None));
    }

    #[test]
    fn fenwick_reference_matches_quadratic_oracle() {
        let x: Vec<f64> = (0..300).map(|i| ((i * 37 + 11) % 23) as f64).collect();
        let y: Vec<f64> = (0..300).map(|i| ((i * 53 + 7) % 19) as f64).collect();
        let fenwick = kendall_tau_fenwick(&x, &y).unwrap();
        let oracle = kendall_tau_quadratic(&x, &y).unwrap();
        assert!((fenwick - oracle).abs() < 1e-12, "{fenwick} vs {oracle}");
        let xc: Vec<f64> = (0..150).map(|i| ((i * 97 + 13) % 541) as f64 / 7.0).collect();
        let yc: Vec<f64> = (0..150).map(|i| ((i * 31 + 29) % 769) as f64 / 11.0).collect();
        let fenwick = kendall_tau_fenwick(&xc, &yc).unwrap();
        let oracle = kendall_tau_quadratic(&xc, &yc).unwrap();
        assert!((fenwick - oracle).abs() < 1e-12);
    }

    #[test]
    fn fenwick_reference_degenerate_cases() {
        assert_eq!(kendall_tau_fenwick(&[], &[]), None);
        assert_eq!(kendall_tau_fenwick(&[1.0], &[1.0]), None);
        // All-tied sides must return None without underflowing the
        // signed pair identities.
        assert_eq!(kendall_tau_fenwick(&[2.0, 2.0], &[1.0, 3.0]), None);
        assert_eq!(kendall_tau_fenwick(&[2.0, 2.0, 2.0], &[2.0, 2.0, 2.0]), None);
        let x = [1.0, f64::NAN, 2.0, 3.0];
        let y = [1.0, 99.0, 2.0, 3.0];
        assert!((kendall_tau_fenwick(&x, &y).unwrap() - 1.0).abs() < 1e-12);
    }

    /// `(inversions, tie pairs)` of a sequence by the counting tree.
    fn tree(seq: &[u32], groups: usize) -> (u64, u64) {
        count_inversions(seq, groups, &mut Vec::new()).unwrap()
    }

    #[test]
    fn inversion_counter_basics() {
        assert_eq!(tree(&[2, 0, 1], 3), (2, 0));
        assert_eq!(tree(&[0, 1, 2, 3], 4), (0, 0));
        assert_eq!(tree(&[3, 2, 1, 0], 4), (6, 0));
        // Equal values are not inversions; they are the tie pairs.
        assert_eq!(tree(&[1, 1, 0, 1], 2), (2, 3));
        assert_eq!(tree(&[], 0), (0, 0));
    }

    #[test]
    fn counting_tree_matches_the_quadratic_count_around_every_node_boundary() {
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move |modulus: usize| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) % modulus as u64) as u32
        };
        // Scratch reused across sizes, as a tile reuses it across cells.
        let mut levels = Vec::new();
        for n in [0usize, 1, 2, 15, 16, 17, 255, 256, 257, 4095, 4096, 4097] {
            for groups in [1, 2, 16, 17, n] {
                let seq: Vec<u32> = (0..n).map(|_| next(groups.max(1))).collect();
                let (inversions, _) = count_inversions(&seq, groups, &mut levels).unwrap();
                assert_eq!(inversions, inversions_quadratic(&seq), "n={n} groups={groups}");
            }
        }
    }

    #[test]
    fn counting_tree_matches_the_fenwick_count_one_level_up() {
        // 16^4 + 1 and 16^5 + 1 groups: one more tree level each.
        for n in [65_537usize, 1_048_577] {
            let mut state = n as u64;
            let seq: Vec<u32> = (0..n)
                .map(|_| {
                    state =
                        state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    ((state >> 33) % n as u64) as u32
                })
                .collect();
            assert_eq!(tree(&seq, n).0, inversions_fenwick(&seq, n), "n={n}");
        }
    }
}
