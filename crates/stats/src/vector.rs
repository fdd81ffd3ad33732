//! Lane-shaped inner loops.
//!
//! Each loop keeps [`LANES`] independent accumulators — element `i` lands
//! in lane `i % LANES` — with no dependency from one iteration to the
//! next, which the compiler turns into SIMD in the one default build, and
//! the lanes fold with the fixed association of [`reduce_sum`]. A result
//! therefore depends on its inputs alone, not on how a caller tiled or
//! scheduled the work. The Pearson chunk kernel
//! ([`crate::corr::PearsonPartial::push_slices`]) is written the same way.

use crate::corr::PearsonPartial;

/// Accumulator width of the lane loops: 8 × f64.
pub const LANES: usize = 8;

/// Block length of [`count_joint`]'s `u32` lane counters, drained into
/// `u64` totals after every block.
const SUB_BLOCK: usize = 1024;

/// Sum one lane array with a fixed association: the two halves fold
/// element-wise first, then the four partials fold pairwise.
#[inline]
pub(crate) fn reduce_sum(l: &[f64; LANES]) -> f64 {
    let [a, b, c, d, e, f, g, h] = *l;
    ((a + e) + (b + f)) + ((c + g) + (d + h))
}

/// `Σ (x[i] − mx)·(y[i] − my)` over the common prefix of two slices:
/// the correlation-cell inner loop over a pair of prepared columns
/// ([`crate::corr::ColumnPrep`]), which know their means up front.
///
/// Element `i` always lands in lane `i % LANES` and the lanes fold with
/// the fixed association of `reduce_sum`, so the result depends on the
/// inputs alone — not on how a matrix was tiled or how many workers ran
/// it. Swapping the arguments gives the same bits (`a·b == b·a`).
pub fn centered_dot(x: &[f64], mx: f64, y: &[f64], my: f64) -> f64 {
    let len = x.len().min(y.len());
    let (x, y) = (x.get(..len).unwrap_or(x), y.get(..len).unwrap_or(y));
    let mut acc = [0.0f64; LANES];
    let (cx, cy) = (x.chunks_exact(LANES), y.chunks_exact(LANES));
    let tail = cx.remainder().iter().zip(cy.remainder());
    // No poll: one O(n) pass; the cell loop in corr::prep polls between cells
    for (bx, by) in cx.zip(cy) {
        for ((s, a), b) in acc.iter_mut().zip(bx).zip(by) {
            *s += (a - mx) * (b - my);
        }
    }
    acc.iter_mut().zip(tail).for_each(|(s, (a, b))| *s += (a - mx) * (b - my));
    reduce_sum(&acc)
}

/// Joint counts of two boolean indicator columns over their common
/// prefix: `(count_a, count_b, count_both)`.
///
/// Indicator vectors are how the baseline profiler (and missingno) hold
/// nullity; the engine itself counts validity bitmaps word by word and
/// only shares the [`phi`] arithmetic. Lane-shaped byte sums, drained
/// every block, which the autovectorizer packs.
pub fn count_joint(a: &[bool], b: &[bool]) -> (u64, u64, u64) {
    let (mut na, mut nb, mut nab) = (0u64, 0u64, 0u64);
    // u32 lane accumulators, drained every block — safe for any chunk
    // length up to u32::MAX per lane, and narrow enough to vectorize.
    // `zip` stops at the shorter side, block by block and lane by lane.
    for (ca, cb) in a.chunks(SUB_BLOCK).zip(b.chunks(SUB_BLOCK)) {
        let mut lanes = [(0u32, 0u32, 0u32); LANES];
        for (ba, bb) in ca.chunks(LANES).zip(cb.chunks(LANES)) {
            for (lane, (&va, &vb)) in lanes.iter_mut().zip(ba.iter().zip(bb)) {
                lane.0 += u32::from(va);
                lane.1 += u32::from(vb);
                lane.2 += u32::from(va && vb);
            }
        }
        for lane in lanes {
            na += u64::from(lane.0);
            nb += u64::from(lane.1);
            nab += u64::from(lane.2);
        }
    }
    (na, nb, nab)
}

/// Pearson correlation of two boolean indicator columns from exact joint
/// counts (the φ coefficient), routed through the same
/// [`PearsonPartial::finish`] degeneracy rules as the float kernels.
pub fn bool_pearson(a: &[bool], b: &[bool]) -> Option<f64> {
    let (na, nb, nab) = count_joint(a, b);
    phi(a.len().min(b.len()) as u64, na, nb, nab)
}

/// The φ coefficient — Pearson correlation of two 0/1 indicators — from
/// integer counts alone: `rows` observations, `na` / `nb` ones on each
/// side, `nab` rows where both are one. `None` under the degeneracy rules
/// of [`PearsonPartial::finish`] (no rows, or a constant side).
pub fn phi(rows: u64, na: u64, nb: u64, nab: u64) -> Option<f64> {
    if rows == 0 {
        return None;
    }
    let n = rows as f64;
    let (fa, fb, fab) = (na as f64, nb as f64, nab as f64);
    let m2x = fa * (n - fa) / n;
    let m2y = fb * (n - fb) / n;
    let cxy = fab - fa * fb / n;
    PearsonPartial::from_raw(rows, fa / n, fb / n, m2x, m2y, cxy).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn count_joint_matches_naive() {
        let a: Vec<bool> = (0..1500).map(|i| i % 3 == 0).collect();
        let b: Vec<bool> = (0..1500).map(|i| i % 5 == 0).collect();
        let (na, nb, nab) = count_joint(&a, &b);
        assert_eq!(na, a.iter().filter(|&&x| x).count() as u64);
        assert_eq!(nb, b.iter().filter(|&&x| x).count() as u64);
        assert_eq!(nab, a.iter().zip(&b).filter(|(&x, &y)| x && y).count() as u64);
    }

    #[test]
    fn bool_pearson_matches_float_pearson() {
        let a: Vec<bool> = (0..400).map(|i| (i * 7) % 11 < 4).collect();
        let b: Vec<bool> = (0..400).map(|i| (i * 13) % 17 < 9).collect();
        let fa: Vec<f64> = a.iter().map(|&x| f64::from(u8::from(x))).collect();
        let fb: Vec<f64> = b.iter().map(|&x| f64::from(u8::from(x))).collect();
        let expect = crate::pearson(&fa, &fb).unwrap();
        let got = bool_pearson(&a, &b).unwrap();
        assert!(close(expect, got, 1e-12));
        // Constant indicator: undefined correlation both ways.
        assert_eq!(bool_pearson(&[true; 10], &a[..10]), None);
    }
}
