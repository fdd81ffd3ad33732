//! Explicitly vectorizable kernel inner loops.
//!
//! Every hot kernel in this crate has two shapes:
//!
//! * the **scalar** shape — the original streaming update (Welford push,
//!   per-value histogram binning), which is what default builds ship and
//!   what the bit-identical golden tests pin; and
//! * the **vector** shape in this module — chunked fixed-width loops over
//!   [`LANES`]-wide accumulator arrays with no cross-iteration dependency,
//!   which the autovectorizer provably turns into SIMD (the `eda-kernels`
//!   microbench asserts the throughput floor), plus optional
//!   `core::arch` AVX2 intrinsics behind the `simd` cargo feature with
//!   runtime detection.
//!
//! The intrinsic and autovectorized paths are **bit-identical** to each
//! other by construction: both perform the same IEEE operations on the
//! same lane layout in the same order (Rust never contracts `mul`+`add`
//! into FMA, comparisons use the same ordered predicates, and min/max are
//! explicit compare-and-select in both), the scalar tail after the full
//! 8-lane blocks is shared code, and the final lane reduction is a shared
//! helper with a fixed association order. `tests/prop_kernels.rs`
//! property-tests that equivalence, NaN/∞ columns included.
//!
//! The vector shape is only *used* by the public kernel entry points when
//! the `simd` feature is compiled in **and** the process-wide
//! [`set_force_scalar`] override (the scalar-reference tests' switch) is
//! not set; default builds are untouched. The vector shape is always
//! *compiled*, so benchmarks and property tests can compare both paths in
//! any build.

use std::sync::atomic::{AtomicBool, Ordering};

use crate::corr::PearsonPartial;
use crate::histogram::Histogram;
use crate::moments::Moments;

/// Accumulator width of the chunked loops: 8 × f64 = one AVX-512 register
/// or two AVX2 registers. The fallback keeps the same width so lane
/// contents (and therefore reduction order) match the intrinsic path.
pub const LANES: usize = 8;

/// Sub-block length for the multi-pass moment loops: small enough that a
/// sub-block stays in L1 across the three accumulation passes.
const SUB_BLOCK: usize = 1024;

/// Process-wide override forcing the scalar kernel shapes even when the
/// `simd` feature is compiled in. Set only by tests that need the scalar
/// kernels as their reference; reads are a single relaxed load on the
/// slice entry points.
static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

/// Force (or un-force) the scalar kernel shapes at runtime. `true`
/// makes [`simd_enabled`] return `false` regardless of compile features.
pub fn set_force_scalar(force: bool) {
    FORCE_SCALAR.store(force, Ordering::Relaxed);
}

/// Whether the runtime scalar override is set.
pub fn force_scalar() -> bool {
    FORCE_SCALAR.load(Ordering::Relaxed)
}

/// Whether kernel entry points should take the vector shape: compiled
/// with the `simd` feature and not runtime-forced to scalar. Constant
/// `false` in default builds, so the branch folds away.
#[inline]
pub fn simd_enabled() -> bool {
    cfg!(feature = "simd") && !force_scalar()
}

/// Whether the AVX2 intrinsic backends will be dispatched to (feature
/// compiled in, x86-64, and the CPU reports AVX2). Informational — the
/// fallback is bit-identical, so callers never need to branch on this.
pub fn avx2_available() -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        false
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
static AVX2: std::sync::OnceLock<bool> = std::sync::OnceLock::new();

// ---------------------------------------------------------------------------
// Lane accumulators for the moment kernel
// ---------------------------------------------------------------------------

/// Lane-parallel accumulator state for one chunk of the moments kernel.
///
/// The chunk is shifted by its first finite-ish value before the power
/// sums, so `s1..s4` stay well-conditioned; the shift is undone in
/// [`finish_moments`]. Three separate passes keep each loop's live
/// accumulator set inside the vector register file:
/// pass 1 = `s1..s4`, pass 2 = `cnt/sv/mn/mx`, pass 3 = the counters.
struct MomentLanes {
    s1: [f64; LANES],
    s2: [f64; LANES],
    s3: [f64; LANES],
    s4: [f64; LANES],
    cnt: [f64; LANES],
    sv: [f64; LANES],
    mn: [f64; LANES],
    mx: [f64; LANES],
    zer: [f64; LANES],
    neg: [f64; LANES],
    inf: [f64; LANES],
    nan: [f64; LANES],
}

impl MomentLanes {
    fn new() -> Self {
        MomentLanes {
            s1: [0.0; LANES],
            s2: [0.0; LANES],
            s3: [0.0; LANES],
            s4: [0.0; LANES],
            cnt: [0.0; LANES],
            sv: [0.0; LANES],
            mn: [f64::INFINITY; LANES],
            mx: [f64::NEG_INFINITY; LANES],
            zer: [0.0; LANES],
            neg: [0.0; LANES],
            inf: [0.0; LANES],
            nan: [0.0; LANES],
        }
    }
}

/// One element's contribution to pass 1 (shifted power sums) on lane `j`.
#[inline(always)]
fn lane_sums(l: &mut MomentLanes, j: usize, v: f64, shift: f64) {
    let d = if v.is_finite() { v - shift } else { 0.0 };
    let d2 = d * d;
    l.s1[j] += d;
    l.s2[j] += d2;
    l.s3[j] += d2 * d;
    l.s4[j] += d2 * d2;
}

/// One element's contribution to pass 2 (count, raw sum, extrema) on
/// lane `j`. Min/max are explicit compare-and-select (not `f64::min`)
/// so the fallback matches `vcmppd`+`vblendvpd` exactly, signed zeros
/// included.
#[inline(always)]
fn lane_extrema(l: &mut MomentLanes, j: usize, v: f64) {
    let finite = v.is_finite();
    l.cnt[j] += if finite { 1.0 } else { 0.0 };
    l.sv[j] += if finite { v } else { 0.0 };
    let vmn = if finite { v } else { f64::INFINITY };
    let vmx = if finite { v } else { f64::NEG_INFINITY };
    l.mn[j] = if vmn < l.mn[j] { vmn } else { l.mn[j] };
    l.mx[j] = if vmx > l.mx[j] { vmx } else { l.mx[j] };
}

/// One element's contribution to pass 3 (quality counters) on lane `j`.
#[inline(always)]
fn lane_counters(l: &mut MomentLanes, j: usize, v: f64) {
    let finite = v.is_finite();
    let nan = v.is_nan();
    l.zer[j] += if finite && v == 0.0 { 1.0 } else { 0.0 };
    l.neg[j] += if finite && v < 0.0 { 1.0 } else { 0.0 };
    l.nan[j] += if nan { 1.0 } else { 0.0 };
    l.inf[j] += if !finite && !nan { 1.0 } else { 0.0 };
}

/// Fallback (autovectorized) lane passes over the full-block region.
fn moment_blocks_fallback(blocks: &[f64], shift: f64, l: &mut MomentLanes) {
    // eda-lint: allow(EDA-L6) processes one CHECK_INTERVAL chunk; moments_slice polls between chunks
    for sub in blocks.chunks(SUB_BLOCK) {
        for ch in sub.chunks_exact(LANES) {
            for (j, &v) in ch.iter().enumerate() {
                lane_sums(l, j, v, shift);
            }
        }
        for ch in sub.chunks_exact(LANES) {
            for (j, &v) in ch.iter().enumerate() {
                lane_extrema(l, j, v);
            }
        }
        for ch in sub.chunks_exact(LANES) {
            for (j, &v) in ch.iter().enumerate() {
                lane_counters(l, j, v);
            }
        }
    }
}

/// Dispatch the lane passes: AVX2 intrinsics when detected, else the
/// autovectorized fallback (bit-identical either way).
fn moment_blocks(blocks: &[f64], shift: f64, l: &mut MomentLanes) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if avx2_available() {
        // SAFETY: `avx2_available` just confirmed the CPU supports the
        // target features this function is compiled with.
        unsafe { x86::moment_blocks_avx2(blocks, shift, l) };
        return;
    }
    moment_blocks_fallback(blocks, shift, l);
}

/// Reduce one lane array with the fixed association the AVX2 layout
/// implies: the two 4-lane registers fold element-wise first, then the
/// 4 partials fold pairwise.
#[inline]
fn reduce_sum(l: &[f64; LANES]) -> f64 {
    ((l[0] + l[4]) + (l[1] + l[5])) + ((l[2] + l[6]) + (l[3] + l[7]))
}

#[inline]
fn reduce_min(l: &[f64; LANES]) -> f64 {
    let mut m = l[0];
    // eda-lint: allow(EDA-L6) fixed 8-lane reduction
    for &v in &l[1..] {
        m = if v < m { v } else { m };
    }
    m
}

#[inline]
fn reduce_max(l: &[f64; LANES]) -> f64 {
    let mut m = l[0];
    // eda-lint: allow(EDA-L6) fixed 8-lane reduction
    for &v in &l[1..] {
        m = if v > m { v } else { m };
    }
    m
}

/// Convert the reduced shifted power sums into a [`Moments`] partial.
fn finish_moments(l: &MomentLanes, shift: f64) -> Moments {
    let zeros = reduce_sum(&l.zer) as u64;
    let negatives = reduce_sum(&l.neg) as u64;
    let infinites = reduce_sum(&l.inf) as u64;
    let nans = reduce_sum(&l.nan) as u64;
    let count = reduce_sum(&l.cnt) as u64;
    if count == 0 {
        return Moments {
            zeros,
            negatives,
            infinites,
            nans,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            ..Moments::default()
        };
    }
    let s1 = reduce_sum(&l.s1);
    let s2 = reduce_sum(&l.s2);
    let s3 = reduce_sum(&l.s3);
    let s4 = reduce_sum(&l.s4);
    let n = count as f64;
    // Mean of the shifted values; central moments from shifted power sums.
    let db = s1 / n;
    let db2 = db * db;
    // m2/m4 are sums of even powers — tiny negative results are pure
    // cancellation noise and would poison sqrt/kurtosis downstream.
    let m2 = (s2 - s1 * db).max(0.0);
    let m3 = s3 - 3.0 * db * s2 + 2.0 * db2 * s1;
    let m4 = (s4 - 4.0 * db * s3 + 6.0 * db2 * s2 - 3.0 * db2 * db * s1).max(0.0);
    Moments {
        count,
        mean: shift + db,
        m2,
        m3,
        m4,
        min: reduce_min(&l.mn),
        max: reduce_max(&l.mx),
        sum: reduce_sum(&l.sv),
        zeros,
        negatives,
        infinites,
        nans,
    }
}

/// Moments of one chunk via the lane-parallel shifted-power-sum kernel.
///
/// The result is a mergeable [`Moments`] partial: callers fold chunks
/// together with [`Moments::merge`] (Pébay).
pub fn moments_chunk(values: &[f64]) -> Moments {
    if values.is_empty() {
        return Moments::new();
    }
    // Shift by the first value (when usable) so the power sums are
    // centered-ish; any finite shift keeps the algebra exact.
    let shift = if values[0].is_finite() { values[0] } else { 0.0 };
    let mut l = MomentLanes::new();
    let full = values.len() - values.len() % LANES;
    moment_blocks(&values[..full], shift, &mut l);
    // Shared scalar tail: identical code on both dispatch paths.
    // eda-lint: allow(EDA-L6) tail shorter than LANES elements
    for (j, &v) in values[full..].iter().enumerate() {
        lane_sums(&mut l, j, v, shift);
        lane_extrema(&mut l, j, v);
        lane_counters(&mut l, j, v);
    }
    finish_moments(&l, shift)
}

/// Vector-shape slice accumulation for [`Moments`]: per-chunk lane
/// kernels merged with Pébay, polling the cooperative-interruption probe
/// at the same cadence as the scalar entry point.
pub fn moments_slice(m: &mut Moments, values: &[f64]) {
    for chunk in values.chunks(crate::interrupt::CHECK_INTERVAL) {
        if crate::interrupt::interrupted() {
            return;
        }
        let part = moments_chunk(chunk);
        m.merge(&part);
    }
}

// ---------------------------------------------------------------------------
// Min/max pre-pass
// ---------------------------------------------------------------------------

/// Fallback (autovectorized) min/max lane pass.
fn minmax_blocks_fallback(blocks: &[f64], mn: &mut [f64; LANES], mx: &mut [f64; LANES]) {
    for ch in blocks.chunks_exact(LANES) {
        for (j, &v) in ch.iter().enumerate() {
            let finite = v.is_finite();
            let vmn = if finite { v } else { f64::INFINITY };
            let vmx = if finite { v } else { f64::NEG_INFINITY };
            mn[j] = if vmn < mn[j] { vmn } else { mn[j] };
            mx[j] = if vmx > mx[j] { vmx } else { mx[j] };
        }
    }
}

fn minmax_blocks(blocks: &[f64], mn: &mut [f64; LANES], mx: &mut [f64; LANES]) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if avx2_available() {
        // SAFETY: AVX2 support was just confirmed by `avx2_available`.
        unsafe { x86::minmax_blocks_avx2(blocks, mn, mx) };
        return;
    }
    minmax_blocks_fallback(blocks, mn, mx);
}

/// Finite min/max of a slice in one lane-parallel pass — the range
/// pre-pass for histogram grids and box plots. Returns
/// `(+∞, -∞)` when no finite values are present (same sentinel the
/// scalar scans use).
pub fn minmax(values: &[f64]) -> (f64, f64) {
    let mut mn = [f64::INFINITY; LANES];
    let mut mx = [f64::NEG_INFINITY; LANES];
    let full = values.len() - values.len() % LANES;
    minmax_blocks(&values[..full], &mut mn, &mut mx);
    for (j, &v) in values[full..].iter().enumerate() {
        let finite = v.is_finite();
        let vmn = if finite { v } else { f64::INFINITY };
        let vmx = if finite { v } else { f64::NEG_INFINITY };
        mn[j] = if vmn < mn[j] { vmn } else { mn[j] };
        mx[j] = if vmx > mx[j] { vmx } else { mx[j] };
    }
    (reduce_min(&mn), reduce_max(&mx))
}

// ---------------------------------------------------------------------------
// Histogram fill
// ---------------------------------------------------------------------------

/// Block length of the two-pass histogram fill: pass 1 turns a block of
/// values into clamped bin indices (pure arithmetic — vectorizes), pass 2
/// scatters increments into stripe-local count arrays (breaks the
/// store-to-load dependency between equal bins in consecutive elements).
const HIST_BLOCK: usize = 1024;

/// Count-array stripes for the scatter pass.
const HIST_STRIPES: usize = 4;

/// Vector-shape histogram fill.
///
/// Differences from the scalar [`Histogram::push`] loop, both gated
/// behind the `simd` feature:
///
/// * the bin width and its reciprocal are hoisted out of the loop, and
///   the bin index is `(v - min) * inv_width` instead of
///   `(v - min) / width`. For power-of-two widths the two are identical;
///   for other widths a value mathematically *on* a bin boundary can
///   round into the neighboring bin. Counts still partition the data and
///   merge exactly — only boundary attribution can shift by one bin.
/// * out-of-range and non-finite values are classified branchlessly into
///   sentinel bins and folded into `underflow`/`overflow` at the end.
///
/// Polls the interruption probe per
/// [`crate::interrupt::CHECK_INTERVAL`] chunk like every slice kernel.
pub fn histogram_fill(h: &mut Histogram, values: &[f64]) {
    if h.is_degenerate() {
        // Degenerate grids are compare-only; reuse the scalar path.
        for chunk in values.chunks(crate::interrupt::CHECK_INTERVAL) {
            if crate::interrupt::interrupted() {
                return;
            }
            for &v in chunk {
                h.push(v);
            }
        }
        return;
    }
    let nbins = h.nbins();
    let min = h.min;
    let max = h.max;
    let width = (max - min) / nbins as f64;
    let inv_width = 1.0 / width;
    // Sentinels: nbins = overflow, nbins+1 = underflow, nbins+2 = dropped
    // (non-finite). One stripe-set of u64 counts covers all of them.
    let stride = nbins + 3;
    let mut stripes = vec![0u64; stride * HIST_STRIPES];
    for chunk in values.chunks(crate::interrupt::CHECK_INTERVAL) {
        if crate::interrupt::interrupted() {
            return;
        }
        hist_chunk(chunk, min, max, inv_width, nbins, &mut stripes);
    }
    // eda-lint: allow(EDA-L6) folds HIST_STRIPES x nbins counters, independent of row count
    for s in 0..HIST_STRIPES {
        let base = s * stride;
        for b in 0..nbins {
            h.counts[b] += stripes[base + b];
        }
        h.overflow += stripes[base + nbins];
        h.underflow += stripes[base + nbins + 1];
    }
}

/// Count one chunk into the stripe arrays: AVX2 when detected, else the
/// two-pass autovectorized fallback. Stripe contents can differ between
/// the two (stripe assignment is orchestration), but the classified
/// index of every element is identical (see [`x86::hist_chunk_avx2`]),
/// and the striped counts fold into the same histogram either way.
fn hist_chunk(chunk: &[f64], min: f64, max: f64, inv_width: f64, nbins: usize, stripes: &mut [u64]) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if avx2_available() {
        // SAFETY: `avx2_available` just confirmed the CPU supports the
        // target features this function is compiled with.
        unsafe { x86::hist_chunk_avx2(chunk, min, max, inv_width, nbins, stripes) };
        return;
    }
    hist_chunk_fallback(chunk, min, max, inv_width, nbins, stripes);
}

/// Fallback chunk counting: classify a block of indices (pass 1,
/// autovectorized), then scatter them into the four stripes (pass 2).
///
/// The stripes are split into four fixed slices so the scatter needs no
/// stripe-base multiply, and `min(cap)` (the identity — every
/// classified index is `<= cap`) makes the increments provably
/// in-bounds.
fn hist_chunk_fallback(
    chunk: &[f64],
    min: f64,
    max: f64,
    inv_width: f64,
    nbins: usize,
    stripes: &mut [u64],
) {
    let stride = nbins + 3;
    let cap = stride - 1;
    let (s0, rest) = stripes.split_at_mut(stride);
    let (s1, rest) = rest.split_at_mut(stride);
    let (s2, s3) = rest.split_at_mut(stride);
    let mut idx = [0u32; HIST_BLOCK];
    // eda-lint: allow(EDA-L6) processes one CHECK_INTERVAL chunk; histogram_fill polls between chunks
    for block in chunk.chunks(HIST_BLOCK) {
        classify_fallback(block, min, max, inv_width, nbins, &mut idx[..block.len()]);
        let mut quads = idx[..block.len()].chunks_exact(HIST_STRIPES);
        for q in &mut quads {
            s0[(q[0] as usize).min(cap)] += 1;
            s1[(q[1] as usize).min(cap)] += 1;
            s2[(q[2] as usize).min(cap)] += 1;
            s3[(q[3] as usize).min(cap)] += 1;
        }
        for (k, &b) in quads.remainder().iter().enumerate() {
            let s: &mut [u64] = match k {
                0 => s0,
                1 => s1,
                2 => s2,
                _ => s3,
            };
            s[(b as usize).min(cap)] += 1;
        }
    }
}

/// Branchless fallback classify: clamp the bin number in the f64 domain
/// (compare-and-select, not `f64::clamp`), truncate once to `u32`
/// (packed `cvttpd2dq` — the original version's early `as usize` has no
/// packed form before AVX-512 and kept the whole pass scalar), then
/// resolve the sentinels with integer selects.
fn classify_fallback(block: &[f64], min: f64, max: f64, inv_width: f64, nbins: usize, idx: &mut [u32]) {
    let cap = (nbins - 1) as f64;
    let of = nbins as u32;
    // eda-lint: allow(EDA-L6) classifies one HIST_BLOCK block
    for (dst, &v) in idx.iter_mut().zip(block) {
        let t = (v - min) * inv_width;
        let t = if t > cap { cap } else { t };
        let t = if t < 0.0 { 0.0 } else { t };
        let q = t as u32;
        let q = if v > max { of } else { q };
        let q = if v < min { of + 1 } else { q };
        let q = if v.is_finite() { q } else { of + 2 };
        *dst = q;
    }
}

// ---------------------------------------------------------------------------
// Pearson accumulation
// ---------------------------------------------------------------------------

/// Pearson partial of one chunk pair via lane-parallel shifted sums.
///
/// Pairs with NaN on either side contribute nothing, matching
/// [`PearsonPartial::push`].
pub fn pearson_chunk(x: &[f64], y: &[f64]) -> PearsonPartial {
    let len = x.len().min(y.len());
    let (x, y) = (&x[..len], &y[..len]);
    if len == 0 {
        return PearsonPartial::new();
    }
    let (sx, sy) = if !x[0].is_nan() && !y[0].is_nan() { (x[0], y[0]) } else { (0.0, 0.0) };
    let mut cnt = [0.0f64; LANES];
    let mut sdx = [0.0f64; LANES];
    let mut sdy = [0.0f64; LANES];
    let mut sxx = [0.0f64; LANES];
    let mut syy = [0.0f64; LANES];
    let mut sxy = [0.0f64; LANES];
    let full = len - len % LANES;
    // eda-lint: allow(EDA-L6) processes one CHECK_INTERVAL chunk; pearson_slices polls between chunks
    for (cx, cy) in x[..full].chunks_exact(LANES).zip(y[..full].chunks_exact(LANES)) {
        for (j, (&a, &b)) in cx.iter().zip(cy).enumerate() {
            let valid = !a.is_nan() && !b.is_nan();
            let dx = if valid { a - sx } else { 0.0 };
            let dy = if valid { b - sy } else { 0.0 };
            cnt[j] += if valid { 1.0 } else { 0.0 };
            sdx[j] += dx;
            sdy[j] += dy;
            sxx[j] += dx * dx;
            syy[j] += dy * dy;
            sxy[j] += dx * dy;
        }
    }
    // eda-lint: allow(EDA-L6) tail shorter than LANES elements
    for j in full..len {
        let (a, b) = (x[j], y[j]);
        let valid = !a.is_nan() && !b.is_nan();
        let dx = if valid { a - sx } else { 0.0 };
        let dy = if valid { b - sy } else { 0.0 };
        let lane = j - full;
        cnt[lane] += if valid { 1.0 } else { 0.0 };
        sdx[lane] += dx;
        sdy[lane] += dy;
        sxx[lane] += dx * dx;
        syy[lane] += dy * dy;
        sxy[lane] += dx * dy;
    }
    let n = reduce_sum(&cnt) as u64;
    if n == 0 {
        return PearsonPartial::new();
    }
    let nf = n as f64;
    let tdx = reduce_sum(&sdx);
    let tdy = reduce_sum(&sdy);
    let mean_x = sx + tdx / nf;
    let mean_y = sy + tdy / nf;
    let m2x = (reduce_sum(&sxx) - tdx * tdx / nf).max(0.0);
    let m2y = (reduce_sum(&syy) - tdy * tdy / nf).max(0.0);
    let cxy = reduce_sum(&sxy) - tdx * tdy / nf;
    PearsonPartial::from_raw(n, mean_x, mean_y, m2x, m2y, cxy)
}

/// Vector-shape paired-slice accumulation for [`PearsonPartial`], with
/// the standard interruption cadence.
pub fn pearson_slices(p: &mut PearsonPartial, x: &[f64], y: &[f64]) {
    let len = x.len().min(y.len());
    let step = crate::interrupt::CHECK_INTERVAL;
    let mut start = 0;
    while start < len {
        if crate::interrupt::interrupted() {
            return;
        }
        let end = (start + step).min(len);
        let part = pearson_chunk(&x[start..end], &y[start..end]);
        p.merge(&part);
        start = end;
    }
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
    // eda-lint: allow(EDA-L6) one O(n) pass; the cell loop in corr::prep polls between cells
    for (bx, by) in cx.zip(cy) {
        for ((s, a), b) in acc.iter_mut().zip(bx).zip(by) {
            *s += (a - mx) * (b - my);
        }
    }
    acc.iter_mut().zip(tail).for_each(|(s, (a, b))| *s += (a - mx) * (b - my));
    reduce_sum(&acc)
}

// ---------------------------------------------------------------------------
// Nullity / boolean-indicator counting
// ---------------------------------------------------------------------------

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
/// [`PearsonPartial::finish`] degeneracy rules as the scalar path.
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

// ---------------------------------------------------------------------------
// AVX2 intrinsic backends
// ---------------------------------------------------------------------------

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod x86 {
    //! AVX2 backends for the lane passes. Each function performs the
    //! exact IEEE operation sequence of its fallback twin on the same
    //! 8-lane layout (two `__m256d` registers per accumulator array), so
    //! results are bit-identical — no FMA, ordered non-signaling
    //! compares, and compare-and-blend min/max.

    use super::{MomentLanes, LANES};
    use std::arch::x86_64::*;

    /// Load one lane array as two 4-wide registers.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load(l: &[f64; LANES]) -> (__m256d, __m256d) {
        // SAFETY: `l` is 8 contiguous f64s; unaligned loads are allowed.
        unsafe { (_mm256_loadu_pd(l.as_ptr()), _mm256_loadu_pd(l.as_ptr().add(4))) }
    }

    /// Store two 4-wide registers back into a lane array.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store(l: &mut [f64; LANES], v: (__m256d, __m256d)) {
        // SAFETY: `l` is 8 contiguous f64s; unaligned stores are allowed.
        unsafe {
            _mm256_storeu_pd(l.as_mut_ptr(), v.0);
            _mm256_storeu_pd(l.as_mut_ptr().add(4), v.1);
        }
    }

    /// Fold a sub-block's eight integer lane counts into the f64 lane
    /// accumulators. Counts are small integers (≤ the sub-block length)
    /// and lane totals stay far below 2^53, so the conversion and the
    /// addition are both exact.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn fold_counts(dst: &mut [f64; LANES], a: __m256i, b: __m256i) {
        let mut tmp = [0u64; LANES];
        // SAFETY: `tmp` holds exactly two 256-bit lanes' worth of u64s.
        unsafe {
            _mm256_storeu_si256(tmp.as_mut_ptr().cast(), a);
            _mm256_storeu_si256(tmp.as_mut_ptr().add(4).cast(), b);
        }
        for (d, &c) in dst.iter_mut().zip(&tmp) {
            *d += c as f64;
        }
    }

    /// AVX2 twin of `moment_blocks_fallback`: the three lane passes over
    /// the full-block region, sub-blocked for L1 residency.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn moment_blocks_avx2(blocks: &[f64], shift: f64, l: &mut MomentLanes) {
        // SAFETY: all intrinsics below are AVX/AVX2, guaranteed by the
        // caller; every pointer dereference is within `blocks` or a lane
        // array.
        unsafe {
            let shift_v = _mm256_set1_pd(shift);
            let inf = _mm256_set1_pd(f64::INFINITY);
            let ninf = _mm256_set1_pd(f64::NEG_INFINITY);
            let sign = _mm256_set1_pd(-0.0);
            let one = _mm256_set1_pd(1.0);
            for sub in blocks.chunks(super::SUB_BLOCK) {
                // Pass 1: shifted power sums.
                let (mut s1a, mut s1b) = load(&l.s1);
                let (mut s2a, mut s2b) = load(&l.s2);
                let (mut s3a, mut s3b) = load(&l.s3);
                let (mut s4a, mut s4b) = load(&l.s4);
                for ch in sub.chunks_exact(LANES) {
                    let va = _mm256_loadu_pd(ch.as_ptr());
                    let vb = _mm256_loadu_pd(ch.as_ptr().add(4));
                    // finite ⇔ |v| < ∞ (ordered compare: false for NaN).
                    let fa = _mm256_cmp_pd::<_CMP_LT_OQ>(_mm256_andnot_pd(sign, va), inf);
                    let fb = _mm256_cmp_pd::<_CMP_LT_OQ>(_mm256_andnot_pd(sign, vb), inf);
                    let da = _mm256_and_pd(_mm256_sub_pd(va, shift_v), fa);
                    let db = _mm256_and_pd(_mm256_sub_pd(vb, shift_v), fb);
                    let d2a = _mm256_mul_pd(da, da);
                    let d2b = _mm256_mul_pd(db, db);
                    s1a = _mm256_add_pd(s1a, da);
                    s1b = _mm256_add_pd(s1b, db);
                    s2a = _mm256_add_pd(s2a, d2a);
                    s2b = _mm256_add_pd(s2b, d2b);
                    s3a = _mm256_add_pd(s3a, _mm256_mul_pd(d2a, da));
                    s3b = _mm256_add_pd(s3b, _mm256_mul_pd(d2b, db));
                    s4a = _mm256_add_pd(s4a, _mm256_mul_pd(d2a, d2a));
                    s4b = _mm256_add_pd(s4b, _mm256_mul_pd(d2b, d2b));
                }
                store(&mut l.s1, (s1a, s1b));
                store(&mut l.s2, (s2a, s2b));
                store(&mut l.s3, (s3a, s3b));
                store(&mut l.s4, (s4a, s4b));

                // Pass 2: count, raw sum, extrema.
                let (mut ca, mut cb) = load(&l.cnt);
                let (mut va_sum, mut vb_sum) = load(&l.sv);
                let (mut mna, mut mnb) = load(&l.mn);
                let (mut mxa, mut mxb) = load(&l.mx);
                for ch in sub.chunks_exact(LANES) {
                    let va = _mm256_loadu_pd(ch.as_ptr());
                    let vb = _mm256_loadu_pd(ch.as_ptr().add(4));
                    let fa = _mm256_cmp_pd::<_CMP_LT_OQ>(_mm256_andnot_pd(sign, va), inf);
                    let fb = _mm256_cmp_pd::<_CMP_LT_OQ>(_mm256_andnot_pd(sign, vb), inf);
                    ca = _mm256_add_pd(ca, _mm256_and_pd(one, fa));
                    cb = _mm256_add_pd(cb, _mm256_and_pd(one, fb));
                    va_sum = _mm256_add_pd(va_sum, _mm256_and_pd(va, fa));
                    vb_sum = _mm256_add_pd(vb_sum, _mm256_and_pd(vb, fb));
                    // if finite { v } else { ±∞ }: blend picks `v` where
                    // the mask is set.
                    let vmna = _mm256_blendv_pd(inf, va, fa);
                    let vmnb = _mm256_blendv_pd(inf, vb, fb);
                    let vmxa = _mm256_blendv_pd(ninf, va, fa);
                    let vmxb = _mm256_blendv_pd(ninf, vb, fb);
                    // `vminpd(a, b)` is `if a < b { a } else { b }` — the
                    // fallback's compare-and-select exactly, equal values
                    // and signed zeros included (both keep `b`), and no
                    // lane is ever NaN here (blended to ±∞ above).
                    mna = _mm256_min_pd(vmna, mna);
                    mnb = _mm256_min_pd(vmnb, mnb);
                    mxa = _mm256_max_pd(vmxa, mxa);
                    mxb = _mm256_max_pd(vmxb, mxb);
                }
                store(&mut l.cnt, (ca, cb));
                store(&mut l.sv, (va_sum, vb_sum));
                store(&mut l.mn, (mna, mnb));
                store(&mut l.mx, (mxa, mxb));

                // Pass 3: quality counters, in the integer domain. The
                // predicates are pure bit tests on IEEE-754 layout —
                // NaN ⇔ |bits| > exp-all-ones, ∞ ⇔ |bits| == it,
                // finite ⇔ |bits| < it, zero ⇔ |bits| == 0, and
                // `finite && v < 0` ⇔ sign set, finite, not −0.0 — so
                // they match the fallback's float compares exactly while
                // running off the FP ports the other two passes saturate.
                // (|bits| has the top bit clear, so signed 64-bit
                // compares agree with unsigned ones.) Each `vpsubq` of a
                // mask adds exact +1s; per-sub-block counts (≤ SUB_BLOCK)
                // fold into the f64 lanes exactly, giving bit-identical
                // lane values to the one-by-one `+= 1.0` of the fallback.
                let abs_i = _mm256_set1_epi64x(0x7FFF_FFFF_FFFF_FFFF);
                let exp_inf = _mm256_set1_epi64x(0x7FF0_0000_0000_0000);
                let zero_i = _mm256_setzero_si256();
                let mut za = zero_i;
                let mut zb = zero_i;
                let mut na = zero_i;
                let mut nb = zero_i;
                let mut ia = zero_i;
                let mut ib = zero_i;
                let mut qa = zero_i;
                let mut qb = zero_i;
                for ch in sub.chunks_exact(LANES) {
                    let ba = _mm256_castpd_si256(_mm256_loadu_pd(ch.as_ptr()));
                    let bb = _mm256_castpd_si256(_mm256_loadu_pd(ch.as_ptr().add(4)));
                    let aa = _mm256_and_si256(ba, abs_i);
                    let ab = _mm256_and_si256(bb, abs_i);
                    let nan_a = _mm256_cmpgt_epi64(aa, exp_inf);
                    let nan_b = _mm256_cmpgt_epi64(ab, exp_inf);
                    let inf_a = _mm256_cmpeq_epi64(aa, exp_inf);
                    let inf_b = _mm256_cmpeq_epi64(ab, exp_inf);
                    let zer_a = _mm256_cmpeq_epi64(aa, zero_i);
                    let zer_b = _mm256_cmpeq_epi64(ab, zero_i);
                    let fin_a = _mm256_cmpgt_epi64(exp_inf, aa);
                    let fin_b = _mm256_cmpgt_epi64(exp_inf, ab);
                    let sgn_a = _mm256_cmpgt_epi64(zero_i, ba);
                    let sgn_b = _mm256_cmpgt_epi64(zero_i, bb);
                    let neg_a = _mm256_andnot_si256(zer_a, _mm256_and_si256(sgn_a, fin_a));
                    let neg_b = _mm256_andnot_si256(zer_b, _mm256_and_si256(sgn_b, fin_b));
                    za = _mm256_sub_epi64(za, zer_a);
                    zb = _mm256_sub_epi64(zb, zer_b);
                    na = _mm256_sub_epi64(na, neg_a);
                    nb = _mm256_sub_epi64(nb, neg_b);
                    ia = _mm256_sub_epi64(ia, inf_a);
                    ib = _mm256_sub_epi64(ib, inf_b);
                    qa = _mm256_sub_epi64(qa, nan_a);
                    qb = _mm256_sub_epi64(qb, nan_b);
                }
                fold_counts(&mut l.zer, za, zb);
                fold_counts(&mut l.neg, na, nb);
                fold_counts(&mut l.inf, ia, ib);
                fold_counts(&mut l.nan, qa, qb);
            }
        }
    }

    /// AVX2 twin of `minmax_blocks_fallback`.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn minmax_blocks_avx2(blocks: &[f64], mn: &mut [f64; LANES], mx: &mut [f64; LANES]) {
        // SAFETY: AVX2 guaranteed by the caller; all accesses stay
        // inside `blocks` / the lane arrays.
        unsafe {
            let inf = _mm256_set1_pd(f64::INFINITY);
            let ninf = _mm256_set1_pd(f64::NEG_INFINITY);
            let sign = _mm256_set1_pd(-0.0);
            let (mut mna, mut mnb) = load(mn);
            let (mut mxa, mut mxb) = load(mx);
            for ch in blocks.chunks_exact(LANES) {
                let va = _mm256_loadu_pd(ch.as_ptr());
                let vb = _mm256_loadu_pd(ch.as_ptr().add(4));
                let fa = _mm256_cmp_pd::<_CMP_LT_OQ>(_mm256_andnot_pd(sign, va), inf);
                let fb = _mm256_cmp_pd::<_CMP_LT_OQ>(_mm256_andnot_pd(sign, vb), inf);
                let vmna = _mm256_blendv_pd(inf, va, fa);
                let vmnb = _mm256_blendv_pd(inf, vb, fb);
                let vmxa = _mm256_blendv_pd(ninf, va, fa);
                let vmxb = _mm256_blendv_pd(ninf, vb, fb);
                mna = _mm256_blendv_pd(mna, vmna, _mm256_cmp_pd::<_CMP_LT_OQ>(vmna, mna));
                mnb = _mm256_blendv_pd(mnb, vmnb, _mm256_cmp_pd::<_CMP_LT_OQ>(vmnb, mnb));
                mxa = _mm256_blendv_pd(mxa, vmxa, _mm256_cmp_pd::<_CMP_GT_OQ>(vmxa, mxa));
                mxb = _mm256_blendv_pd(mxb, vmxb, _mm256_cmp_pd::<_CMP_GT_OQ>(vmxb, mxb));
            }
            store(mn, (mna, mnb));
            store(mx, (mxa, mxb));
        }
    }

    /// Classify eight lanes into `out`. Lanes with `min <= v <= max`
    /// (an ordered compare, so NaN fails it) need no sentinel: their
    /// index is the truncated bin number with an *integer* clamp —
    /// `vcvttpd2dq` + `vpminsd` — which equals the fallback's
    /// float-domain clamp-then-truncate because both truncate the same
    /// product and cap it at the same `nbins - 1`. Groups with any
    /// out-of-range/non-finite lane (rare: a histogram grid usually
    /// spans its column) reuse `classify_fallback` for those values, so
    /// every classified index is identical to the fallback's by
    /// construction.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2. `ch` and `out` must
    /// hold at least 8 elements.
    // The hoisted splat registers travel alongside their scalar sources
    // so the rare-path fallback can reuse the scalars; a params struct
    // would only re-spill what the caller already keeps in registers.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    unsafe fn classify8(
        ch: &[f64],
        out: &mut [u32],
        vmin: __m256d,
        vmax: __m256d,
        vinv: __m256d,
        vcap: __m256i,
        min: f64,
        max: f64,
        inv_width: f64,
        nbins: usize,
    ) {
        // SAFETY: AVX2 guaranteed by the caller; loads stay inside the
        // 8-element group and the index store inside `out`.
        unsafe {
            let va = _mm256_loadu_pd(ch.as_ptr());
            let vb = _mm256_loadu_pd(ch.as_ptr().add(4));
            let in_a = _mm256_and_pd(
                _mm256_cmp_pd::<_CMP_GE_OQ>(va, vmin),
                _mm256_cmp_pd::<_CMP_LE_OQ>(va, vmax),
            );
            let in_b = _mm256_and_pd(
                _mm256_cmp_pd::<_CMP_GE_OQ>(vb, vmin),
                _mm256_cmp_pd::<_CMP_LE_OQ>(vb, vmax),
            );
            if _mm256_movemask_pd(_mm256_and_pd(in_a, in_b)) == 0xF {
                let ta = _mm256_mul_pd(_mm256_sub_pd(va, vmin), vinv);
                let tb = _mm256_mul_pd(_mm256_sub_pd(vb, vmin), vinv);
                // t >= 0 (v >= min), so only the upper clamp is live;
                // the two 4-lane truncations clamp as one 8-lane min.
                let q = _mm256_min_epi32(
                    _mm256_set_m128i(_mm256_cvttpd_epi32(tb), _mm256_cvttpd_epi32(ta)),
                    vcap,
                );
                _mm256_storeu_si256(out.as_mut_ptr().cast(), q);
            } else {
                super::classify_fallback(&ch[..8], min, max, inv_width, nbins, &mut out[..8]);
            }
        }
    }

    /// Scatter sixteen classified indices into the four stripes — one
    /// stripe per quad lane, so equal bins in consecutive elements hit
    /// different counts. `min(cap)` is the identity (every index is
    /// `<= cap`) and makes the increments provably in-bounds.
    #[inline(always)]
    fn scatter16(idx: &[u32], s0: &mut [u64], s1: &mut [u64], s2: &mut [u64], s3: &mut [u64], cap: usize) {
        for q in idx.chunks_exact(4) {
            s0[(q[0] as usize).min(cap)] += 1;
            s1[(q[1] as usize).min(cap)] += 1;
            s2[(q[2] as usize).min(cap)] += 1;
            s3[(q[3] as usize).min(cap)] += 1;
        }
    }

    /// AVX2 twin of `hist_chunk_fallback`, software-pipelined: group
    /// `g`'s sixteen lanes are classified (FP-port work) while group
    /// `g - 1`'s indices are scattered (load/store-port work), so the
    /// two halves overlap instead of running as separate passes. The
    /// one-group gap matters: scattering indices the classify just
    /// stored reads a 4-byte slice of a 32-byte store still in the
    /// store buffer, and that store-to-load forwarding latency chains
    /// every iteration (measured ~12% slower than no fusion at all).
    /// Ping-ponging between the two halves of a 32-entry stage buffer
    /// gives every store a full classify round to drain.
    ///
    /// Classified indices are identical to `hist_chunk_fallback`'s by
    /// construction (see [`classify8`]) — and since stripe counts fold
    /// by addition, the resulting histogram is too.
    ///
    /// `stripes` must hold `HIST_STRIPES` stripes of `nbins + 3`.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn hist_chunk_avx2(
        chunk: &[f64],
        min: f64,
        max: f64,
        inv_width: f64,
        nbins: usize,
        stripes: &mut [u64],
    ) {
        let stride = nbins + 3;
        let cap = stride - 1;
        let (s0, rest) = stripes.split_at_mut(stride);
        let (s1, rest) = rest.split_at_mut(stride);
        let (s2, s3) = rest.split_at_mut(stride);
        let mut stage = [0u32; 32];
        let mut pairs = chunk.chunks_exact(16);
        let mut g = 0usize;
        // SAFETY: AVX2 guaranteed by the caller (classify8's contract).
        unsafe {
            let vmin = _mm256_set1_pd(min);
            let vmax = _mm256_set1_pd(max);
            let vinv = _mm256_set1_pd(inv_width);
            let vcap = _mm256_set1_epi32(nbins as i32 - 1);
            for p in &mut pairs {
                let off = (g & 1) * 16;
                classify8(&p[..8], &mut stage[off..], vmin, vmax, vinv, vcap, min, max, inv_width, nbins);
                classify8(&p[8..], &mut stage[off + 8..], vmin, vmax, vinv, vcap, min, max, inv_width, nbins);
                if g > 0 {
                    let prev = ((g & 1) ^ 1) * 16;
                    scatter16(&stage[prev..prev + 16], s0, s1, s2, s3, cap);
                }
                g += 1;
            }
        }
        if g > 0 {
            let last = ((g - 1) & 1) * 16;
            scatter16(&stage[last..last + 16], s0, s1, s2, s3, cap);
        }
        let rem = pairs.remainder();
        super::classify_fallback(rem, min, max, inv_width, nbins, &mut stage[..rem.len()]);
        for (k, &b) in stage[..rem.len()].iter().enumerate() {
            let s: &mut [u64] = match k & 3 {
                0 => s0,
                1 => s1,
                2 => s2,
                _ => s3,
            };
            s[(b as usize).min(cap)] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
    }

    fn data(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 2654435761) % 1000) as f64 / 10.0 - 40.0).collect()
    }

    #[test]
    fn moments_chunk_matches_scalar() {
        let vals = data(1037);
        let scalar = {
            let mut m = Moments::new();
            for &v in &vals {
                m.push(v);
            }
            m
        };
        let vector = moments_chunk(&vals);
        assert_eq!(vector.count, scalar.count);
        assert_eq!(vector.zeros, scalar.zeros);
        assert_eq!(vector.negatives, scalar.negatives);
        assert_eq!(vector.min, scalar.min);
        assert_eq!(vector.max, scalar.max);
        assert!(close(vector.mean, scalar.mean, 1e-12));
        assert!(close(vector.m2, scalar.m2, 1e-9));
        assert!(close(vector.m3, scalar.m3, 1e-7));
        assert!(close(vector.m4, scalar.m4, 1e-7));
    }

    #[test]
    fn moments_chunk_quality_counters() {
        let vals = vec![0.0, -1.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 2.0, f64::NAN];
        let m = moments_chunk(&vals);
        assert_eq!(m.count, 3);
        assert_eq!(m.zeros, 1);
        assert_eq!(m.negatives, 1);
        assert_eq!(m.nans, 2);
        assert_eq!(m.infinites, 2);
        assert_eq!(m.min, -1.5);
        assert_eq!(m.max, 2.0);
    }

    #[test]
    fn moments_chunk_all_nan_leading() {
        // First element non-finite exercises the 0.0 shift path.
        let m = moments_chunk(&[f64::NAN, 1.0, 2.0, 3.0]);
        assert_eq!(m.count, 3);
        assert!(close(m.mean, 2.0, 1e-12));
    }

    #[test]
    fn minmax_matches_scalar_scan() {
        let mut vals = data(517);
        vals[13] = f64::NAN;
        vals[400] = f64::INFINITY;
        let (mn, mx) = minmax(&vals);
        let mut smn = f64::INFINITY;
        let mut smx = f64::NEG_INFINITY;
        for &v in &vals {
            if v.is_finite() {
                smn = smn.min(v);
                smx = smx.max(v);
            }
        }
        assert_eq!((mn, mx), (smn, smx));
        assert_eq!(minmax(&[]), (f64::INFINITY, f64::NEG_INFINITY));
        assert_eq!(minmax(&[f64::NAN]), (f64::INFINITY, f64::NEG_INFINITY));
    }

    #[test]
    fn histogram_fill_power_of_two_width_matches_scalar() {
        // Width 128/16 = 8 = 2^3: reciprocal multiply is exact, so the
        // vector fill must match the scalar push loop bin-for-bin.
        let vals: Vec<f64> = (0..3000).map(|i| ((i * 37) % 160) as f64 - 16.0).collect();
        let mut scalar = Histogram::new(0.0, 128.0, 16);
        for &v in &vals {
            scalar.push(v);
        }
        let mut vector = Histogram::new(0.0, 128.0, 16);
        histogram_fill(&mut vector, &vals);
        assert_eq!(vector, scalar);
    }

    #[test]
    fn histogram_fill_conserves_counts() {
        let mut vals = data(2100);
        vals[7] = f64::NAN;
        vals[1009] = f64::INFINITY;
        let mut h = Histogram::new(-40.0, 59.0, 13);
        histogram_fill(&mut h, &vals);
        assert_eq!(h.total() + h.underflow + h.overflow, 2100 - 2);
    }

    #[test]
    fn histogram_fill_degenerate_grid() {
        let mut h = Histogram::new(5.0, 5.0, 4);
        histogram_fill(&mut h, &[5.0, 5.0, 4.0, 6.0, f64::NAN]);
        assert_eq!(h.counts[0], 2);
        assert_eq!(h.underflow, 1);
        assert_eq!(h.overflow, 1);
    }

    #[test]
    fn pearson_chunk_matches_scalar() {
        let x = data(701);
        let y: Vec<f64> = x.iter().enumerate().map(|(i, v)| v * 0.5 + (i % 7) as f64).collect();
        let mut scalar = PearsonPartial::new();
        for (a, b) in x.iter().zip(&y) {
            scalar.push(*a, *b);
        }
        let vector = pearson_chunk(&x, &y);
        assert_eq!(vector.n, scalar.n);
        let (sf, vf) = (scalar.finish().unwrap(), vector.finish().unwrap());
        assert!(close(sf, vf, 1e-10), "{sf} vs {vf}");
    }

    #[test]
    fn pearson_chunk_skips_nan_pairs() {
        let x = [1.0, f64::NAN, 3.0, 4.0, 5.0];
        let y = [2.0, 4.0, f64::NAN, 8.0, 10.0];
        let p = pearson_chunk(&x, &y);
        assert_eq!(p.n, 3);
        assert!(close(p.finish().unwrap(), 1.0, 1e-12));
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

    #[test]
    fn force_scalar_round_trip() {
        assert!(!force_scalar());
        set_force_scalar(true);
        assert!(!simd_enabled());
        set_force_scalar(false);
        assert_eq!(simd_enabled(), cfg!(feature = "simd"));
    }

    #[cfg(feature = "simd")]
    #[test]
    fn avx2_bit_identical_to_fallback() {
        // The dispatch test: run the block passes both ways on data with
        // every value class and require exact equality of all lanes.
        let mut vals = data(4096);
        vals[3] = f64::NAN;
        vals[100] = f64::INFINITY;
        vals[101] = f64::NEG_INFINITY;
        vals[500] = 0.0;
        vals[501] = -0.0;
        let shift = vals[0];
        let mut lf = MomentLanes::new();
        moment_blocks_fallback(&vals, shift, &mut lf);
        let mut ld = MomentLanes::new();
        moment_blocks(&vals, shift, &mut ld);
        let mf = finish_moments(&lf, shift);
        let md = finish_moments(&ld, shift);
        assert_eq!(mf, md);

        let mut mn_f = [f64::INFINITY; LANES];
        let mut mx_f = [f64::NEG_INFINITY; LANES];
        minmax_blocks_fallback(&vals, &mut mn_f, &mut mx_f);
        let mut mn_d = [f64::INFINITY; LANES];
        let mut mx_d = [f64::NEG_INFINITY; LANES];
        minmax_blocks(&vals, &mut mn_d, &mut mx_d);
        assert_eq!(mn_f, mn_d);
        assert_eq!(mx_f, mx_d);
    }

    #[cfg(feature = "simd")]
    #[test]
    fn hist_and_joint_avx2_bit_identical_to_fallback() {
        // Histogram: a grid narrower than the data range so every path
        // fires (in-range fast path, underflow, overflow, non-finite),
        // on an odd length so both tail shapes run. The stripes fold to
        // the same per-bin counts regardless of stripe assignment.
        let mut vals = data(4097);
        vals[3] = f64::NAN;
        vals[100] = f64::INFINITY;
        vals[101] = f64::NEG_INFINITY;
        vals[500] = 0.0;
        vals[501] = -0.0;
        let nbins = 13;
        let (min, max) = (-30.0, 40.0);
        let inv_width = nbins as f64 / (max - min);
        let stride = nbins + 3;
        let fold = |stripes: &[u64]| -> Vec<u64> {
            (0..stride).map(|b| (0..HIST_STRIPES).map(|s| stripes[s * stride + b]).sum()).collect()
        };
        let mut sd = vec![0u64; stride * HIST_STRIPES];
        hist_chunk(&vals, min, max, inv_width, nbins, &mut sd);
        let mut sf = vec![0u64; stride * HIST_STRIPES];
        hist_chunk_fallback(&vals, min, max, inv_width, nbins, &mut sf);
        assert_eq!(fold(&sd), fold(&sf));
        assert_eq!(fold(&sd).iter().sum::<u64>(), vals.len() as u64);
    }
}
