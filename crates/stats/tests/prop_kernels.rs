//! Property-based tests on the statistical kernels: merge-equivalence of
//! every mergeable sketch, agreement of fast vs naive algorithms, and
//! range/invariance properties of the coefficients.

// Test code asserts freely; the package-level unwrap/expect deny
// targets shipped code.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing, clippy::panic)]

mod oracle;

use eda_stats::corr::{corr_cells, Col, ColumnPrep, CorrMethod};
use eda_stats::corr::{pearson, PearsonPartial};
use eda_dataframe::{Column, Selection};
use eda_stats::freq::CatFreq;
use eda_stats::histogram::Histogram;
use eda_stats::hypothesis::{ks_distance, ks_distance_sorted};
use eda_stats::interrupt::CHECK_INTERVAL;
use eda_stats::moments::Moments;
use eda_stats::quantile::{quantile_sorted, quantiles, quantiles_nth, sorted_values, BoxPlot};
use eda_stats::rank::ranks;
use eda_stats::text::TextStats;
use eda_stats::vector::count_joint;
use proptest::prelude::*;

fn finite_f64() -> impl Strategy<Value = f64> {
    // Bounded magnitude keeps the merge-equality tolerances honest.
    -1.0e6..1.0e6f64
}

fn data(min_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(finite_f64(), min_len..200)
}

/// Mostly a handful of values, signed zeros and NaN among them, so ties
/// are the rule; now and then any finite value.
fn tied() -> impl Strategy<Value = Vec<f64>> {
    let few = prop::sample::select(vec![-0.0, 0.0, 1.0, -2.5, 3.0, 1e6, f64::NAN]);
    prop::collection::vec(prop_oneof![3 => few, 1 => finite_f64()], 0..120)
}

proptest! {
    #[test]
    fn moments_merge_equals_single_pass(values in data(0), split in 0.0f64..1.0) {
        let cut = ((values.len() as f64) * split) as usize;
        let whole = Moments::from_slice(&values);
        let mut merged = Moments::from_slice(&values[..cut]);
        merged.merge(&Moments::from_slice(&values[cut..]));
        prop_assert_eq!(merged.count, whole.count);
        if whole.count > 0 {
            prop_assert!((merged.mean - whole.mean).abs() <= 1e-6 * (1.0 + whole.mean.abs()));
            prop_assert!((merged.m2 - whole.m2).abs() <= 1e-5 * (1.0 + whole.m2.abs()));
            prop_assert_eq!(merged.min, whole.min);
            prop_assert_eq!(merged.max, whole.max);
        }
    }

    #[test]
    fn variance_is_nonnegative(values in data(2)) {
        let m = Moments::from_slice(&values);
        prop_assert!(m.variance().unwrap() >= -1e-9);
    }

    #[test]
    fn quantiles_are_monotone_and_bounded(values in data(1)) {
        let sorted = sorted_values(&values);
        let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0];
        let mut prev = f64::NEG_INFINITY;
        for &q in &qs {
            let v = quantile_sorted(&sorted, q).unwrap();
            prop_assert!(v >= prev);
            prop_assert!(v >= sorted[0] && v <= sorted[sorted.len() - 1]);
            prev = v;
        }
    }

    #[test]
    fn boxplot_structure(values in data(4)) {
        let bp = BoxPlot::from_values(&values, 100).unwrap();
        prop_assert!(bp.q1 <= bp.median && bp.median <= bp.q3);
        prop_assert!(bp.whisker_low <= bp.whisker_high);
        // Whiskers are data points within [min, max]. (Note: an
        // interpolated quartile can exceed the whisker when the data is
        // dominated by repeats — e.g. [0,0,0,8e4] has q3 = 2e4 but
        // whisker_high = 0 — so whiskers are NOT ordered against q1/q3.)
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(bp.whisker_low >= min && bp.whisker_high <= max);
        // Outliers live strictly outside the whisker interval.
        for &o in &bp.outliers {
            prop_assert!(o < bp.whisker_low || o > bp.whisker_high);
        }
    }

    #[test]
    fn histogram_conserves_count(values in data(0), bins in 1usize..64) {
        let h = Histogram::from_values(&values, bins);
        let finite = values.iter().filter(|v| v.is_finite()).count() as u64;
        prop_assert_eq!(h.total() + h.underflow + h.overflow, finite);
    }

    #[test]
    fn histogram_merge_equals_single_pass(values in data(0), bins in 1usize..32, split in 0.0f64..1.0) {
        let cut = ((values.len() as f64) * split) as usize;
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut whole = Histogram::new(lo, hi, bins);
        whole.extend(values.iter().copied());
        let mut a = Histogram::new(lo, hi, bins);
        a.extend(values[..cut].iter().copied());
        let mut b = Histogram::new(lo, hi, bins);
        b.extend(values[cut..].iter().copied());
        a.merge(&b);
        prop_assert_eq!(a, whole);
    }

    #[test]
    fn pearson_in_range_and_symmetric(x in data(2), y in data(2)) {
        let n = x.len().min(y.len());
        if let Some(r) = pearson(&x[..n], &y[..n]) {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
            let r2 = pearson(&y[..n], &x[..n]).unwrap();
            prop_assert!((r - r2).abs() < 1e-12);
        }
    }

    #[test]
    fn pearson_partial_merge(x in data(2), y in data(2), split in 0.0f64..1.0) {
        let n = x.len().min(y.len());
        let cut = ((n as f64) * split) as usize;
        let mut whole = PearsonPartial::new();
        whole.push_slices(&x[..n], &y[..n]);
        let mut a = PearsonPartial::new();
        a.push_slices(&x[..cut], &y[..cut]);
        let mut b = PearsonPartial::new();
        b.push_slices(&x[cut..n], &y[cut..n]);
        a.merge(&b);
        match (whole.finish(), a.finish()) {
            (Some(rw), Some(rm)) => prop_assert!((rw - rm).abs() < 1e-6),
            (None, None) => {}
            other => prop_assert!(false, "merge changed definedness: {other:?}"),
        }
    }

    #[test]
    fn pearson_invariant_under_affine_maps(x in data(3), y in data(3), a in 0.1f64..10.0, b in -100.0f64..100.0) {
        let n = x.len().min(y.len());
        let xs = &x[..n];
        let ys = &y[..n];
        let mapped: Vec<f64> = xs.iter().map(|v| a * v + b).collect();
        if let (Some(r1), Some(r2)) = (pearson(xs, ys), pearson(&mapped, ys)) {
            prop_assert!((r1 - r2).abs() < 1e-6, "{r1} vs {r2}");
        } // either-None cases: affine map can change degeneracy at fp limits
    }

    #[test]
    fn kendall_fast_matches_naive(x in prop::collection::vec(-20i32..20, 2..60), y in prop::collection::vec(-20i32..20, 2..60)) {
        let n = x.len().min(y.len());
        let xs: Vec<f64> = x[..n].iter().map(|&v| v as f64).collect();
        let ys: Vec<f64> = y[..n].iter().map(|&v| v as f64).collect();
        // The Fenwick oracle and the quadratic one, both independent of
        // the production counter.
        let fenwick = oracle::kendall_tau_fenwick(&xs, &ys);
        for naive in [fenwick, oracle::kendall_tau_quadratic(&xs, &ys)] {
            match (CorrMethod::KendallTau.compute(&xs, &ys), naive) {
                (Some(f), Some(s)) => prop_assert!((f - s).abs() < 1e-9, "{f} vs {s}"),
                (None, None) => {}
                other => prop_assert!(false, "definedness mismatch: {other:?}"),
            }
        }
    }

    #[test]
    fn spearman_invariant_under_monotone_map(x in data(3), y in data(3)) {
        let n = x.len().min(y.len());
        let xs = &x[..n];
        let ys = &y[..n];
        // exp is strictly monotone: Spearman must not change.
        let mapped: Vec<f64> = xs.iter().map(|v| (v / 1.0e6).exp()).collect();
        let spearman = |x: &[f64]| CorrMethod::Spearman.compute(x, ys);
        if let (Some(r1), Some(r2)) = (spearman(xs), spearman(&mapped)) {
            prop_assert!((r1 - r2).abs() < 1e-9);
        } // exp can collapse distinct tiny values at fp precision
    }

    #[test]
    fn ranks_are_a_permutation_sum(values in data(1)) {
        let r = ranks(&values);
        let n = values.len() as f64;
        let sum: f64 = r.iter().sum();
        prop_assert!((sum - n * (n + 1.0) / 2.0).abs() < 1e-6);
    }

    #[test]
    fn freq_merge_equals_single_pass(labels in prop::collection::vec(prop::option::of(0u8..12), 0..200), split in 0.0f64..1.0) {
        let strs: Vec<Option<String>> = labels.iter().map(|l| l.map(|v| format!("c{v}"))).collect();
        let cut = ((strs.len() as f64) * split) as usize;
        let column = Column::from_opt_string(strs.clone());
        let whole = CatFreq::of(&column, Selection::All);
        // One window of the column and the rest as a column of its own:
        // one shared dictionary, one foreign.
        let mut a = CatFreq::of(&column.slice(0, cut), Selection::All);
        a.merge(&CatFreq::of(&Column::from_opt_string(strs[cut..].to_vec()), Selection::All));
        let want = oracle::Counts::of(strs.iter().map(Option::as_deref));
        for got in [&a, &whole] {
            let top: Vec<(String, u64)> = got.top(usize::MAX).into_iter().map(|(c, n)| (c.to_string(), n)).collect();
            prop_assert_eq!(top, want.ranked());
            prop_assert_eq!(got.nulls(), want.nulls);
        }
    }

    #[test]
    fn ks_distance_in_unit_interval(a in data(1), b in data(1)) {
        let d = ks_distance(&a, &b).unwrap();
        prop_assert!((0.0..=1.0 + 1e-12).contains(&d));
        // Identity of indiscernibles (one direction).
        let self_d = ks_distance(&a, &a).unwrap();
        prop_assert!(self_d.abs() < 1e-12);
    }

    #[test]
    fn ks_distance_sorted_is_ks_distance(a in tied(), b in tied()) {
        // The payloads the sorted form reads are ascending with equal
        // values in row order, so ±0 may come in either order.
        let ascending = |v: &[f64]| {
            let mut s: Vec<f64> = v.iter().copied().filter(|x| !x.is_nan()).collect();
            s.sort_by(|x, y| x.partial_cmp(y).unwrap());
            s
        };
        let want = ks_distance(&a, &b);
        prop_assert_eq!(ks_distance_sorted(&ascending(&a), &ascending(&b)), want);
        prop_assert_eq!(ks_distance_sorted(&sorted_values(&a), &sorted_values(&b)), want);
    }

    #[test]
    fn quantiles_nth_agrees_with_full_sort(values in data(0), qs in prop::collection::vec(0.0f64..=1.0, 1..8)) {
        prop_assert_eq!(quantiles_nth(&values, &qs), quantiles(&values, &qs));
    }
}

// ---------------------------------------------------------------------------
// Pearson and rank-once Spearman against the two-pass oracle
// ---------------------------------------------------------------------------

/// Around the lane width and the `CHECK_INTERVAL` chunk boundary.
const LENGTHS: [usize; 9] =
    [0, 1, 2, 7, 8, 9, CHECK_INTERVAL - 1, CHECK_INTERVAL + 1, 3 * CHECK_INTERVAL + 5];

/// One null-free column of each numeric `eda-datagen` family, plus a
/// four-valued one (ties everywhere), `LENGTHS`' longest.
fn families(seed: u64) -> Vec<Vec<f64>> {
    use eda_datagen::spec::quick::{ints, lognormal, normal, uniform};
    let spec = eda_datagen::DatasetSpec {
        name: "families".into(),
        rows: 3 * CHECK_INTERVAL + 5,
        columns: vec![
            normal("normal", 50.0, 10.0, 0.0),
            lognormal("lognormal", 2.0, 0.8, 0.0),
            uniform("uniform", 0.0, 1000.0, 0.0),
            ints("ints", 0, 5000, 0.0),
            ints("few", 0, 3, 0.0),
        ],
    };
    let df = eda_datagen::generate(&spec, seed);
    df.iter().map(|(_, c)| c.to_f64_nan().unwrap()).collect()
}

/// `values` with each row NaN with probability `density`.
fn holes(values: &[f64], seed: u64, density: f64) -> Vec<f64> {
    let mut s = seed;
    let mut draw = move || {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (s >> 11) as f64 / (1u64 << 53) as f64
    };
    values.iter().map(|&v| if draw() < density { f64::NAN } else { v }).collect()
}

/// The Pearson cell, the Spearman cell and `pearson` of `x, y`, each
/// against its oracle: the same `None`-ness, and within 1e-12.
fn check_against_oracle(x: &[f64], y: &[f64]) -> Result<(), String> {
    let (px, py) = (ColumnPrep::prepare(x), ColumnPrep::prepare(y));
    let cols = [Col { values: x, prep: &px }, Col { values: y, prep: &py }];
    let cell = |method| corr_cells(method, &cols, &[(0, 1)])[0];
    let pearson_oracle = oracle::pearson_two_pass(x, y);
    for (what, got, want) in [
        ("pearson", pearson(x, y), pearson_oracle),
        ("Pearson cell", cell(CorrMethod::Pearson), pearson_oracle),
        ("Spearman cell", cell(CorrMethod::Spearman), oracle::spearman_rank_once(x, y)),
    ] {
        match (got, want) {
            (Some(g), Some(w)) => prop_assert!((g - w).abs() <= 1e-12, "{what}: {g} vs {w}"),
            (g, w) => prop_assert_eq!(g, w, "{what}, {} rows: {g:?} vs {w:?}", x.len()),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pearson_and_spearman_match_the_two_pass_oracle(
        seed in 0u64..1 << 40,
        fx in 0usize..5,
        fy in 0usize..5,
        dx in prop::sample::select(vec![0.0, 0.01, 0.1, 0.5, 0.95, 1.0]),
        dy in prop::sample::select(vec![0.0, 0.01, 0.1, 0.5, 0.95, 1.0]),
    ) {
        let (a, b) = (families(seed), families(seed + 1));
        for len in LENGTHS {
            let x = holes(&a[fx][..len], seed, dx);
            let y = holes(&b[fy][..len], seed ^ 0x5851_f42d, dy);
            check_against_oracle(&x, &y)?;
        }
    }

    #[test]
    fn partition_split_push_slices_merge_to_one_pass(
        seed in 0u64..1 << 40,
        cuts in prop::collection::vec(0usize..3 * CHECK_INTERVAL + 5, 0..4),
        density in prop::sample::select(vec![0.0, 0.1, 0.9]),
    ) {
        let (a, b) = (families(seed), families(seed + 1));
        let x = holes(&a[0], seed, density);
        let y = holes(&b[2], seed ^ 0x5851_f42d, density);
        let mut bounds = cuts.clone();
        bounds.extend([0, x.len()]);
        bounds.sort_unstable();
        let mut whole = PearsonPartial::new();
        whole.push_slices(&x, &y);
        let mut merged = PearsonPartial::new();
        for w in bounds.windows(2) {
            let mut part = PearsonPartial::new();
            part.push_slices(&x[w[0]..w[1]], &y[w[0]..w[1]]);
            merged.merge(&part);
        }
        prop_assert_eq!(merged.n, whole.n);
        match (merged.finish(), whole.finish()) {
            (Some(m), Some(w)) => prop_assert!((m - w).abs() <= 1e-12, "{m} vs {w}"),
            (m, w) => prop_assert_eq!(m, w),
        }
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * (1.0 + a.abs().max(b.abs()));
        let pairs = [
            (merged.means().0, whole.means().0),
            (merged.means().1, whole.means().1),
            (merged.second_moments().0, whole.second_moments().0),
            (merged.second_moments().1, whole.second_moments().1),
        ];
        for (m, w) in pairs {
            prop_assert!(close(m, w), "{m} vs {w}");
        }
    }

    #[test]
    fn count_joint_matches_naive_zip(
        a in prop::collection::vec(any::<bool>(), 0..4000),
        b in prop::collection::vec(any::<bool>(), 0..4000),
    ) {
        let naive = a.iter().zip(&b).fold((0u64, 0u64, 0u64), |(na, nb, nab), (&x, &y)| {
            (na + u64::from(x), nb + u64::from(y), nab + u64::from(x && y))
        });
        prop_assert_eq!(count_joint(&a, &b), naive);
    }
}

#[test]
fn constant_on_the_complete_rows_is_none() {
    // `x` varies, but holds 0.1 on every row where `y` is present; the
    // first row, where `x` differs, is never a complete pair.
    for len in LENGTHS {
        let x: Vec<f64> = (0..len).map(|i| if i % 3 == 0 { 1e6 + i as f64 } else { 0.1 }).collect();
        let y: Vec<f64> = (0..len).map(|i| if i % 3 == 0 { f64::NAN } else { i as f64 }).collect();
        check_against_oracle(&x, &y).unwrap();
        assert_eq!(pearson(&x, &y), None, "{len} rows");
        assert_eq!(oracle::pearson_two_pass(&x, &y), None);
        assert_eq!(oracle::spearman_rank_once(&x, &y), None);
    }
}

#[test]
fn every_row_nan_on_one_side() {
    let a = families(3);
    for len in LENGTHS {
        let nan = vec![f64::NAN; len];
        for values in &a {
            check_against_oracle(&values[..len], &nan).unwrap();
            check_against_oracle(&nan, &values[..len]).unwrap();
            let mut p = PearsonPartial::new();
            p.push_slices(&values[..len], &nan);
            assert_eq!(p, PearsonPartial::new());
        }
    }
}

#[test]
fn a_nan_first_row_in_every_chunk() {
    // The first complete pair of every chunk is its third row.
    let (a, b) = (families(5), families(6));
    for (fx, fy) in [(0, 1), (2, 3), (1, 4), (4, 4)] {
        let (mut x, mut y) = (a[fx].clone(), b[fy].clone());
        for start in (0..x.len()).step_by(CHECK_INTERVAL) {
            x[start] = f64::NAN;
            y[start + 1] = f64::NAN;
        }
        for len in LENGTHS {
            check_against_oracle(&x[..len], &y[..len]).unwrap();
        }
    }
}

// ---------------------------------------------------------------------------
// `CorrMethod::compute` against the oracles on hostile pairs
// ---------------------------------------------------------------------------

/// [`families`] plus columns no generator draws: one distinct value,
/// one `inf` and one `-inf` among finite values, magnitudes near 1e300,
/// and signed zeros among a few small integers.
fn hostile(seed: u64) -> Vec<Vec<f64>> {
    let mut columns = families(seed);
    let len = columns[0].len();
    let signed = |i: usize| ((i * 7919 % 23) as f64 - 11.0) / 11.0;
    let infinite = |(i, &v): (usize, &f64)| match i {
        3 => f64::INFINITY,
        5 => f64::NEG_INFINITY,
        _ => v,
    };
    columns.push(vec![7.5; len]);
    columns.push(columns[0].iter().enumerate().map(infinite).collect());
    columns.push((0..len).map(|i| 1e300 * signed(i)).collect());
    columns.push(
        (0..len).map(|i| if i % 3 == 0 { -0.0 } else { (4.0 * signed(i)).round() }).collect(),
    );
    columns
}

/// Every method's `compute(x, y)` against its oracle over the slices'
/// common prefix: the same `None`-ness, and within 1e-12 where either is
/// finite (a Pearson whose squares overflow reads NaN on both sides).
fn check_compute(x: &[f64], y: &[f64]) -> Result<(), String> {
    let n = x.len().min(y.len());
    let (xs, ys) = (&x[..n], &y[..n]);
    // The double loop is too slow past a few hundred rows; the Fenwick
    // oracle counts the same pairs by other means.
    let kendall = if n <= 400 {
        oracle::kendall_tau_quadratic(xs, ys)
    } else {
        oracle::kendall_tau_fenwick(xs, ys)
    };
    for (method, want) in [
        (CorrMethod::Pearson, oracle::pearson_two_pass(xs, ys)),
        (CorrMethod::Spearman, oracle::spearman_rank_once(xs, ys)),
        (CorrMethod::KendallTau, kendall),
    ] {
        let what = format!("{method:?}, {} ~ {} rows", x.len(), y.len());
        match (method.compute(x, y), want) {
            (Some(g), Some(w)) if !g.is_finite() && !w.is_finite() => {}
            (Some(g), Some(w)) => prop_assert!((g - w).abs() <= 1e-12, "{what}: {g} vs {w}"),
            (g, w) => prop_assert_eq!(g, w, "{what}"),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn compute_matches_the_oracles_on_hostile_pairs(
        seed in 0u64..1 << 40,
        fx in 0usize..9,
        fy in 0usize..9,
        dx in prop::sample::select(vec![0.0, 0.01, 0.1, 0.5, 0.95, 1.0]),
        dy in prop::sample::select(vec![0.0, 0.01, 0.1, 0.5, 0.95, 1.0]),
    ) {
        let (a, b) = (hostile(seed), hostile(seed + 1));
        for len in LENGTHS {
            // NaN at independent rows: rank-once Spearman is not the
            // per-pair form here.
            let x = holes(&a[fx][..len], seed, dx);
            let y = holes(&b[fy][..len], seed ^ 0x5851_f42d, dy);
            check_compute(&x, &y)?;
            check_compute(&x, &y[..len / 2])?;
            check_compute(&x[..len.saturating_sub(3)], &y)?;
        }
    }
}

// ---------------------------------------------------------------------------
// Word tables across partitions against the per-row token oracle
// ---------------------------------------------------------------------------

/// Values that tokenise every way: ASCII and not, mixed case, blank and
/// empty, punctuation, case-expanding characters, and words that repeat
/// within and across values.
const PHRASES: [&str; 12] = [
    "",
    "  ",
    "\t \u{a0}",
    "Red apple",
    "red APPLE pie",
    "apple-pie, APPLE!",
    "İstanbul straße",
    "STRASSE Straße ß",
    "Crème brûlée crème",
    "日本語 テキスト 日本語",
    "a b a",
    "Year2024, year2024!",
];

/// The text statistics of one partition: a string column of its own, so
/// every partition interns its own values and its own words.
fn text_of(values: &[Option<String>]) -> TextStats {
    let column = Column::from_opt_string(values.to_vec());
    let (codes, dict) = column.str_codes().unwrap();
    let valid: Vec<u32> = codes.iter().zip(values).filter(|(_, v)| v.is_some()).map(|(&c, _)| c).collect();
    TextStats::from_codes(&valid, dict.len(), |code| dict.get(code).unwrap())
}

proptest! {
    #[test]
    fn word_tables_merge_across_partitions_in_any_tree_order(
        picks in prop::collection::vec(prop::option::of(0usize..18), 0..60),
        cuts in prop::collection::vec(0usize..61, 0..4),
        merges in prop::collection::vec((0usize..4, 0usize..4, any::<bool>()), 3),
    ) {
        // Past the phrase list, values of their own whose words repeat.
        let values: Vec<Option<String>> = picks
            .iter()
            .map(|p| p.map(|i| PHRASES.get(i).map_or_else(|| format!("Only{i} WORD w{}", i % 3), |s| s.to_string())))
            .collect();
        // One to four partitions, some of them possibly empty.
        let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (values.len() + 1)).collect();
        bounds.extend([0, values.len()]);
        bounds.sort_unstable();
        let mut parts: Vec<TextStats> = bounds.windows(2).map(|w| text_of(&values[w[0]..w[1]])).collect();
        // Merge two partials at a time, chosen at random, either way round.
        for &(i, j, flip) in merges.iter().take(parts.len() - 1) {
            let i = i % parts.len();
            let j = (i + 1 + j % (parts.len() - 1)) % parts.len();
            let other = parts.remove(j);
            let i = if j < i { i - 1 } else { i };
            if flip {
                let mut merged = other;
                merged.merge(&parts[i]);
                parts[i] = merged;
            } else {
                parts[i].merge(&other);
            }
        }
        prop_assert_eq!(parts.len(), 1);
        let merged = &parts[0];

        let want = oracle::word_counts(values.iter().map(Option::as_deref));
        prop_assert_eq!(merged.top_words(usize::MAX), want.ranked());
        prop_assert_eq!(merged.total_words(), want.total());
        prop_assert_eq!(merged.distinct_words(), want.distinct());
        for k in 0..=want.distinct() + 1 {
            prop_assert_eq!(merged.top_words(k), want.top_k(k), "k = {}", k);
        }
        prop_assert_eq!(merged.count, values.iter().flatten().count() as u64);
    }
}

// ---------------------------------------------------------------------------
// Moments against the two-pass oracle
// ---------------------------------------------------------------------------

/// Both `None`, or both `Some` and within `tol` (see [`check_moments`]).
fn close_opt(got: Option<f64>, want: Option<f64>, tol: f64) -> bool {
    match (got, want) {
        (Some(g), Some(w)) if !w.is_finite() => !g.is_finite(),
        (Some(g), Some(w)) => (g - w).abs() <= tol,
        (g, w) => g.is_none() && w.is_none(),
    }
}

/// `got` against [`oracle::two_pass_moments`] of `values`, the non-null
/// values it was accumulated over. The count, the four counters, min and
/// max must be equal. A streaming update takes each value's deviation
/// from a running mean that is rounded to an ulp of `|mean|`, so the
/// deviations carry a relative error of about `ε·κ`, with `ε` the
/// machine epsilon and `κ = |mean| / σ`. The tolerances, each about 30×
/// or more above the largest error seen on these inputs:
/// - mean: 1e-13 of the largest finite magnitude;
/// - variance: `1e-12 + 2ε·κ` of itself (seen: 5e-15 at `κ ≤ 20`,
///   1.4e-9 at the 1e9 offset's `κ = 4e8`);
/// - skewness: `1e-12 + 2ε·κ`, absolute (seen: 3e-14, and 4.4e-9);
/// - kurtosis: `1e-11 + 2ε·κ`, absolute (seen: 1.6e-13, and 7.9e-9).
///
/// Where an oracle moment overflowed (squares of 1e300 pass `f64::MAX`),
/// the kernel's must not be a finite number either.
fn check_moments(what: &str, got: &Moments, values: &[f64]) {
    let want = oracle::two_pass_moments(values);
    assert_eq!(
        (got.count, got.zeros, got.negatives, got.infinites, got.nans),
        (want.count, want.zeros, want.negatives, want.infinites, want.nans),
        "{what}: count, zeros, negatives, infinites, nans"
    );
    assert_eq!((got.min, got.max), (want.min, want.max), "{what}: min, max");
    if want.count == 0 {
        return;
    }
    let scale = values.iter().filter(|v| v.is_finite()).fold(0.0f64, |m, v| m.max(v.abs()));
    let (mean, want_mean) = (got.mean, want.mean);
    assert!((mean - want_mean).abs() <= 1e-13 * scale, "{what}: mean {mean} vs {want_mean}");
    let variance = want.variance.unwrap_or(0.0);
    let drift = 2.0 * f64::EPSILON * want.mean.abs() / variance.sqrt();
    let drift = if drift.is_finite() { drift } else { 0.0 };
    let checks = [
        ("variance", got.variance(), want.variance, (1e-12 + drift) * variance),
        ("skewness", got.skewness(), want.skewness, 1e-12 + drift),
        ("kurtosis", got.kurtosis(), want.kurtosis, 1e-11 + drift),
    ];
    for (moment, g, w, tol) in checks {
        assert!(close_opt(g, w, tol), "{what}: {moment} {g:?} vs {w:?}");
    }
}

/// Hostile columns by name, `len` rows each where a length applies.
fn moment_cases(seed: u64, len: usize) -> Vec<(String, Vec<f64>)> {
    let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0];
    let mut cases: Vec<(String, Vec<f64>)> = families(seed)
        .into_iter()
        .zip(["normal", "lognormal", "uniform", "ints", "few"])
        .map(|(values, name)| (name.to_string(), values[..len].to_vec()))
        .collect();
    let signed = |i: usize| ((i * 7919 % 23) as f64 - 11.0) / 11.0;
    cases.push(("1e300 magnitudes".into(), (0..len).map(|i| 1e300 * signed(i)).collect()));
    cases.push(("offset 1e9".into(), cases[0].1.iter().map(|v| 1e9 + v).collect()));
    cases.push(("constant".into(), vec![3.7; len]));
    cases.push(("constant 1e300".into(), vec![-1e300; len]));
    let mixed = cases[0].1.iter().enumerate();
    let mixed = mixed.map(|(i, &v)| if i % 5 == 2 { specials[i / 5 % specials.len()] } else { v });
    cases.push(("NaN/inf mix".into(), mixed.collect()));
    cases.push(("NaN/inf only".into(), (0..len).map(|i| specials[i % 3]).collect()));
    cases
}

#[test]
fn moments_match_the_two_pass_oracle() {
    for len in LENGTHS {
        for (name, values) in moment_cases(len as u64, len) {
            let got = Moments::of(&Column::from_f64(values.clone())).unwrap();
            check_moments(&format!("{name}, {len} rows"), &got, &values);
        }
    }
    for one in [42.0, -0.0, f64::MAX, -1e300, f64::MIN_POSITIVE, f64::NAN, f64::INFINITY] {
        let got = Moments::of(&Column::from_f64(vec![one])).unwrap();
        check_moments(&format!("the single value {one}"), &got, &[one]);
    }
}

#[test]
fn merged_moments_match_the_two_pass_oracle() {
    // Windows of one column cut at lengths that are not multiples of 8,
    // some empty, a tenth of the rows null, merged left to right.
    let len = 3 * CHECK_INTERVAL + 5;
    for (name, values) in moment_cases(7, len) {
        let nulls = |i: usize| i % 10 == 3;
        let column = Column::from_opt_f64(
            values.iter().enumerate().map(|(i, &v)| (!nulls(i)).then_some(v)).collect(),
        );
        let kept: Vec<f64> =
            values.iter().enumerate().filter(|(i, _)| !nulls(*i)).map(|(_, &v)| v).collect();
        for cuts in [vec![0, len], vec![0, 1, 9, 9, 1031, len], vec![0, 7, len - 13, len]] {
            let mut merged = Moments::new();
            for w in cuts.windows(2) {
                merged.merge(&Moments::of(&column.slice(w[0], w[1] - w[0])).unwrap());
            }
            check_moments(&format!("{name}, cut at {cuts:?}"), &merged, &kept);
        }
    }
}
