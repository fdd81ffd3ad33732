//! Property-based tests on the statistical kernels: merge-equivalence of
//! every mergeable sketch, agreement of fast vs naive algorithms, and
//! range/invariance properties of the coefficients.

// Test code asserts freely; the package-level unwrap/expect deny
// targets shipped code.
#![allow(clippy::unwrap_used, clippy::expect_used)]

mod oracle;

use eda_stats::corr::{kendall_tau, pearson, spearman, spearman_from_ranks, PearsonPartial};
use eda_stats::corr::{CorrMatrix, CorrMethod};
use eda_stats::freq::FreqTable;
use eda_stats::histogram::Histogram;
use eda_stats::hypothesis::ks_distance;
use eda_stats::moments::Moments;
use eda_stats::quantile::{quantile_sorted, quantiles, quantiles_nth, sorted_values, BoxPlot};
use eda_stats::rank::ranks;
use proptest::prelude::*;

fn finite_f64() -> impl Strategy<Value = f64> {
    // Bounded magnitude keeps the merge-equality tolerances honest.
    -1.0e6..1.0e6f64
}

fn data(min_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(finite_f64(), min_len..200)
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
        for i in 0..n { whole.push(x[i], y[i]); }
        let mut a = PearsonPartial::new();
        for i in 0..cut { a.push(x[i], y[i]); }
        let mut b = PearsonPartial::new();
        for i in cut..n { b.push(x[i], y[i]); }
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
            match (kendall_tau(&xs, &ys), naive) {
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
        if let (Some(r1), Some(r2)) = (spearman(xs, ys), spearman(&mapped, ys)) {
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
        let mut whole = FreqTable::new();
        for s in &strs { whole.push(s.as_deref()); }
        let mut a = FreqTable::new();
        for s in &strs[..cut] { a.push(s.as_deref()); }
        let mut b = FreqTable::new();
        for s in &strs[cut..] { b.push(s.as_deref()); }
        a.merge(&b);
        prop_assert_eq!(a, whole);
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
    fn quantiles_nth_agrees_with_full_sort(values in data(0), qs in prop::collection::vec(0.0f64..=1.0, 1..8)) {
        prop_assert_eq!(quantiles_nth(&values, &qs), quantiles(&values, &qs));
    }

    #[test]
    fn spearman_matrix_rank_once_equals_per_pair(
        cols in prop::collection::vec(data(3), 2..5),
    ) {
        // Equal-length NaN-free columns: the matrix's rank-once fast path
        // must agree with re-ranking every pair from scratch.
        let n = cols.iter().map(Vec::len).min().unwrap();
        let named: Vec<(String, Vec<f64>)> = cols
            .iter()
            .enumerate()
            .map(|(i, c)| (format!("c{i}"), c[..n].to_vec()))
            .collect();
        let m = CorrMatrix::compute(&named, CorrMethod::Spearman);
        for i in 0..named.len() {
            for j in (i + 1)..named.len() {
                let per_pair = spearman(&named[i].1, &named[j].1);
                let fast = m.get(i, j);
                match (fast, per_pair) {
                    (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-9, "{a} vs {b}"),
                    (a, b) => prop_assert_eq!(a, b),
                }
            }
        }
    }

    #[test]
    fn spearman_matrix_with_nulls_is_rank_once(
        cols in prop::collection::vec(prop::collection::vec(prop::option::of(finite_f64()), 4..60), 2..4),
    ) {
        // pandas semantics: every column is ranked once over its own
        // non-null rows, and a pair correlates those ranks over the rows
        // both have — not the ranks of the pair's own complete subset.
        let n = cols.iter().map(Vec::len).min().unwrap();
        let named: Vec<(String, Vec<f64>)> = cols
            .iter()
            .enumerate()
            .map(|(i, c)| {
                (format!("c{i}"), c[..n].iter().map(|v| v.unwrap_or(f64::NAN)).collect())
            })
            .collect();
        let m = CorrMatrix::compute(&named, CorrMethod::Spearman);
        for i in 0..named.len() {
            for j in (i + 1)..named.len() {
                let rank_once = spearman_from_ranks(&ranks(&named[i].1), &ranks(&named[j].1));
                match (m.get(i, j), rank_once) {
                    (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-12, "{a} vs {b}"),
                    (a, b) => prop_assert_eq!(a, b),
                }
            }
        }
    }
}
