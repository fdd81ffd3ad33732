//! Kernel microbenchmark: each hot kernel against the implementation it
//! replaced, timed back to back on the same inputs.
//!
//! The `corr_cells` stage times the 300 column pairs of the
//! credit shape (10k x 25, what `report_numeric` profiles) for each
//! method twice: one pair-kernel call per cell (`CorrMethod::compute`),
//! and `corr_cells` over columns prepared once (`ColumnPrep`, its cost
//! reported separately — the three methods share it); the Kendall row is
//! timed a second time with every third column 10% null, where cells skip
//! rows instead of falling back to the pair kernel. The Pearson row is
//! timed a second time on the 30 pairs of the conflicts shape (17k rows,
//! what `report_mixed` profiles) that touch one of its four 10%-null
//! columns: `corr_cells`, whose cells there are one masked lane pass over
//! the raw slices (DESIGN.md §15), against the per-pair kernel it
//! replaced — a copy of the complete pairs, then a Welford update with two
//! divisions per pair, kept here as the opponent. The `kde` stage times
//! the 25 curves a numeric report draws (5000-value stride sample of each
//! sorted column, 200 grid points): the direct sum over every (sample,
//! grid point) pair — `kde_grid` before the windowed recurrence, kept
//! here as the opponent — against `kde_grid`. The `column sort` stage
//! times the same 25 credit columns sorted the way a report sorts them:
//! `ColumnPrep::prepare`'s radix argsort plus the ascending values read
//! along it, against the two sorts it replaced — a comparison argsort of
//! `(order key, row)` pairs for the prep and a separate `partial_cmp` sort
//! of the values, kept here as the opponent. Nullity has one path, word
//! AND + popcount over validity bitmaps; its throughput is reported, not
//! compared. The `strings` stage times the 15 categorical + text columns
//! of the conflicts shape (17k rows, what `report_mixed` profiles) in the
//! two partitions the graph reads them in, partials merged: frequencies
//! as a histogram over dictionary codes, and text statistics with each
//! distinct value tokenised once (`TextStats::from_codes`) against the
//! per-row `TextStats::push` loop the baseline profiler still runs.
//! The `render` stage times what a call does once its kernels are cached:
//! `render_report_html` over the credit-shape report (the 1.6 MB page of
//! `report_numeric`: one sink, digits pushed without `core::fmt`), and a
//! re-issued `plot_missing(df, x)` on the adult shape (24.5k rows, what
//! `interactive_session` loads), every node served by the result cache —
//! planning, key hashing and a finish that reads `freq_summary` payloads.
//! Both are absolute times of this host: their gate is wide, and catches
//! a formatter or an O(distinct) selection coming back.
//! Every kernel runs on one thread; the host's core count is recorded as
//! `host_cores` for context only.
//!
//! Usage:
//! `cargo run -p eda-bench --release --bin eda-kernels -- --smoke --json /tmp/BENCH_kernels.json`
//!
//! * `--smoke` — CI-friendly dataset (200k rows).
//! * `--rows <n>` — explicit row count (default 1,000,000; `--smoke` wins).
//! * `--json <path>` — write `BENCH_kernels.json` here.

use std::time::Duration;

use eda_bench::{arg_f64, arg_flag, arg_str, machine_context, measure, print_table};
use eda_core::compute::cat;
use eda_core::compute::univariate::stride_sample;
use eda_core::{create_report, plot_missing, Config};
use eda_dataframe::{Bitmap, Column, Selection};
use eda_datagen::{generate, kaggle_spec_by_name};
use eda_render::{render_analysis_html, render_report_html};
use eda_stats::corr::{corr_cells, upper_triangle, Col, ColumnPrep, CorrMethod};
use eda_stats::freq::CatFreq;
use eda_stats::kde::{kde_grid, silverman_bandwidth};
use eda_stats::quantile::sorted_values;
use eda_stats::text::TextStats;
use eda_stats::vector::centered_dot;

/// The KDE curve as a direct sum: every grid point over every sample, one
/// `exp` each.
fn kde_direct(sorted: &[f64], grid: usize) -> (Vec<f64>, Vec<f64>) {
    let (Some(h), Some(min), Some(max)) =
        (silverman_bandwidth(sorted), sorted.first(), sorted.last())
    else {
        return (Vec::new(), Vec::new());
    };
    let (lo, hi) = (min - 3.0 * h, max + 3.0 * h);
    let step = (hi - lo) / (grid - 1) as f64;
    let xs: Vec<f64> = (0..grid).map(|i| lo + step * i as f64).collect();
    let norm = 1.0 / (sorted.len() as f64 * h * (2.0 * std::f64::consts::PI).sqrt());
    let density = |x: f64| {
        let sum: f64 = sorted.iter().map(|&v| (-0.5 * ((x - v) / h).powi(2)).exp()).sum();
        sum * norm
    };
    let ys = xs.iter().map(|&x| density(x)).collect();
    (xs, ys)
}

/// What [`ColumnPrep::prepare`] computes, the way it computed it before
/// its argsort became a radix sort: `(order key, row)` pairs through a
/// comparison sort, then one walk over the tie groups.
#[allow(dead_code)] // built to be timed; only `perm` is read back
struct ComparatorPrep {
    perm: Vec<u32>,
    dense: Vec<u32>,
    centered_ranks: Vec<f64>,
    group_starts: Vec<u32>,
    tie_pairs: u64,
    spread: Option<[f64; 3]>,
}

fn comparator_prep(values: &[f64]) -> ComparatorPrep {
    let order_key = |v: f64| {
        let bits = (v + 0.0).to_bits() as i64;
        bits ^ (((bits >> 63) as u64) >> 1) as i64
    };
    let mut keyed: Vec<(i64, u32)> =
        (0u32..).zip(values).filter(|(_, v)| !v.is_nan()).map(|(row, &v)| (order_key(v), row)).collect();
    keyed.sort_unstable();
    let (n, kept) = (values.len(), keyed.len());
    let mut perm = Vec::with_capacity(kept);
    let mut dense = vec![u32::MAX; n];
    let mut centered_ranks = vec![f64::NAN; n];
    let mut group_starts = Vec::new();
    let mut tie_pairs = 0u64;
    let half = (kept as f64 + 1.0) / 2.0;
    for group in keyed.chunk_by(|a, b| a.0 == b.0) {
        let (start, id) = (perm.len(), group_starts.len() as u32);
        group_starts.push(start as u32);
        let rank = start as f64 + (group.len() as f64 + 1.0) / 2.0 - half;
        for &(_, row) in group {
            perm.push(row);
            dense[row as usize] = id;
            centered_ranks[row as usize] = rank;
        }
        let t = group.len() as u64;
        tie_pairs += t * (t - 1) / 2;
    }
    group_starts.push(kept as u32);
    let spread = (kept == n && n > 0).then(|| {
        let first = values.iter().sum::<f64>() / n as f64;
        let mean = first + values.iter().map(|v| v - first).sum::<f64>() / n as f64;
        let m2 = centered_dot(values, mean, values, mean);
        [mean, m2, centered_dot(&centered_ranks, 0.0, &centered_ranks, 0.0)]
    });
    ComparatorPrep { perm, dense, centered_ranks, group_starts, tie_pairs, spread }
}

/// A numeric column's sorts as a report ran them before `sorted_values`
/// read the `corr_prep` argsort: the comparator argsort of
/// [`comparator_prep`], and a `partial_cmp` sort of the non-NaN values.
fn sort_twice(values: &[f64]) -> (ComparatorPrep, Vec<f64>) {
    let mut sorted: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
    sorted.sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    (comparator_prep(values), sorted)
}

/// The same column sorted once: [`ColumnPrep::prepare`]'s radix argsort,
/// and the ascending values read along it.
fn sort_once(values: &[f64]) -> (ColumnPrep, Vec<f64>) {
    let prep = ColumnPrep::prepare(values);
    let sorted = prep.ascending(values).expect("u32 rows").map(|(_, v)| v).collect();
    (prep, sorted)
}

/// Pearson over the pairwise-complete rows as the per-pair kernel had it
/// before the lane pass: copy the complete pairs out, then a Welford
/// update with two dependent divisions per pair.
fn pearson_welford_copy(x: &[f64], y: &[f64]) -> Option<f64> {
    let complete = x.iter().zip(y).filter(|(a, b)| !a.is_nan() && !b.is_nan());
    let (xs, ys): (Vec<f64>, Vec<f64>) = complete.map(|(a, b)| (*a, *b)).unzip();
    let (mut n, mut mean_x, mut mean_y, mut m2x, mut m2y, mut cxy) = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    for (&a, &b) in xs.iter().zip(&ys) {
        n += 1.0;
        let (dx, dy) = (a - mean_x, b - mean_y);
        mean_x += dx / n;
        mean_y += dy / n;
        m2x += dx * (a - mean_x);
        m2y += dy * (b - mean_y);
        cxy += dx * (b - mean_y);
    }
    (n >= 2.0 && m2x > 0.0 && m2y > 0.0).then(|| cxy / (m2x * m2y).sqrt())
}

/// Paired A/B measurement: `iters` rounds, each timing the reference and
/// then the kernel back to back (first round of each is an unmeasured
/// warmup), with a `std::hint::black_box` fence around every result.
///
/// Returns the best time of each side plus the **median of the
/// per-round speedup ratios**. On a shared/virtualized runner the
/// machine's effective speed drifts between measurement windows; a ratio
/// of two adjacent timings cancels that drift, and the median discards
/// rounds where a reschedule landed inside one half of the pair — so the
/// gated speedup metric is far more stable than a ratio of two
/// independently-taken minima.
fn ab_of<S, V>(iters: usize, mut s: impl FnMut() -> S, mut v: impl FnMut() -> V) -> AbResult {
    std::hint::black_box(s());
    std::hint::black_box(v());
    let mut best_s = Duration::MAX;
    let mut best_v = Duration::MAX;
    let mut ratios = Vec::with_capacity(iters);
    for _ in 0..iters {
        let (out_s, took_s) = measure(&mut s);
        std::hint::black_box(out_s);
        let (out_v, took_v) = measure(&mut v);
        std::hint::black_box(out_v);
        best_s = best_s.min(took_s);
        best_v = best_v.min(took_v);
        ratios.push(took_s.as_secs_f64() / took_v.as_secs_f64());
    }
    ratios.sort_by(f64::total_cmp);
    AbResult { reference: best_s, kernel: best_v, speedup: ratios[ratios.len() / 2] }
}

#[derive(Clone, Copy)]
struct AbResult {
    reference: Duration,
    kernel: Duration,
    speedup: f64,
}

/// Merge one kernel's measurements from two suite passes: keep the best
/// time of each side and the higher paired-median speedup. External
/// disturbance (CPU steal, a noisy neighbor on a shared runner) only
/// ever *slows* a measurement, so the least-disturbed pass is the best
/// estimate of the machine's true ratio; because the passes are spaced
/// a full suite apart, one sustained slow window cannot poison every
/// pass of a kernel.
fn merge(a: AbResult, b: &AbResult) -> AbResult {
    AbResult {
        reference: a.reference.min(b.reference),
        kernel: a.kernel.min(b.kernel),
        speedup: a.speedup.max(b.speedup),
    }
}

fn meps(rows: usize, d: Duration) -> f64 {
    rows as f64 / d.as_secs_f64() / 1e6
}

fn main() {
    let rows = if arg_flag("--smoke") { 200_000 } else { arg_f64("--rows", 1_000_000.0) as usize };
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    const ITERS: usize = 9;
    // A round of the Kendall pair kernels is a quarter second.
    const ITERS_CELLS: usize = 3;
    const PASSES: usize = 3;

    println!("kernel bench: {rows} rows, best of {PASSES} passes x {ITERS} paired rounds");
    println!("{}", machine_context());
    println!();

    let valid_a = Bitmap::from_iter((0..rows).map(|i| i % 7 != 0));
    let valid_b = Bitmap::from_iter((0..rows).map(|i| i % 11 != 0));

    // The credit shape's numeric columns (no nulls), as `report_numeric`
    // profiles them, and every pair of them.
    let credit = {
        let mut spec = kaggle_spec_by_name("credit").expect("table 2 spec");
        spec.rows = 10_000;
        generate(&spec, 42)
    };
    let columns: Vec<Vec<f64>> = credit
        .iter()
        .filter(|(_, c)| c.dtype().is_numeric())
        .map(|(_, c)| c.to_f64_nan().expect("numeric"))
        .collect();
    let pairs = upper_triangle(columns.len());
    let prepare = || columns.iter().map(|v| ColumnPrep::prepare(v)).collect::<Vec<_>>();
    let preps = prepare();
    let cols: Vec<Col<'_>> =
        columns.iter().zip(&preps).map(|(values, prep)| Col { values, prep }).collect();
    let cells_of = |method: CorrMethod| {
        ab_of(
            ITERS_CELLS,
            || pairs.iter().map(|&(i, j)| method.compute(&columns[i], &columns[j])).collect::<Vec<_>>(),
            || corr_cells(method, &cols, &pairs),
        )
    };
    // The same columns with every third one 10% null, each on its own
    // rows (the conflicts shape's pattern): 204 of the 300 pairs skip rows.
    let holed: Vec<Vec<f64>> = columns
        .iter()
        .enumerate()
        .map(|(c, values)| {
            let null = |row: usize| c % 3 == 0 && (row * 7 + c).is_multiple_of(10);
            let holes = values.iter().enumerate();
            holes.map(|(row, &v)| if null(row) { f64::NAN } else { v }).collect()
        })
        .collect();
    let holed_preps: Vec<ColumnPrep> = holed.iter().map(|v| ColumnPrep::prepare(v)).collect();
    let holed_cols: Vec<Col<'_>> =
        holed.iter().zip(&holed_preps).map(|(values, prep)| Col { values, prep }).collect();
    // What a numeric report's 25 `kde` tasks are given.
    const KDE_GRID: usize = 200;
    let samples: Vec<Vec<f64>> =
        columns.iter().map(|values| stride_sample(&sorted_values(values), 5000)).collect();
    // Both column-sort paths give the same ascending values, and the
    // comparator argsort reads them in the radix argsort's order.
    for values in &columns {
        let ((old, twice), (_, once)) = (sort_twice(values), sort_once(values));
        assert_eq!(once, twice);
        assert!(old.perm.iter().map(|&row| values[row as usize]).eq(once.iter().copied()));
    }

    // The conflicts shape's string columns, each as the two partitions
    // `report_mixed` reads it in.
    let conflicts = {
        let mut spec = kaggle_spec_by_name("conflicts").expect("table 2 spec");
        spec.rows = 17_000;
        generate(&spec, 42)
    };
    // Its numeric columns, four of them 10% null, and the 30 pairs that
    // touch one of those: the Pearson cells that do not take the
    // centered dot product.
    let mixed: Vec<Vec<f64>> = conflicts
        .iter()
        .filter(|(_, c)| c.dtype().is_numeric())
        .map(|(_, c)| c.to_f64_nan().expect("numeric"))
        .collect();
    let mixed_preps: Vec<ColumnPrep> = mixed.iter().map(|v| ColumnPrep::prepare(v)).collect();
    let mixed_cols: Vec<Col<'_>> =
        mixed.iter().zip(&mixed_preps).map(|(values, prep)| Col { values, prep }).collect();
    let nan_pairs: Vec<(usize, usize)> = upper_triangle(mixed.len())
        .into_iter()
        .filter(|&(i, j)| !(mixed_preps[i].is_complete() && mixed_preps[j].is_complete()))
        .collect();
    let half = conflicts.nrows() / 2;
    let strings: Vec<[Column; 2]> = conflicts
        .iter()
        .filter(|(_, c)| c.str_codes().is_some())
        .map(|(_, c)| [c.slice(0, half), c.slice(half, c.len() - half)])
        .collect();
    let string_rows = strings.len() * conflicts.nrows();
    let text_by_row = |part: &Column| {
        let mut t = TextStats::new();
        part.str_iter().expect("string column").for_each(|v| t.push(v));
        t
    };
    let merged_text = |of: &dyn Fn(&Column) -> TextStats| {
        let merge = |[a, b]: &[Column; 2]| {
            let mut t = of(a);
            t.merge(&of(b));
            t
        };
        strings.iter().map(merge).collect::<Vec<_>>()
    };

    // One full measurement pass over the kernels; the suite runs
    // `PASSES` times and each kernel keeps its best pass (see [`merge`]).
    let suite = || {
        let pc = cells_of(CorrMethod::Pearson);
        let sc = cells_of(CorrMethod::Spearman);
        let kc = cells_of(CorrMethod::KendallTau);
        let kn = ab_of(
            ITERS_CELLS,
            || {
                let tau = |&(i, j): &(usize, usize)| {
                    CorrMethod::KendallTau.compute(&holed[i], &holed[j])
                };
                pairs.iter().map(tau).collect::<Vec<_>>()
            },
            || corr_cells(CorrMethod::KendallTau, &holed_cols, &pairs),
        );
        let pn = ab_of(
            ITERS,
            || {
                let r = |&(i, j): &(usize, usize)| pearson_welford_copy(&mixed[i], &mixed[j]);
                nan_pairs.iter().map(r).collect::<Vec<_>>()
            },
            || corr_cells(CorrMethod::Pearson, &mixed_cols, &nan_pairs),
        );
        let kd = ab_of(
            ITERS_CELLS,
            || samples.iter().map(|sample| kde_direct(sample, KDE_GRID)).collect::<Vec<_>>(),
            || samples.iter().map(|sample| kde_grid(sample, KDE_GRID)).collect::<Vec<_>>(),
        );
        let cs = ab_of(
            ITERS,
            || columns.iter().map(|values| sort_twice(values)).collect::<Vec<_>>(),
            || columns.iter().map(|values| sort_once(values)).collect::<Vec<_>>(),
        );
        let ts = ab_of(ITERS, || merged_text(&text_by_row), || merged_text(&cat::text_stats));
        [pc, sc, kc, kn, pn, kd, cs, ts]
    };

    let mut res = suite();
    for _ in 1..PASSES {
        for (r, n) in res.iter_mut().zip(&suite()) {
            *r = merge(*r, n);
        }
    }
    let [pc, sc, kc, kn, pn, kd, cs, ts] = res;
    let best_of = |f: &dyn Fn()| (0..ITERS * PASSES).map(|_| measure(f).1).min().expect("iterations");
    let nullity = best_of(&|| {
        std::hint::black_box(valid_a.count_unset_in_both(&valid_b));
    });
    let prep = best_of(&|| {
        std::hint::black_box(prepare());
    });
    let freq_codes = best_of(&|| {
        for [a, b] in &strings {
            let mut f = CatFreq::of(a, Selection::All);
            f.merge(&CatFreq::of(b, Selection::All));
            std::hint::black_box(f);
        }
    });

    // The render stage: the pages of an already-computed report and of a
    // fully cached call.
    let config = Config::default();
    let report = create_report(&credit, &config).expect("credit report");
    let page_bytes = render_report_html(&report, &config.display).len();
    let render_report = best_of(&|| {
        std::hint::black_box(render_report_html(&report, &config.display));
    });
    let adult = {
        let mut spec = kaggle_spec_by_name("adult").expect("table 2 spec");
        spec.rows = 24_500;
        generate(&spec, 42)
    };
    let x = adult.names().first().expect("adult has columns").clone();
    let missing_x = || plot_missing(&adult, &[x.as_str()], &config).expect("plot_missing(df, x)");
    std::hint::black_box(render_analysis_html(&missing_x(), &config.display));
    assert_eq!(missing_x().stats.map(|s| s.tasks_run), Some(0), "the re-issued call is fully cached");
    let missing_x_cached = best_of(&|| {
        std::hint::black_box(missing_x());
    });

    println!("nullity (word AND + popcount): {:.1} Me/s", meps(rows, nullity));

    let pps = |d: Duration| pairs.len() as f64 / d.as_secs_f64();
    let nan_pps = |d: Duration| nan_pairs.len() as f64 / d.as_secs_f64();
    let cell_row = |name: &str, r: &AbResult, pps: &dyn Fn(Duration) -> f64| {
        vec![
            name.into(),
            format!("{:10.0}", pps(r.reference)),
            format!("{:10.0}", pps(r.kernel)),
            format!("{:6.2}x", r.speedup),
        ]
    };
    println!(
        "\ncorr_cells: {} pairs of {} x {} credit columns, prep {:.1} ms; {} null-touching pairs of {} x {} conflicts columns",
        pairs.len(),
        credit.nrows(),
        columns.len(),
        prep.as_secs_f64() * 1e3,
        nan_pairs.len(),
        conflicts.nrows(),
        mixed.len(),
    );
    print_table(
        &["method", "per-pair pairs/s", "shared-prep pairs/s", "speedup"],
        &[
            cell_row("pearson", &pc, &pps),
            cell_row("spearman", &sc, &pps),
            cell_row("kendall", &kc, &pps),
            cell_row("kendall, null columns", &kn, &pps),
            cell_row("pearson, null pairs (vs Welford + copy)", &pn, &nan_pps),
        ],
    );

    let cps = |d: Duration| samples.len() as f64 / d.as_secs_f64();
    println!(
        "\nkde: {} curves x {KDE_GRID} points: direct sum {:.0} curves/s, kde_grid {:.0}, {:.2}x",
        samples.len(),
        cps(kd.reference),
        cps(kd.kernel),
        kd.speedup
    );

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    println!(
        "\ncolumn sort: {} credit columns: comparator argsort + partial_cmp sort {:.2} ms, radix argsort + gather {:.2} ms, {:.2}x",
        columns.len(),
        ms(cs.reference),
        ms(cs.kernel),
        cs.speedup
    );

    let srps = |d: Duration| string_rows as f64 / d.as_secs_f64();
    println!(
        "\nstrings: {} columns x {} rows: freq over codes {:.1} Mrows/s; text_stats per row {:.1} Mrows/s, per distinct value {:.1}, {:.2}x",
        strings.len(),
        conflicts.nrows(),
        srps(freq_codes) / 1e6,
        srps(ts.reference) / 1e6,
        srps(ts.kernel) / 1e6,
        ts.speedup
    );

    let render_mb_per_s = page_bytes as f64 / 1e6 / render_report.as_secs_f64();
    println!(
        "\nrender: credit report page {:.2} MB in {:.2} ms ({:.0} MB/s); cached plot_missing(df, {x}) on adult {:.0} us",
        page_bytes as f64 / 1e6,
        render_report.as_secs_f64() * 1e3,
        render_mb_per_s,
        missing_x_cached.as_secs_f64() * 1e6
    );

    if let Some(path) = arg_str("--json") {
        let json = format!(
            concat!(
                "{{\"experiment\":\"kernels\",\"rows\":{},\"host_cores\":{},\n",
                "\"nullity_meps\":{:.3},\"corr_prep_ms\":{:.3},\n",
                "\"pearson_pair_pps\":{:.1},\"pearson_cell_pps\":{:.1},\"pearson_cell_speedup\":{:.4},\n",
                "\"spearman_pair_pps\":{:.1},\"spearman_cell_pps\":{:.1},\"spearman_cell_speedup\":{:.4},\n",
                "\"kendall_pair_pps\":{:.1},\"kendall_cell_pps\":{:.1},\"kendall_cell_speedup\":{:.4},\n",
                "\"kendall_nan_pair_pps\":{:.1},\"kendall_nan_cell_pps\":{:.1},\"kendall_nan_cell_speedup\":{:.4},\n",
                "\"pearson_nan_pair_pps\":{:.1},\"pearson_nan_cell_pps\":{:.1},\"pearson_nan_cell_speedup\":{:.4},\n",
                "\"kde_direct_cps\":{:.1},\"kde_cps\":{:.1},\"kde_speedup\":{:.4},\n",
                "\"column_sort_twice_ms\":{:.3},\"column_sort_once_ms\":{:.3},\"column_sort_speedup\":{:.4},\n",
                "\"freq_codes_rps\":{:.0},\"text_stats_push_rps\":{:.0},\"text_stats_rps\":{:.0},\"text_stats_speedup\":{:.4},\n",
                "\"render_mb_per_s\":{:.1},\"render_report_ms\":{:.3},\"missing_x_cached_us\":{:.1}}}"
            ),
            rows,
            host_cores,
            meps(rows, nullity),
            prep.as_secs_f64() * 1e3,
            pps(pc.reference),
            pps(pc.kernel),
            pc.speedup,
            pps(sc.reference),
            pps(sc.kernel),
            sc.speedup,
            pps(kc.reference),
            pps(kc.kernel),
            kc.speedup,
            pps(kn.reference),
            pps(kn.kernel),
            kn.speedup,
            nan_pps(pn.reference),
            nan_pps(pn.kernel),
            pn.speedup,
            cps(kd.reference),
            cps(kd.kernel),
            kd.speedup,
            ms(cs.reference),
            ms(cs.kernel),
            cs.speedup,
            srps(freq_codes),
            srps(ts.reference),
            srps(ts.kernel),
            ts.speedup,
            render_mb_per_s,
            render_report.as_secs_f64() * 1e3,
            missing_x_cached.as_secs_f64() * 1e6,
        );
        std::fs::write(&path, json).expect("write kernels json");
        println!("\nwrote {path}");
    }
}
