//! The report path's exactness contracts: shared-prep correlation cells
//! against the oracles and `CorrMethod::compute` on generated columns, count-based nullity
//! views against the baseline's indicator-vector functions, and output
//! bytes that do not depend on `engine.workers`.

use dataprep_eda::prelude::*;
use eda_baseline::missing as oracle;
use eda_core::compute::missing::compute_missing_overview;
use eda_core::compute::ComputeContext;
use eda_core::json::{inter_to_json, intermediates_to_json};
use eda_datagen::{generate, kaggle_spec_by_name};
use eda_stats::corr::{corr_cells, upper_triangle, Col, ColumnPrep, CorrMethod};

fn shape(name: &str, rows: usize, seed: u64) -> DataFrame {
    let mut spec = kaggle_spec_by_name(name).unwrap();
    spec.rows = rows;
    generate(&spec, seed)
}

/// The oracles the kernel crate's own tests are held against.
#[path = "../crates/stats/tests/oracle/mod.rs"]
mod stats_oracle;

#[test]
fn cells_match_the_pair_kernels_on_generated_columns() {
    // credit: 25 null-free columns, continuous and heavily tied ones.
    cells_match_the_pair_kernels(&shape("credit", 400, 7), 0);
    // conflicts: four of its ten numeric columns are 10% null, each on
    // rows of its own — 30 of the 45 pairs skip rows.
    cells_match_the_pair_kernels(&shape("conflicts", 400, 7), 4);
}

fn cells_match_the_pair_kernels(df: &DataFrame, with_nulls: usize) {
    let columns: Vec<Vec<f64>> = df
        .iter()
        .filter(|(_, c)| c.dtype().is_numeric())
        .map(|(_, c)| c.to_f64_nan().unwrap())
        .collect();
    assert!(columns.len() >= 6);
    let preps: Vec<ColumnPrep> = columns.iter().map(|v| ColumnPrep::prepare(v)).collect();
    assert!(preps.iter().filter(|prep| !prep.is_complete()).count() == with_nulls);
    let cols: Vec<Col<'_>> =
        columns.iter().zip(&preps).map(|(values, prep)| Col { values, prep }).collect();
    let pairs = upper_triangle(cols.len());
    let flipped: Vec<(usize, usize)> = pairs.iter().map(|&(i, j)| (j, i)).collect();

    let kendall = corr_cells(CorrMethod::KendallTau, &cols, &pairs);
    assert_eq!(kendall, corr_cells(CorrMethod::KendallTau, &cols, &flipped));
    let pearsons = corr_cells(CorrMethod::Pearson, &cols, &pairs);
    let spearmans = corr_cells(CorrMethod::Spearman, &cols, &pairs);
    let close = |got: Option<f64>, want: Option<f64>, what: &str| match (got, want) {
        (Some(g), Some(w)) => assert!((g - w).abs() < 1e-12, "{what}: {g} vs {w}"),
        (g, w) => assert_eq!(g, w, "{what}"),
    };
    for (k, &(i, j)) in pairs.iter().enumerate() {
        let (x, y) = (&columns[i], &columns[j]);
        // Same integer pair counts as the Fenwick oracle: the same bits.
        assert_eq!(kendall[k], stats_oracle::kendall_tau_fenwick(x, y), "kendall ({i}, {j})");
        close(kendall[k], stats_oracle::kendall_tau_quadratic(x, y), "kendall oracle");
        close(pearsons[k], stats_oracle::pearson_two_pass(x, y), "pearson");
        close(spearmans[k], stats_oracle::spearman_rank_once(x, y), "spearman");
        let cells = [pearsons[k], spearmans[k], kendall[k]];
        for (method, cell) in CorrMethod::ALL.into_iter().zip(cells) {
            close(cell, method.compute(x, y), method.name());
        }
    }
}

fn with_workers(workers: usize) -> Config {
    // Cache off: every worker count must compute its own payloads.
    Config::from_pairs(vec![
        ("engine.workers", workers.to_string().as_str()),
        ("engine.cache_budget_bytes", "0"),
    ])
    .unwrap()
}

#[test]
fn output_bytes_do_not_depend_on_the_worker_count() {
    // adult: two of its six numeric columns have nulls; workers change the
    // correlation tiling, never a cell.
    let df = shape("adult", 1500, 11);
    let x = df
        .iter()
        .find(|(_, c)| c.dtype().is_numeric() && c.null_count() > 0)
        .map(|(n, _)| n.to_string())
        .expect("adult has a numeric column with nulls");
    let render = |workers: usize| -> Vec<String> {
        let cfg = with_workers(workers);
        let report = create_report(&df, &cfg).unwrap();
        assert!(report.failed_sections().is_empty());
        let mut out = vec![
            intermediates_to_json(&plot_correlation(&df, &[], &cfg).unwrap().intermediates),
            intermediates_to_json(&plot_correlation(&df, &[&x], &cfg).unwrap().intermediates),
            intermediates_to_json(&plot_missing(&df, &[], &cfg).unwrap().intermediates),
            intermediates_to_json(&report.overview),
            intermediates_to_json(&report.missing),
        ];
        out.extend(report.variables.iter().map(|v| intermediates_to_json(&v.intermediates)));
        out.extend(report.correlations.iter().map(|m| inter_to_json(&Inter::Correlation(m.clone()))));
        out
    };
    let inline = render(1);
    for workers in [2, 4, 7] {
        assert_eq!(render(workers), inline, "workers = {workers}");
    }
}

#[test]
fn pair_r_equals_the_matrix_cell() {
    // `plot_correlation(df, x, y)` merges one lane pass per partition;
    // the matrix cell is one pass over the whole column (or a centered
    // dot product when neither column has nulls). On the adult shape,
    // `num0` and `num3` have nulls.
    let df = shape("adult", 24_500, 42);
    for workers in ["1", "4"] {
        let cfg = Config::from_pairs(vec![
            ("engine.workers", workers),
            ("engine.cache_budget_bytes", "0"),
        ])
        .unwrap();
        let all = plot_correlation(&df, &[], &cfg).unwrap();
        let Some(Inter::Correlation(matrix)) = all.get("correlation_matrix:Pearson") else {
            panic!("no Pearson matrix")
        };
        for (i, x) in matrix.labels.iter().enumerate() {
            for (j, y) in matrix.labels.iter().enumerate().skip(i + 1) {
                let pair = plot_correlation(&df, &[x, y], &cfg).unwrap();
                let Some(Inter::RegressionScatter { slope, r2, .. }) = pair.get("regression_scatter")
                else {
                    panic!("{x} ~ {y}: no regression")
                };
                let (r, cell) = (slope.signum() * r2.sqrt(), matrix.get(i, j).unwrap());
                assert!((r - cell).abs() <= 1e-12, "{x} ~ {y}, workers {workers}: {r} vs {cell}");
            }
        }
    }
}

/// `rows` rows, five columns: `never` null, `some` ~10% null, `same` with
/// `some`'s pattern exactly, `other` ~10% on different rows, `always` null.
fn nullity_frame(rows: usize) -> DataFrame {
    let some = |i: usize| !(i * 7 + 3).is_multiple_of(10);
    let other = |i: usize| !(i * 13 + 5).is_multiple_of(11);
    let opt = |keep: &dyn Fn(usize) -> bool| -> Vec<Option<f64>> {
        (0..rows).map(|i| keep(i).then_some(i as f64)).collect()
    };
    DataFrame::new(vec![
        ("never".into(), Column::from_f64((0..rows).map(|i| i as f64).collect())),
        ("some".into(), Column::from_opt_f64(opt(&some))),
        ("same".into(), Column::from_opt_f64(opt(&some))),
        ("other".into(), Column::from_opt_f64(opt(&other))),
        ("always".into(), Column::from_opt_f64(vec![None; rows])),
    ])
    .unwrap()
}

#[test]
fn count_based_nullity_views_equal_the_indicator_vector_functions() {
    let frames = [
        nullity_frame(1000),
        nullity_frame(130),
        nullity_frame(0),
        shape("conflicts", 900, 5),
        shape("credit", 300, 5),
    ];
    for df in &frames {
        for (npartitions, bins) in [(1, "20"), (3, "7"), (8, "64")] {
            let cfg = Config::from_pairs(vec![
                ("spectrum.bins", bins),
                ("engine.cache_budget_bytes", "0"),
            ])
            .unwrap();
            let mut ctx = ComputeContext::partitioned(df, &cfg, npartitions);
            let node = compute_missing_overview(&mut ctx);
            let (ims, _) = ctx.run_section(node).unwrap();

            let indicators = oracle::indicators(df);
            let what = format!("{} rows, {npartitions} partitions, {bins} bins", df.nrows());
            let Some(Inter::Spectrum(spectrum)) = ims.get("missing_spectrum") else { panic!() };
            assert_eq!(spectrum, &oracle::missing_spectrum(&indicators, cfg.spectrum.bins), "{what}");
            let Some(Inter::NullityCorr { cells, .. }) = ims.get("nullity_correlation") else {
                panic!()
            };
            let expected = oracle::nullity_correlation(&indicators);
            for (got, want) in cells.iter().flatten().zip(expected.iter().flatten()) {
                match (got, want) {
                    (Some(g), Some(w)) => assert!((g - w).abs() < 1e-12, "{what}: {g} vs {w}"),
                    (g, w) => assert_eq!(g, w, "{what}"),
                }
            }
            let Some(Inter::Dendrogram { merges, .. }) = ims.get("dendrogram") else { panic!() };
            let expected = oracle::nullity_dendrogram(&indicators);
            assert_eq!(merges.len(), expected.len(), "{what}");
            for (got, want) in merges.iter().zip(&expected) {
                assert_eq!((got.left, got.right, got.size), (want.left, want.right, want.size));
                assert!((got.distance - want.distance).abs() < 1e-12, "{what}");
            }
            let Some(Inter::MissingBars(bars)) = ims.get("missing_bar_chart") else { panic!() };
            for (bar, (_, indicator)) in bars.iter().zip(&indicators) {
                assert_eq!(bar.nulls, indicator.iter().filter(|&&b| b).count(), "{what}");
                assert_eq!(bar.total, df.nrows());
            }
        }
    }
}
