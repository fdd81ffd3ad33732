//! Edge-case integration tests: degenerate frames must produce sensible
//! analyses (or clean errors), never panics.

use dataprep_eda::core::json::{insights_to_json, intermediates_to_json};
use dataprep_eda::prelude::*;
use eda_dataframe::Column;

#[test]
fn empty_frame_overview() {
    let df = DataFrame::empty();
    let cfg = Config::default();
    let a = plot(&df, &[], &cfg).unwrap();
    assert!(a.get("stats").is_some());
    let missing = plot_missing(&df, &[], &cfg).unwrap();
    assert!(missing.get("missing_bar_chart").is_some());
}

#[test]
fn zero_row_frame() {
    let df = DataFrame::new(vec![
        ("a".into(), Column::from_f64(vec![])),
        ("b".into(), Column::from_string(vec![])),
    ])
    .unwrap();
    let cfg = Config::default();
    let overview = plot(&df, &[], &cfg).unwrap();
    assert!(overview.get("stats").is_some());
    let uni = plot(&df, &["a"], &cfg).unwrap();
    assert!(uni.get("stats").is_some());
    let missing = plot_missing(&df, &["a"], &cfg).unwrap();
    assert_eq!(missing.intermediates.len(), 1);
    // Rendering degenerate analyses stays sound.
    let html = render_analysis_html(&uni, &cfg.display);
    assert!(html.contains("</html>"));
}

#[test]
fn single_row_frame() {
    let df = DataFrame::new(vec![
        ("a".into(), Column::from_f64(vec![42.0])),
        ("c".into(), Column::from_strs(&["only"])),
    ])
    .unwrap();
    let cfg = Config::default();
    for cols in [vec![], vec!["a"], vec!["c"]] {
        let a = plot(&df, &cols, &cfg).unwrap();
        assert!(!a.intermediates.is_empty(), "{cols:?}");
    }
    let a = plot(&df, &["a", "c"], &cfg).unwrap();
    assert!(!a.intermediates.is_empty());
}

#[test]
fn all_null_numeric_column() {
    let df = DataFrame::new(vec![
        ("x".into(), Column::from_opt_f64(vec![None; 20])),
        ("y".into(), Column::from_f64((0..20).map(|i| i as f64).collect())),
    ])
    .unwrap();
    let cfg = Config::default();
    let a = plot(&df, &["x"], &cfg).unwrap();
    let Some(Inter::StatsTable(rows)) = a.get("stats") else { panic!() };
    let missing = rows.iter().find(|r| r.label == "missing").unwrap();
    assert!(missing.value.contains("100.0%"));
    // Missing insight fires at 100%.
    assert!(a
        .insights
        .iter()
        .any(|i| i.kind == eda_core::InsightKind::Missing));
    // Bivariate with an all-null side produces (empty) charts, no panic.
    let b = plot(&df, &["x", "y"], &cfg).unwrap();
    assert!(!b.intermediates.is_empty());
    // Missing-impact: dropping x's nulls leaves zero rows.
    let m = plot_missing(&df, &["x", "y"], &cfg).unwrap();
    assert!(m.get("compare_histogram").is_some());
}

#[test]
fn all_nan_numeric_column() {
    // NaN values (not nulls): every statistic over them is undefined,
    // but plot, plot_correlation, and plot_missing must all stay sound.
    let df = DataFrame::new(vec![
        ("nan".into(), Column::from_f64(vec![f64::NAN; 25])),
        ("y".into(), Column::from_f64((0..25).map(|i| i as f64).collect())),
    ])
    .unwrap();
    let cfg = Config::default();
    let a = plot(&df, &["nan"], &cfg).unwrap();
    assert!(a.status.is_ok());
    assert!(a.get("stats").is_some());
    let b = plot(&df, &["nan", "y"], &cfg).unwrap();
    assert!(!b.intermediates.is_empty());
    let corr = plot_correlation(&df, &[], &cfg).unwrap();
    let Some(Inter::Correlation(m)) = corr.get("correlation_matrix:Pearson") else { panic!() };
    assert_eq!(m.labels, ["nan", "y"]);
    assert_eq!(m.get(0, 1), None);
    let missing = plot_missing(&df, &["nan"], &cfg).unwrap();
    assert!(missing.get("compare_histogram:y").is_some());
}

#[test]
fn zero_row_frame_correlation_and_missing() {
    let df = DataFrame::new(vec![
        ("a".into(), Column::from_f64(vec![])),
        ("b".into(), Column::from_f64(vec![])),
    ])
    .unwrap();
    let cfg = Config::default();
    // Two numeric columns with zero rows: every coefficient undefined.
    let corr = plot_correlation(&df, &[], &cfg).unwrap();
    let Some(Inter::Correlation(m)) = corr.get("correlation_matrix:Pearson") else { panic!() };
    assert_eq!(m.labels, ["a", "b"]);
    assert_eq!(m.get(0, 1), None);
    let missing = plot_missing(&df, &[], &cfg).unwrap();
    assert!(missing.get("missing_bar_chart").is_some());
    let html = render_analysis_html(&corr, &cfg.display);
    assert!(html.contains("</html>"));
}

#[test]
fn single_distinct_value_through_all_entry_points() {
    let df = DataFrame::new(vec![
        ("k".into(), Column::from_f64(vec![3.25; 40])),
        ("c".into(), Column::from_strs(&["only"; 40])),
        ("v".into(), Column::from_f64((0..40).map(|i| i as f64).collect())),
    ])
    .unwrap();
    let cfg = Config::default();
    // Univariate on a one-distinct-value column: histogram collapses to
    // a single bin without panicking.
    let a = plot(&df, &["k"], &cfg).unwrap();
    let Some(Inter::Histogram { counts, .. }) = a.get("histogram") else { panic!() };
    assert_eq!(counts.iter().sum::<u64>(), 40);
    // Bivariate constant-vs-varying and categorical-vs-numeric.
    assert!(!plot(&df, &["k", "v"], &cfg).unwrap().intermediates.is_empty());
    assert!(!plot(&df, &["c", "v"], &cfg).unwrap().intermediates.is_empty());
    // Correlation against a constant is undefined, not a crash.
    let corr = plot_correlation(&df, &[], &cfg).unwrap();
    let Some(Inter::Correlation(m)) = corr.get("correlation_matrix:Pearson") else { panic!() };
    assert_eq!(m.labels, ["k", "v"]);
    assert_eq!(m.get(0, 1), None);
    // Missing analysis of a fully-populated constant column.
    let missing = plot_missing(&df, &["k"], &cfg).unwrap();
    assert!(missing.get("compare_histogram:v").is_some());
    // A full report over the degenerate frame stays healthy.
    let r = create_report(&df, &cfg).unwrap();
    assert!(r.failed_sections().is_empty());
}

#[test]
fn constant_columns() {
    let df = DataFrame::new(vec![
        ("k".into(), Column::from_f64(vec![7.5; 30])),
        ("c".into(), Column::from_strs(&["same"; 30])),
    ])
    .unwrap();
    let cfg = Config::default();
    let a = plot(&df, &["k"], &cfg).unwrap();
    assert!(a
        .insights
        .iter()
        .any(|i| i.kind == eda_core::InsightKind::Constant));
    let c = plot(&df, &["c"], &cfg).unwrap();
    assert!(c
        .insights
        .iter()
        .any(|i| i.kind == eda_core::InsightKind::Constant));
    // Correlation with a constant column: undefined cells, no panic.
    let mut columns: Vec<(String, Column)> =
        df.iter().map(|(n, c)| (n.to_string(), c.clone())).collect();
    columns.push(("v".into(), Column::from_f64((0..30).map(|i| i as f64).collect())));
    let df2 = DataFrame::new(columns).unwrap();
    let corr = plot_correlation(&df2, &[], &cfg).unwrap();
    let Some(Inter::Correlation(m)) = corr.get("correlation_matrix:Pearson") else {
        panic!()
    };
    assert_eq!(m.labels, ["k", "v"]);
    assert_eq!(m.get(0, 1), None);
}

#[test]
fn infinite_values_flow_through() {
    let mut vals: Vec<Option<f64>> = (0..50).map(|i| Some(i as f64)).collect();
    vals[3] = Some(f64::INFINITY);
    vals[7] = Some(f64::NEG_INFINITY);
    let df = DataFrame::new(vec![("x".into(), Column::from_opt_f64(vals))]).unwrap();
    let cfg = Config::default();
    let a = plot(&df, &["x"], &cfg).unwrap();
    let Some(Inter::StatsTable(rows)) = a.get("stats") else { panic!() };
    let inf = rows.iter().find(|r| r.label == "infinite").unwrap();
    assert_eq!(inf.value, "2");
    assert!(a
        .insights
        .iter()
        .any(|i| i.kind == eda_core::InsightKind::Infinite));
    // Histogram ignores the infinities.
    let Some(Inter::Histogram { counts, .. }) = a.get("histogram") else { panic!() };
    assert_eq!(counts.iter().sum::<u64>(), 48);
}

#[test]
fn unicode_and_hostile_category_names() {
    let cats = ["北京", "emoji 🎉", "<script>alert(1)</script>", "quote\"quote", ""];
    let df = DataFrame::new(vec![(
        "c".into(),
        Column::from_string((0..50).map(|i| cats[i % cats.len()].to_string()).collect()),
    )])
    .unwrap();
    let cfg = Config::default();
    let a = plot(&df, &["c"], &cfg).unwrap();
    let html = render_analysis_html(&a, &cfg.display);
    // Script tags must be escaped in the output.
    assert!(!html.contains("<script>alert"));
    assert!(html.contains("&lt;script&gt;"));
    // JSON export stays balanced.
    let json = intermediates_to_json(&a.intermediates) + &insights_to_json(&a.insights);
    assert_eq!(json.matches('{').count(), json.matches('}').count());
}

#[test]
fn single_column_frame_correlation_errors_cleanly() {
    let df = DataFrame::new(vec![(
        "only".into(),
        Column::from_f64((0..10).map(|i| i as f64).collect()),
    )])
    .unwrap();
    let cfg = Config::default();
    assert!(plot_correlation(&df, &[], &cfg).is_err());
    assert!(plot_correlation(&df, &["only"], &cfg).is_err());
}

#[test]
fn report_on_degenerate_frames() {
    let cfg = Config::default();
    // All-categorical frame: no correlation section.
    let df = DataFrame::new(vec![(
        "c".into(),
        Column::from_string((0..40).map(|i| format!("v{}", i % 3)).collect()),
    )])
    .unwrap();
    let r = create_report(&df, &cfg).unwrap();
    assert!(r.correlations.is_empty());
    assert_eq!(r.variables.len(), 1);
    let html = render_report_html(&r, &cfg.display);
    assert!(html.contains("</html>"));
}
