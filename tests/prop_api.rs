//! Property-based integration tests: the task-centric API must never
//! panic and must keep its structural guarantees on arbitrary small
//! frames (mixed types, arbitrary null patterns, repeated values).

use dataprep_eda::prelude::*;
use eda_bench::unshared_context;
use eda_core::compute::univariate::compute_univariate;
use eda_dataframe::Column;
use proptest::prelude::*;

/// An arbitrary small frame with one numeric, one integer, and one
/// categorical column, each with its own null pattern.
fn arb_frame() -> impl Strategy<Value = DataFrame> {
    let floats = prop::collection::vec(
        prop::option::of(-1.0e4..1.0e4f64),
        3..60,
    );
    let ints = prop::collection::vec(prop::option::of(-500i64..500), 3..60);
    let cats = prop::collection::vec(prop::option::of(0u8..6), 3..60);
    (floats, ints, cats).prop_map(|(f, i, c)| {
        let n = f.len().min(i.len()).min(c.len());
        DataFrame::new(vec![
            ("f".into(), Column::from_opt_f64(f[..n].to_vec())),
            ("i".into(), Column::from_opt_i64(i[..n].to_vec())),
            (
                "c".into(),
                Column::from_opt_string(
                    c[..n]
                        .iter()
                        .map(|v| v.map(|x| format!("cat{x}")))
                        .collect(),
                ),
            ),
        ])
        .expect("valid frame")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn plot_never_panics_and_produces_charts(df in arb_frame()) {
        let cfg = Config::default();
        let overview = plot(&df, &[], &cfg).unwrap();
        prop_assert!(overview.intermediates.len() > df.ncols());
        for col in ["f", "i", "c"] {
            let a = plot(&df, &[col], &cfg).unwrap();
            prop_assert!(a.get("stats").is_some());
            prop_assert!(a.intermediates.len() >= 3);
        }
    }

    #[test]
    fn bivariate_never_panics(df in arb_frame()) {
        let cfg = Config::default();
        for pair in [["f", "i"], ["f", "c"], ["c", "f"], ["i", "c"]] {
            let a = plot(&df, &pair, &cfg).unwrap();
            prop_assert!(!a.intermediates.is_empty(), "{pair:?}");
        }
    }

    #[test]
    fn missing_analysis_never_panics(df in arb_frame()) {
        let cfg = Config::default();
        let overview = plot_missing(&df, &[], &cfg).unwrap();
        prop_assert_eq!(overview.intermediates.len(), 4);
        let impact = plot_missing(&df, &["f"], &cfg).unwrap();
        // One comparison per other column.
        prop_assert_eq!(impact.intermediates.len(), df.ncols() - 1);
        let pair = plot_missing(&df, &["f", "i"], &cfg).unwrap();
        prop_assert!(pair.get("compare_histogram").is_some()
            || pair.get("compare_bars").is_some());
    }

    #[test]
    fn histogram_counts_match_non_null_rows(df in arb_frame()) {
        let cfg = Config::default();
        let a = plot(&df, &["f"], &cfg).unwrap();
        // Semantic detection may call low-cardinality data categorical;
        // in that case the invariant is on the bar chart instead.
        if let Some(Inter::Histogram { counts, .. }) = a.get("histogram") {
            let col = df.column("f").unwrap();
            let finite = col
                .numeric_iter()
                .unwrap()
                .flatten()
                .filter(|v| v.is_finite())
                .count() as u64;
            prop_assert_eq!(counts.iter().sum::<u64>(), finite);
        }
    }

    #[test]
    fn sharing_never_changes_results(df in arb_frame()) {
        let shared = plot(&df, &["f"], &Config::default()).unwrap();
        // Cache off, so the unshared graph computes every node itself.
        let cfg = Config::from_pairs(vec![("engine.cache_budget_bytes", "0")]).unwrap();
        let (unshared, _, _) =
            compute_univariate(&mut unshared_context(&df, &cfg), "f").unwrap();
        prop_assert_eq!(shared.intermediates, unshared);
    }

    #[test]
    fn partitioning_never_changes_results(df in arb_frame(), nparts in 1usize..9) {
        let base = plot_missing(&df, &[], &Config::default()).unwrap();
        let cfg = Config::from_pairs(vec![(
            "engine.npartitions",
            &nparts.to_string() as &str,
        )])
        .unwrap();
        let other = plot_missing(&df, &[], &cfg).unwrap();
        prop_assert_eq!(base.intermediates, other.intermediates);
    }

    #[test]
    fn rendering_never_panics(df in arb_frame()) {
        let cfg = Config::default();
        for a in [
            plot(&df, &[], &cfg).unwrap(),
            plot(&df, &["f"], &cfg).unwrap(),
            plot(&df, &["c"], &cfg).unwrap(),
            plot_missing(&df, &[], &cfg).unwrap(),
        ] {
            let html = render_analysis_html(&a, &cfg.display);
            prop_assert!(html.starts_with("<!DOCTYPE html>"));
            prop_assert!(html.ends_with("</html>"));
        }
    }
}
