//! Property-based robustness tests for the SVG renderers: arbitrary
//! (including extreme) data must always produce structurally sound SVG —
//! balanced tags, no NaN coordinates leaking into attributes.

use eda_core::config::{Config, DisplayConfig};
use eda_core::intermediate::Inter;
use proptest::prelude::*;

fn display() -> DisplayConfig {
    Config::default().display
}

fn render_chart(title: &str, inter: &Inter, display: &DisplayConfig) -> String {
    let mut page = String::new();
    eda_render::render_chart(&mut page, title, inter, display);
    page
}

fn check(html: &str) {
    assert!(html.contains("<svg") || html.contains("<table"), "no svg/table");
    // Tags balanced.
    assert_eq!(html.matches("<svg").count(), html.matches("</svg>").count());
    // Quotes balanced (attribute well-formedness smoke test).
    assert_eq!(html.matches('"').count() % 2, 0);
    // NaN must never appear in coordinates.
    assert!(!html.contains("NaN"), "NaN leaked into SVG");
}

fn finite() -> impl Strategy<Value = f64> {
    // Covers huge and tiny magnitudes.
    prop_oneof![
        -1.0e12..1.0e12f64,
        -1.0e-9..1.0e-9f64,
        Just(0.0),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn histogram_renders_any_counts(
        counts in prop::collection::vec(0u64..1_000_000, 1..40),
        lo in finite(),
        span in 0.0f64..1.0e9,
    ) {
        let edges: Vec<f64> = (0..=counts.len())
            .map(|i| lo + span * i as f64 / counts.len() as f64)
            .collect();
        let html = render_chart("h", &Inter::Histogram { edges, counts }, &display());
        check(&html);
    }

    #[test]
    fn line_renders_any_series(ys in prop::collection::vec(finite(), 2..100)) {
        let xs: Vec<f64> = (0..ys.len()).map(|i| i as f64).collect();
        let html = render_chart("l", &Inter::Line { xs, ys }, &display());
        check(&html);
    }

    #[test]
    fn scatter_renders_any_points(
        pts in prop::collection::vec((finite(), finite()), 0..200),
    ) {
        let html = render_chart(
            "s",
            &Inter::Scatter { points: pts, sampled: false },
            &display(),
        );
        check(&html);
    }

    #[test]
    fn bar_chart_renders_weird_labels(
        labels in prop::collection::vec("[\\PC]{0,20}", 1..12),
        seed in any::<u64>(),
    ) {
        let counts: Vec<u64> = labels
            .iter()
            .enumerate()
            .map(|(i, _)| (seed >> (i % 60)) % 1000)
            .collect();
        let html = render_chart(
            "b",
            &Inter::Bar {
                categories: labels.clone(),
                counts,
                other: seed % 50,
                total_distinct: labels.len() + 3,
            },
            &display(),
        );
        check(&html);
    }

    #[test]
    fn heatmap_renders_any_grid(
        rows in 1usize..6,
        cols in 1usize..6,
        seed in any::<u64>(),
    ) {
        let values: Vec<Vec<u64>> = (0..rows)
            .map(|r| (0..cols).map(|c| (seed >> ((r * cols + c) % 60)) % 997).collect())
            .collect();
        let html = render_chart(
            "hm",
            &Inter::Heatmap {
                xlabels: (0..cols).map(|i| format!("x{i}")).collect(),
                ylabels: (0..rows).map(|i| format!("y{i}")).collect(),
                values,
            },
            &display(),
        );
        check(&html);
    }
}
