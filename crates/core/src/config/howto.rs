//! How-to guide generation (paper Figure 1, part D).
//!
//! Clicking the `?` icon next to a chart pops a guide listing exactly the
//! parameters that customize *that* chart, with copy-pasteable override
//! snippets. Here the guide is generated from the parameter registry and a
//! chart → parameter mapping, and is attached to every analysis result.

use super::params::{describe, ParamSpec};

/// One entry of a how-to guide.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HowToEntry {
    /// Parameter descriptor.
    pub spec: &'static ParamSpec,
    /// A copy-pasteable override snippet, e.g. `("hist.bins", "200")`.
    pub snippet: String,
}

/// The guide for one chart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HowToGuide {
    /// Chart identifier (intermediate name).
    pub chart: String,
    /// Customizable parameters.
    pub entries: Vec<HowToEntry>,
}

/// Which parameters customize which chart (by intermediate name).
const CHART_PARAMS: &[(&str, &[&str])] = &[
    ("histogram", &["hist.bins", "display.width", "display.height"]),
    ("kde_plot", &["kde.grid", "display.width", "display.height"]),
    ("qq_plot", &["qq.points", "display.width", "display.height"]),
    ("box_plot", &["box.max_outliers", "display.width", "display.height"]),
    ("binned_box_plot", &["box.bins", "box.max_outliers"]),
    ("categorical_box_plot", &["box.ngroups", "box.max_outliers"]),
    ("bar_chart", &["bar.ngroups", "display.width", "display.height"]),
    ("pie_chart", &["pie.slices"]),
    ("word_cloud", &["word.top"]),
    ("word_frequencies", &["word.top"]),
    ("scatter_plot", &["scatter.sample"]),
    ("hexbin_plot", &["hexbin.gridsize"]),
    ("heat_map", &["crosstab.ngroups_x", "crosstab.ngroups_y"]),
    ("nested_bar_chart", &["crosstab.ngroups_x", "crosstab.ngroups_y"]),
    ("stacked_bar_chart", &["crosstab.ngroups_x", "crosstab.ngroups_y"]),
    ("multi_line_chart", &["line.ngroups", "line.bins"]),
    ("missing_spectrum", &["spectrum.bins"]),
    ("missing_bar_chart", &["display.width", "display.height"]),
    ("nullity_correlation", &["display.width", "display.height"]),
    ("dendrogram", &["display.width", "display.height"]),
    ("correlation_matrix", &["insight.correlation"]),
    ("regression_scatter", &["scatter.sample"]),
    ("stats", &["insight.missing", "insight.skew", "insight.high_cardinality"]),
    ("line", &["ts.points", "display.width", "display.height"]),
    ("rolling_mean", &["ts.window", "ts.points"]),
    ("acf", &["ts.max_lag", "insight.autocorr"]),
    ("violin_plot", &["violin.enabled", "kde.grid"]),
];

/// The how-to guide for one chart/intermediate name, or an empty guide for
/// unknown charts.
pub fn howto_for(chart: &str) -> HowToGuide {
    let keys: &[&str] = CHART_PARAMS
        .iter()
        .find(|(c, _)| *c == chart)
        .map_or(&[], |(_, keys)| *keys);
    HowToGuide {
        chart: chart.to_string(),
        entries: keys
            .iter()
            .filter_map(|k| describe(k))
            .map(|spec| HowToEntry {
                spec,
                snippet: format!("(\"{}\", \"{}\")", spec.key, spec.default),
            })
            .collect(),
    }
}

impl std::fmt::Display for HowToGuide {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "How to customize `{}`:", self.chart)?;
        for e in &self.entries {
            writeln!(
                f,
                "  {:<28} {} (default {}) e.g. {}",
                e.spec.key, e.spec.description, e.spec.default, e.snippet
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_guide_mentions_bins() {
        let g = howto_for("histogram");
        assert!(g.entries.iter().any(|e| e.spec.key == "hist.bins"));
        assert!(g.to_string().contains("hist.bins"));
        // The Figure 1 flow: copy the snippet, paste it into config pairs.
        assert!(g.entries[0].snippet.contains("hist.bins"));
    }

    #[test]
    fn unknown_chart_yields_empty_guide() {
        let g = howto_for("made_up_chart");
        assert!(g.entries.is_empty());
    }

    #[test]
    fn all_mapped_keys_exist_in_registry() {
        for (chart, keys) in CHART_PARAMS {
            for k in *keys {
                assert!(
                    describe(k).is_some(),
                    "chart {chart} references unregistered key {k}"
                );
            }
        }
    }

    #[test]
    fn snippets_round_trip_through_config() {
        use crate::config::Config;
        let g = howto_for("kde_plot");
        let mut cfg = Config::default();
        for e in &g.entries {
            // Defaults that are symbolic (e.g. "cores") are display-only.
            if e.spec.default.chars().all(|c| c.is_ascii_digit() || c == '.') {
                cfg.set(e.spec.key, e.spec.default).unwrap();
            }
        }
    }
}
