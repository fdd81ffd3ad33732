//! Intermediates: the Compute → Render contract (paper §4.2.2).
//!
//! The Compute module never builds plot objects — it emits plain data
//! ("the results of all the computations on the data that are required to
//! generate the visualizations"), keyed by chart name. Separating the two
//! lets shared statistics feed several charts and lets users take the
//! intermediates into their own plotting stack.

use eda_dataframe::HeapSize;
use eda_stats::corr::CorrMatrix;
use eda_stats::missing::{DendrogramMerge, MissingSpectrum, MissingSummary};
use eda_stats::quantile::BoxPlot;

/// Correlation vectors grouped by method:
/// `(method name, [(column, coefficient)])`.
pub type CorrVectorsByMethod = Vec<(String, Vec<(String, Option<f64>)>)>;

/// One computed intermediate, ready to be rendered.
#[derive(Debug, Clone, PartialEq)]
pub enum Inter {
    /// A table of `(label, formatted value, highlight)` rows. `highlight`
    /// marks rows the insight engine flagged (the red entries of Figure 1).
    StatsTable(Vec<StatRow>),
    /// Histogram data: `edges.len() == counts.len() + 1`.
    Histogram {
        /// Bin boundaries.
        edges: Vec<f64>,
        /// Bin counts.
        counts: Vec<u64>,
    },
    /// Bar chart over top categories.
    Bar {
        /// Category labels, descending count.
        categories: Vec<String>,
        /// Counts per category.
        counts: Vec<u64>,
        /// Count aggregated into "Other" (categories beyond the top-k).
        other: u64,
        /// Total distinct categories in the column.
        total_distinct: usize,
    },
    /// Pie chart over top categories (fractions of the non-null total).
    Pie {
        /// Slice labels.
        categories: Vec<String>,
        /// Slice fractions (sum ≤ 1; remainder is "Other").
        fractions: Vec<f64>,
    },
    /// KDE curve.
    Kde {
        /// Evaluation grid.
        xs: Vec<f64>,
        /// Densities.
        ys: Vec<f64>,
    },
    /// Normal Q-Q points `(theoretical, sample)`.
    QQ(Vec<(f64, f64)>),
    /// One or more box plots, each labelled (a single box for univariate,
    /// one per category/bin for the grouped variants).
    Boxes(Vec<(String, BoxPlot)>),
    /// Scatter points (possibly thinned).
    Scatter {
        /// The points.
        points: Vec<(f64, f64)>,
        /// Whether thinning dropped points.
        sampled: bool,
    },
    /// Scatter with a fitted regression line.
    RegressionScatter {
        /// The (possibly thinned) points.
        points: Vec<(f64, f64)>,
        /// Line slope.
        slope: f64,
        /// Line intercept.
        intercept: f64,
        /// Coefficient of determination.
        r2: f64,
    },
    /// Hexagonal binning (pointy-top axial grid).
    Hexbin {
        /// Hexagon centers in data coordinates.
        centers: Vec<(f64, f64)>,
        /// Point count per hexagon.
        counts: Vec<u64>,
        /// Hexagon circumradius in x-data units.
        radius: f64,
    },
    /// Heat map over two categorical axes.
    Heatmap {
        /// X-axis labels.
        xlabels: Vec<String>,
        /// Y-axis labels.
        ylabels: Vec<String>,
        /// `ylabels.len()` rows × `xlabels.len()` columns of counts.
        values: Vec<Vec<u64>>,
    },
    /// Grouped/nested or stacked bars over two categorical axes: for each
    /// x-category, one count per y-category.
    GroupedBars {
        /// X-axis labels.
        xlabels: Vec<String>,
        /// Series: `(y label, counts aligned with xlabels)`.
        series: Vec<(String, Vec<u64>)>,
        /// Whether the renderer should stack (true) or nest (false).
        stacked: bool,
    },
    /// Multi-line chart: per-category histograms over shared bins.
    MultiLine {
        /// Bin centers along the numeric axis.
        xs: Vec<f64>,
        /// Series: `(category, counts aligned with xs)`.
        series: Vec<(String, Vec<u64>)>,
    },
    /// A generic line (PDF/CDF curves of the missing-impact panel).
    Line {
        /// X values.
        xs: Vec<f64>,
        /// Y values.
        ys: Vec<f64>,
    },
    /// Correlation matrix.
    Correlation(CorrMatrix),
    /// One-vs-rest correlation vectors: `(method, [(column, r)])`.
    CorrVectors(CorrVectorsByMethod),
    /// Per-column missing summaries (bar chart of plot_missing(df)).
    MissingBars(Vec<MissingSummary>),
    /// The missing spectrum.
    Spectrum(MissingSpectrum),
    /// Nullity correlation heatmap: labels plus a full matrix.
    NullityCorr {
        /// Column labels.
        labels: Vec<String>,
        /// Symmetric matrix; `None` where undefined.
        cells: Vec<Vec<Option<f64>>>,
    },
    /// Nullity dendrogram.
    Dendrogram {
        /// Leaf labels (column names).
        labels: Vec<String>,
        /// Merge steps (SciPy linkage convention).
        merges: Vec<DendrogramMerge>,
    },
    /// Violin plot: a KDE profile along the value axis, mirrored by the
    /// renderer (the community-requested extension the paper's §3.2
    /// mentions for `plot(df, x)`).
    Violin {
        /// Value-axis grid.
        ys: Vec<f64>,
        /// Density at each grid point.
        densities: Vec<f64>,
    },
    /// Word frequencies (backs both the word cloud and the table).
    WordFreq {
        /// `(word, count)` descending.
        words: Vec<(String, u64)>,
        /// Total words.
        total: u64,
        /// Distinct words.
        distinct: usize,
    },
    /// Before/after comparison of a numeric distribution (missing impact):
    /// shared bin edges, counts with all rows vs. rows surviving the drop.
    CompareHistogram {
        /// Shared bin edges.
        edges: Vec<f64>,
        /// Counts over all rows.
        before: Vec<u64>,
        /// Counts after dropping the other column's missing rows.
        after: Vec<u64>,
    },
    /// Before/after comparison of categorical counts (missing impact).
    CompareBars {
        /// Category labels.
        categories: Vec<String>,
        /// Counts over all rows.
        before: Vec<u64>,
        /// Counts after dropping the other column's missing rows.
        after: Vec<u64>,
    },
}

/// One row of a stats table.
#[derive(Debug, Clone, PartialEq)]
pub struct StatRow {
    /// Statistic name.
    pub label: String,
    /// Formatted value.
    pub value: String,
    /// Whether the insight engine flagged this row.
    pub highlight: bool,
}

impl StatRow {
    /// An unhighlighted row.
    pub fn new(label: impl Into<String>, value: impl Into<String>) -> StatRow {
        StatRow { label: label.into(), value: value.into(), highlight: false }
    }
}

/// Ordered, named intermediates of one EDA call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Intermediates {
    items: Vec<(String, Inter)>,
}

impl Intermediates {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a named intermediate (names may repeat across columns —
    /// lookups return the first match, iteration sees all).
    pub fn push(&mut self, name: impl Into<String>, inter: Inter) {
        self.items.push((name.into(), inter));
    }

    /// First intermediate with this name.
    pub fn get(&self, name: &str) -> Option<&Inter> {
        self.items
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, i)| i)
    }

    /// Iterate all `(name, intermediate)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Inter)> {
        self.items.iter().map(|(n, i)| (n.as_str(), i))
    }

    /// Number of intermediates.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether there are no intermediates.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Names in insertion order.
    pub fn names(&self) -> Vec<&str> {
        self.items.iter().map(|(n, _)| n.as_str()).collect()
    }
}

/// What the result cache charges for a section.
impl HeapSize for Intermediates {
    fn heap_bytes(&self) -> usize {
        self.items.heap_bytes()
    }
}

impl HeapSize for StatRow {
    fn heap_bytes(&self) -> usize {
        self.label.heap_bytes() + self.value.heap_bytes()
    }
}

impl HeapSize for Inter {
    fn heap_bytes(&self) -> usize {
        match self {
            Inter::StatsTable(table) => table.heap_bytes(),
            Inter::Histogram { edges, counts } => edges.heap_bytes() + counts.heap_bytes(),
            Inter::Bar { categories, counts, .. } => categories.heap_bytes() + counts.heap_bytes(),
            Inter::Pie { categories, fractions } => {
                categories.heap_bytes() + fractions.heap_bytes()
            }
            Inter::Kde { xs, ys }
            | Inter::Line { xs, ys }
            | Inter::Violin { ys: xs, densities: ys } => xs.heap_bytes() + ys.heap_bytes(),
            Inter::QQ(points)
            | Inter::Scatter { points, .. }
            | Inter::RegressionScatter { points, .. } => points.heap_bytes(),
            Inter::Boxes(boxes) => boxes.heap_bytes(),
            Inter::Hexbin { centers, counts, .. } => centers.heap_bytes() + counts.heap_bytes(),
            Inter::Heatmap { xlabels, ylabels, values } => {
                xlabels.heap_bytes() + ylabels.heap_bytes() + values.heap_bytes()
            }
            Inter::GroupedBars { xlabels, series, .. } => {
                xlabels.heap_bytes() + series.heap_bytes()
            }
            Inter::MultiLine { xs, series } => xs.heap_bytes() + series.heap_bytes(),
            Inter::Correlation(m) => m.heap_bytes(),
            Inter::CorrVectors(methods) => methods.heap_bytes(),
            Inter::MissingBars(bars) => bars.heap_bytes(),
            Inter::Spectrum(s) => s.heap_bytes(),
            Inter::NullityCorr { labels, cells } => labels.heap_bytes() + cells.heap_bytes(),
            Inter::Dendrogram { labels, merges } => labels.heap_bytes() + merges.heap_bytes(),
            Inter::WordFreq { words, .. } => words.heap_bytes(),
            Inter::CompareHistogram { edges, before, after } => {
                edges.heap_bytes() + before.heap_bytes() + after.heap_bytes()
            }
            Inter::CompareBars { categories, before, after } => {
                categories.heap_bytes() + before.heap_bytes() + after.heap_bytes()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_roundtrip() {
        let mut ims = Intermediates::new();
        ims.push("histogram", Inter::Histogram { edges: vec![0.0, 1.0], counts: vec![3] });
        ims.push("kde_plot", Inter::Kde { xs: vec![], ys: vec![] });
        assert_eq!(ims.len(), 2);
        assert!(matches!(ims.get("histogram"), Some(Inter::Histogram { .. })));
        assert!(ims.get("nope").is_none());
        assert_eq!(ims.names(), vec!["histogram", "kde_plot"]);
    }

    #[test]
    fn stat_row_helper() {
        let r = StatRow::new("mean", "4.5");
        assert!(!r.highlight);
        assert_eq!(r.label, "mean");
    }
}
