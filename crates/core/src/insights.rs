//! The auto-insight engine (paper §4.2.2).
//!
//! "A data fact is classified as an insight if its value is above a
//! threshold (each insight has its own, user-definable threshold)." The
//! thresholds live in [`crate::config::InsightConfig`]; this module turns
//! aggregates into [`Insight`] values and tells the stats tables which
//! rows to highlight (the red entries in the paper's Figure 1).

use eda_dataframe::HeapSize;
use eda_stats::freq::FreqSummary;
use eda_stats::hypothesis::chi_square_pvalue;
use eda_stats::missing::ColMeta;
use eda_stats::moments::Moments;
use eda_stats::quantile::BoxPlot;

use crate::config::InsightConfig;

/// The kinds of insights DataPrep.EDA reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InsightKind {
    /// Data-quality: column has a notable missing rate.
    Missing,
    /// Data-quality: column contains infinite values.
    Infinite,
    /// Data-quality: column is dominated by zeros.
    Zeros,
    /// Data-quality: column contains negative values.
    Negatives,
    /// Data-quality: column is constant.
    Constant,
    /// Distribution shape: notable skewness.
    Skewed,
    /// Distribution shape: indistinguishable from uniform.
    Uniform,
    /// Distribution shape: outlier-heavy.
    Outliers,
    /// Categorical: distinct count close to the row count.
    HighCardinality,
    /// Two columns are highly correlated.
    HighCorrelation,
    /// Two distributions are similar (missing-impact panel: dropping the
    /// other column's nulls barely changes this distribution).
    SimilarDistribution,
    /// Time series shows a clear upward/downward trend.
    Trend,
    /// Time series is strongly autocorrelated (possible seasonality).
    Autocorrelated,
    /// The analysis was computed on a sample, not the full data
    /// (the §7 sampling extension's user notification).
    Approximated,
}

impl InsightKind {
    /// Stable identifier used in rendered output.
    pub fn name(self) -> &'static str {
        match self {
            InsightKind::Missing => "missing",
            InsightKind::Infinite => "infinite",
            InsightKind::Zeros => "zeros",
            InsightKind::Negatives => "negatives",
            InsightKind::Constant => "constant",
            InsightKind::Skewed => "skewed",
            InsightKind::Uniform => "uniform",
            InsightKind::Outliers => "outliers",
            InsightKind::HighCardinality => "high_cardinality",
            InsightKind::HighCorrelation => "high_correlation",
            InsightKind::SimilarDistribution => "similar_distribution",
            InsightKind::Trend => "trend",
            InsightKind::Autocorrelated => "autocorrelated",
            InsightKind::Approximated => "approximated",
        }
    }
}

/// One detected insight.
#[derive(Debug, Clone, PartialEq)]
pub struct Insight {
    /// What was detected.
    pub kind: InsightKind,
    /// The column(s) involved.
    pub columns: Vec<String>,
    /// The statistic that crossed its threshold.
    pub value: f64,
    /// Human-readable message.
    pub message: String,
}

impl HeapSize for Insight {
    fn heap_bytes(&self) -> usize {
        self.columns.heap_bytes() + self.message.heap_bytes()
    }
}

/// Insights derivable from a column's meta + moments (numeric columns).
pub fn numeric_insights(
    column: &str,
    meta: &ColMeta,
    moments: &Moments,
    box_plot: Option<&BoxPlot>,
    cfg: &InsightConfig,
) -> Vec<Insight> {
    let mut out = Vec::new();
    missing_insight(column, meta, cfg, &mut out);
    let total = moments.count + moments.nans + moments.infinites;
    if total == 0 {
        return out;
    }
    let frac = |n: u64| n as f64 / total as f64;
    if frac(moments.infinites) > cfg.infinite {
        out.push(Insight {
            kind: InsightKind::Infinite,
            columns: vec![column.to_string()],
            value: frac(moments.infinites),
            message: format!(
                "{column} has {} infinite values ({:.1}%)",
                moments.infinites,
                100.0 * frac(moments.infinites)
            ),
        });
    }
    if frac(moments.zeros) > cfg.zeros {
        out.push(Insight {
            kind: InsightKind::Zeros,
            columns: vec![column.to_string()],
            value: frac(moments.zeros),
            message: format!(
                "{column} is {:.1}% zeros",
                100.0 * frac(moments.zeros)
            ),
        });
    }
    if frac(moments.negatives) > cfg.negatives && moments.negatives > 0 {
        out.push(Insight {
            kind: InsightKind::Negatives,
            columns: vec![column.to_string()],
            value: frac(moments.negatives),
            message: format!(
                "{column} has {} negative values",
                moments.negatives
            ),
        });
    }
    if moments.count > 1 && moments.variance() == Some(0.0) {
        out.push(Insight {
            kind: InsightKind::Constant,
            columns: vec![column.to_string()],
            value: 0.0,
            message: format!("{column} is constant"),
        });
    }
    if let Some(skew) = moments.skewness() {
        if skew.abs() > cfg.skew {
            out.push(Insight {
                kind: InsightKind::Skewed,
                columns: vec![column.to_string()],
                value: skew,
                message: format!("{column} is skewed (γ₁ = {skew:.2})"),
            });
        }
    }
    if let Some(bp) = box_plot {
        if bp.n > 0 {
            let frac = bp.n_outliers as f64 / bp.n as f64;
            if frac > cfg.outlier {
                out.push(Insight {
                    kind: InsightKind::Outliers,
                    columns: vec![column.to_string()],
                    value: frac,
                    message: format!(
                        "{column} has {} outliers ({:.1}%)",
                        bp.n_outliers,
                        100.0 * frac
                    ),
                });
            }
        }
    }
    out
}

/// Insights derivable from a categorical column's frequency table.
pub fn categorical_insights(
    column: &str,
    meta: &ColMeta,
    freq: &FreqSummary,
    cfg: &InsightConfig,
) -> Vec<Insight> {
    let mut out = Vec::new();
    missing_insight(column, meta, cfg, &mut out);
    if freq.total == 0 {
        return out;
    }
    let distinct_frac = freq.distinct as f64 / freq.total as f64;
    if distinct_frac > cfg.high_cardinality && freq.distinct > 1 {
        out.push(Insight {
            kind: InsightKind::HighCardinality,
            columns: vec![column.to_string()],
            value: distinct_frac,
            message: format!(
                "{column} has a high cardinality: {} distinct values",
                freq.distinct
            ),
        });
    }
    if freq.distinct == 1 {
        out.push(Insight {
            kind: InsightKind::Constant,
            columns: vec![column.to_string()],
            value: 0.0,
            message: format!("{column} is constant"),
        });
    }
    // Uniformity via chi-square over the observed category counts.
    if let Some((stat, df)) = freq.chi_square {
        let p = chi_square_pvalue(stat, df);
        if p > cfg.uniform_p {
            out.push(Insight {
                kind: InsightKind::Uniform,
                columns: vec![column.to_string()],
                value: p,
                message: format!("{column} is uniformly distributed (χ² p = {p:.3})"),
            });
        }
    }
    out
}

/// The shared missing-rate check.
fn missing_insight(column: &str, meta: &ColMeta, cfg: &InsightConfig, out: &mut Vec<Insight>) {
    if meta.len == 0 {
        return;
    }
    let rate = meta.nulls as f64 / meta.len as f64;
    if rate > cfg.missing {
        out.push(Insight {
            kind: InsightKind::Missing,
            columns: vec![column.to_string()],
            value: rate,
            message: format!(
                "{column} has {} ({:.1}%) missing values",
                meta.nulls,
                100.0 * rate
            ),
        });
    }
}

/// Correlation insight over a coefficient.
pub fn correlation_insight(
    a: &str,
    b: &str,
    method: &str,
    r: f64,
    cfg: &InsightConfig,
) -> Option<Insight> {
    (r.abs() >= cfg.correlation).then(|| Insight {
        kind: InsightKind::HighCorrelation,
        columns: vec![a.to_string(), b.to_string()],
        value: r,
        message: format!("{a} and {b} are highly correlated ({method} r = {r:.2})"),
    })
}

/// Trend insight from a normalized slope (value change over the full
/// time range divided by the value's standard deviation).
pub fn trend_insight(column: &str, normalized_slope: f64, cfg: &InsightConfig) -> Option<Insight> {
    (normalized_slope.abs() >= cfg.trend).then(|| Insight {
        kind: InsightKind::Trend,
        columns: vec![column.to_string()],
        value: normalized_slope,
        message: format!(
            "{column} shows a {} trend ({:+.2} σ over the range)",
            if normalized_slope > 0.0 { "rising" } else { "falling" },
            normalized_slope
        ),
    })
}

/// Autocorrelation insight from the strongest lag.
pub fn autocorr_insight(
    column: &str,
    lag: usize,
    r: f64,
    cfg: &InsightConfig,
) -> Option<Insight> {
    (r.abs() >= cfg.autocorr).then(|| Insight {
        kind: InsightKind::Autocorrelated,
        columns: vec![column.to_string()],
        value: r,
        message: format!("{column} is autocorrelated at lag {lag} (r = {r:.2})"),
    })
}

/// The sampling notification the paper's §7 calls for.
pub fn approximated_insight(sampled_rows: usize, total_rows: usize) -> Insight {
    Insight {
        kind: InsightKind::Approximated,
        columns: Vec::new(),
        value: sampled_rows as f64 / total_rows.max(1) as f64,
        message: format!(
            "computed on a systematic sample of {sampled_rows} of {total_rows} rows; statistics are approximate"
        ),
    }
}

/// Distribution-similarity insight from a KS distance (missing impact).
pub fn similarity_insight(column: &str, ks: f64, cfg: &InsightConfig) -> Option<Insight> {
    (ks <= cfg.similarity_ks).then(|| Insight {
        kind: InsightKind::SimilarDistribution,
        columns: vec![column.to_string()],
        value: ks,
        message: format!(
            "dropping the missing rows barely changes {column} (KS = {ks:.3})"
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;

    fn cfg() -> InsightConfig {
        Config::default().insight
    }

    fn freq_of(values: Vec<String>) -> FreqSummary {
        use eda_stats::freq::CatFreq;
        CatFreq::of(&eda_dataframe::Column::from_string(values), eda_dataframe::Selection::All).summary(10)
    }

    #[test]
    fn missing_flagged_above_threshold() {
        let meta = ColMeta { len: 100, nulls: 20 };
        let m = Moments::from_slice(&[1.0, 2.0, 3.0]);
        let ins = numeric_insights("x", &meta, &m, None, &cfg());
        assert!(ins.iter().any(|i| i.kind == InsightKind::Missing));
        let fine = ColMeta { len: 100, nulls: 1 };
        let ins = numeric_insights("x", &fine, &m, None, &cfg());
        assert!(!ins.iter().any(|i| i.kind == InsightKind::Missing));
    }

    #[test]
    fn skew_and_constant() {
        let meta = ColMeta { len: 5, nulls: 0 };
        let skewed = Moments::from_slice(&[1.0, 1.0, 1.0, 2.0, 50.0]);
        let ins = numeric_insights("x", &meta, &skewed, None, &cfg());
        assert!(ins.iter().any(|i| i.kind == InsightKind::Skewed));

        let constant = Moments::from_slice(&[3.0; 5]);
        let ins = numeric_insights("x", &meta, &constant, None, &cfg());
        assert!(ins.iter().any(|i| i.kind == InsightKind::Constant));
    }

    #[test]
    fn infinite_and_zeros() {
        let meta = ColMeta { len: 4, nulls: 0 };
        let m = Moments::from_slice(&[0.0, 0.0, 0.0, f64::INFINITY]);
        let ins = numeric_insights("x", &meta, &m, None, &cfg());
        assert!(ins.iter().any(|i| i.kind == InsightKind::Infinite));
        assert!(ins.iter().any(|i| i.kind == InsightKind::Zeros));
    }

    #[test]
    fn outlier_insight_uses_boxplot() {
        let meta = ColMeta { len: 12, nulls: 0 };
        let mut vals = vec![0.0; 100];
        vals.extend([1000.0; 10]);
        let bp = BoxPlot::from_values(&vals, 10).unwrap();
        let m = Moments::from_slice(&vals);
        let ins = numeric_insights("x", &meta, &m, Some(&bp), &cfg());
        assert!(ins.iter().any(|i| i.kind == InsightKind::Outliers));
    }

    #[test]
    fn high_cardinality_and_uniform() {
        let meta = ColMeta { len: 10, nulls: 0 };
        // 10 distinct values over 10 rows → high cardinality; also uniform.
        let f = freq_of((0..10).map(|i| format!("v{i}")).collect());
        let ins = categorical_insights("c", &meta, &f, &cfg());
        assert!(ins.iter().any(|i| i.kind == InsightKind::HighCardinality));
    }

    #[test]
    fn uniform_detected_for_balanced_counts() {
        let meta = ColMeta { len: 400, nulls: 0 };
        let f = freq_of((0..400).map(|i| ["a", "b", "c", "d"][i % 4].to_string()).collect());
        let ins = categorical_insights("c", &meta, &f, &cfg());
        assert!(ins.iter().any(|i| i.kind == InsightKind::Uniform));
    }

    #[test]
    fn constant_categorical() {
        let meta = ColMeta { len: 5, nulls: 0 };
        let f = freq_of(vec!["x".to_string(); 5]);
        let ins = categorical_insights("c", &meta, &f, &cfg());
        assert!(ins.iter().any(|i| i.kind == InsightKind::Constant));
    }

    #[test]
    fn correlation_and_similarity_helpers() {
        assert!(correlation_insight("a", "b", "Pearson", 0.95, &cfg()).is_some());
        assert!(correlation_insight("a", "b", "Pearson", 0.5, &cfg()).is_none());
        assert!(similarity_insight("y", 0.01, &cfg()).is_some());
        assert!(similarity_insight("y", 0.5, &cfg()).is_none());
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(InsightKind::Missing.name(), "missing");
        assert_eq!(InsightKind::HighCorrelation.name(), "high_correlation");
    }
}
