//! Per-variable deep profiles (eager, unshared).
//!
//! Pandas-profiling computes an exhaustive statistics block per column.
//! Every statistic below re-extracts the column values — the deliberate
//! absence of computation sharing that DataPrep.EDA's single-graph design
//! removes.

use eda_dataframe::{Column, DataFrame, DataType};
use eda_stats::histogram::Histogram;
use eda_stats::moments::Moments;
use eda_stats::quantile::{quantile_sorted, sorted_values, BoxPlot};

use crate::text::{FreqTable, TextProfile};

/// Deep profile of one column.
#[derive(Debug, Clone)]
pub struct VariableProfile {
    /// Column name.
    pub name: String,
    /// Storage type.
    pub dtype: DataType,
    /// Row count.
    pub count: usize,
    /// Null count.
    pub missing: usize,
    /// Distinct non-null values.
    pub distinct: usize,
    /// Numeric block (numeric columns only).
    pub numeric: Option<NumericProfile>,
    /// Categorical block (all columns get one — PP shows frequency tables
    /// for everything).
    pub top_values: Vec<(String, u64)>,
    /// Text/length statistics (categorical columns; PP's "length" and
    /// word blocks).
    pub text: Option<TextProfile>,
}

/// The numeric statistics block.
#[derive(Debug, Clone)]
pub struct NumericProfile {
    /// Mean.
    pub mean: f64,
    /// Standard deviation.
    pub std: Option<f64>,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// 5% / 25% / 50% / 75% / 95% quantiles.
    pub quantiles: [Option<f64>; 5],
    /// Median absolute deviation.
    pub mad: Option<f64>,
    /// Skewness.
    pub skewness: Option<f64>,
    /// Excess kurtosis.
    pub kurtosis: Option<f64>,
    /// Zeros count.
    pub zeros: u64,
    /// Negative count.
    pub negatives: u64,
    /// Whether the column is monotonically increasing.
    pub monotonic_increasing: bool,
    /// Histogram (PP draws one per numeric column).
    pub histogram: Histogram,
    /// Box-plot statistics.
    pub box_plot: Option<BoxPlot>,
}

/// Profile every column.
pub fn compute(df: &DataFrame) -> Vec<VariableProfile> {
    df.iter().map(|(name, col)| profile_column(name, col)).collect()
}

fn profile_column(name: &str, col: &Column) -> VariableProfile {
    // Pass: frequency table (distinct counts + top values).
    let mut freq = FreqTable::new();
    col.display_iter().for_each(|v| freq.push_owned(v));
    let numeric = if col.dtype().is_numeric() {
        Some(numeric_profile(col))
    } else {
        None
    };
    let text = if col.dtype().is_numeric() {
        None
    } else {
        // Another pass: PP computes length/word statistics per
        // categorical column in its own sweep.
        let mut t = TextProfile::default();
        for v in col.display_iter() {
            t.push(v.as_deref());
        }
        Some(t)
    };
    VariableProfile {
        name: name.to_string(),
        dtype: col.dtype(),
        count: col.len(),
        missing: col.null_count(),
        distinct: freq.distinct(),
        numeric,
        top_values: freq.top_k(10),
        text,
    }
}

fn numeric_profile(col: &Column) -> NumericProfile {
    // Each block below re-extracts the values: PP's cost structure.
    let moments = {
        let values = col.numeric_nonnull().expect("numeric");
        Moments::from_slice(&values)
    };
    let sorted = {
        let values = col.numeric_nonnull().expect("numeric");
        sorted_values(&values)
    };
    let quantiles = [
        quantile_sorted(&sorted, 0.05),
        quantile_sorted(&sorted, 0.25),
        quantile_sorted(&sorted, 0.5),
        quantile_sorted(&sorted, 0.75),
        quantile_sorted(&sorted, 0.95),
    ];
    let mad = {
        // Yet another pass: deviations from the median, re-sorted.
        quantile_sorted(&sorted, 0.5).and_then(|median| {
            let devs: Vec<f64> = col
                .numeric_nonnull()
                .expect("numeric")
                .iter()
                .map(|v| (v - median).abs())
                .collect();
            quantile_sorted(&sorted_values(&devs), 0.5)
        })
    };
    let monotonic_increasing = {
        let values = col.numeric_nonnull().expect("numeric");
        values.windows(2).all(|w| w[0] <= w[1])
    };
    let histogram = {
        let values = col.numeric_nonnull().expect("numeric");
        Histogram::from_values(&values, 50)
    };
    let box_plot = BoxPlot::from_sorted(&sorted, 100);
    NumericProfile {
        mean: moments.mean,
        std: moments.std(),
        min: moments.min,
        max: moments.max,
        quantiles,
        mad,
        skewness: moments.skewness(),
        kurtosis: moments.kurtosis(),
        zeros: moments.zeros,
        negatives: moments.negatives,
        monotonic_increasing,
        histogram,
        box_plot,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_profile_values() {
        let col = Column::from_opt_f64(
            (0..100)
                .map(|i| if i == 50 { None } else { Some(i as f64) })
                .collect(),
        );
        let p = profile_column("x", &col);
        assert_eq!(p.count, 100);
        assert_eq!(p.missing, 1);
        assert_eq!(p.distinct, 99);
        let n = p.numeric.unwrap();
        assert_eq!(n.min, 0.0);
        assert_eq!(n.max, 99.0);
        assert!(n.monotonic_increasing);
        assert_eq!(n.histogram.total(), 99);
        assert!(n.mad.unwrap() > 0.0);
        assert!(n.box_plot.is_some());
    }

    #[test]
    fn categorical_profile() {
        let col = Column::from_strs(&["a b", "b", "a", "a"]);
        let p = profile_column("c", &col);
        assert!(p.numeric.is_none());
        assert_eq!(p.top_values[0], ("a".to_string(), 2));
        assert_eq!(p.distinct, 3);
        let text = p.text.unwrap();
        assert_eq!(text.words.total(), 5);
        assert_eq!(text.count, 4);
    }

    #[test]
    fn non_monotonic_detected() {
        let col = Column::from_f64(vec![1.0, 3.0, 2.0]);
        let p = profile_column("x", &col);
        assert!(!p.numeric.unwrap().monotonic_increasing);
    }
}
