//! # eda-baseline
//!
//! A Pandas-profiling-equivalent profiler: the comparison baseline of the
//! paper's Table 2 and Figure 6(b).
//!
//! Pandas-profiling's cost structure, reproduced deliberately:
//!
//! * **full-report-only granularity** — there is exactly one entry point,
//!   [`profile`], computing everything for every column;
//! * **eager, unshared computation** — each section (and each statistic
//!   within a section) re-extracts and re-walks the column data; nothing
//!   is planned, deduplicated, or parallelized;
//! * **the expensive extras** — pairwise *interactions* scatter data for
//!   every numeric column pair, three correlation coefficients each doing
//!   its own pass per pair, and duplicate-row detection over the whole
//!   frame.
//!
//! The paper disables PhiK/Cramér's V in Pandas-profiling for fairness
//! (DataPrep.EDA does not implement them); this baseline correspondingly
//! computes exactly Pearson + Spearman + Kendall.

#![warn(missing_docs)]

pub mod correlations;
pub mod duplicates;
pub mod interactions;
pub mod missing;
pub mod overview;
pub mod text;
pub mod variables;

use eda_dataframe::DataFrame;

/// The assembled profile report.
#[derive(Debug)]
pub struct BaselineReport {
    /// Dataset-level statistics.
    pub overview: overview::DatasetOverview,
    /// Per-column deep profiles.
    pub variables: Vec<variables::VariableProfile>,
    /// Pairwise scatter samples for every numeric pair.
    pub interactions: Vec<interactions::Interaction>,
    /// Pearson/Spearman/Kendall matrices.
    pub correlations: correlations::CorrelationSection,
    /// Missing-value section.
    pub missing: missing::MissingSection,
}

/// Generate the full profile report (the only granularity offered —
/// that's the point of the baseline).
pub fn profile(df: &DataFrame) -> BaselineReport {
    BaselineReport {
        overview: overview::compute(df),
        variables: variables::compute(df),
        interactions: interactions::compute(df),
        correlations: correlations::compute(df),
        missing: missing::compute(df),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eda_dataframe::Column;

    #[test]
    fn profile_produces_all_sections() {
        let df = DataFrame::new(vec![
            (
                "a".into(),
                Column::from_opt_f64(
                    (0..100)
                        .map(|i| if i % 10 == 0 { None } else { Some(i as f64) })
                        .collect(),
                ),
            ),
            ("b".into(), Column::from_f64((0..100).map(|i| (i * 2) as f64).collect())),
            (
                "c".into(),
                Column::from_string((0..100).map(|i| format!("x{}", i % 3)).collect()),
            ),
        ])
        .unwrap();
        let report = profile(&df);
        assert_eq!(report.overview.rows, 100);
        assert_eq!(report.variables.len(), 3);
        assert_eq!(report.interactions.len(), 1); // a×b
        assert_eq!(report.correlations.pearson.labels.len(), 2);
        assert_eq!(report.missing.summaries.len(), 3);
    }
}
