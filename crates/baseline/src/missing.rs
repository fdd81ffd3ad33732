//! The "Missing values" section (missingno-style, eager).
//!
//! The baseline works the way the Python tools do: it materialises one
//! boolean null indicator per column and scans it once per view. The
//! engine computes the same four views from integer counts
//! (`eda_stats::missing::NullCounts`); the indicator-vector functions
//! below are independent of that path and serve as its oracle.

use eda_dataframe::DataFrame;
use eda_stats::missing::{
    average_linkage, spectrum_ranges, DendrogramMerge, MissingSpectrum, MissingSummary,
};
use eda_stats::vector::bool_pearson;

/// The missing-value visualizations PP shows.
#[derive(Debug, Clone)]
pub struct MissingSection {
    /// Per-column summaries (bar chart).
    pub summaries: Vec<MissingSummary>,
    /// The missing matrix/spectrum.
    pub spectrum: MissingSpectrum,
    /// Nullity correlation heatmap cells.
    pub nullity_corr: Vec<Vec<Option<f64>>>,
    /// Dendrogram merges.
    pub dendrogram: Vec<DendrogramMerge>,
}

/// Compute the section. The null indicators are re-extracted for each
/// visualization — eager and unshared, like the baseline.
pub fn compute(df: &DataFrame) -> MissingSection {
    let summaries: Vec<MissingSummary> = df
        .iter()
        .map(|(n, c)| MissingSummary {
            label: n.to_string(),
            nulls: c.null_count(),
            total: c.len(),
        })
        .collect();
    let spectrum = missing_spectrum(&indicators(df), 20);
    let nullity_corr = nullity_correlation(&indicators(df));
    let dendrogram = nullity_dendrogram(&indicators(df));
    MissingSection { summaries, spectrum, nullity_corr, dendrogram }
}

/// One `(label, indicator)` per column, `true` = missing.
pub fn indicators(df: &DataFrame) -> Vec<(String, Vec<bool>)> {
    df.iter()
        .map(|(n, c)| {
            (
                n.to_string(),
                (0..c.len()).map(|i| !c.is_valid(i)).collect(),
            )
        })
        .collect()
}

/// The missing spectrum from null-indicator vectors.
pub fn missing_spectrum(columns: &[(String, Vec<bool>)], bins: usize) -> MissingSpectrum {
    let nrows = columns.first().map_or(0, |(_, v)| v.len());
    let row_ranges = spectrum_ranges(nrows, bins);
    let counts = row_ranges
        .iter()
        .map(|&(start, end)| {
            columns
                .iter()
                .map(|(_, nulls)| nulls[start..end].iter().filter(|&&b| b).count())
                .collect()
        })
        .collect();
    MissingSpectrum {
        labels: columns.iter().map(|(n, _)| n.clone()).collect(),
        row_ranges,
        counts,
    }
}

/// Nullity correlation matrix: Pearson correlation between the null
/// indicators of column pairs. Columns with no nulls (or all nulls) yield
/// `None` cells.
pub fn nullity_correlation(columns: &[(String, Vec<bool>)]) -> Vec<Vec<Option<f64>>> {
    let m = columns.len();
    let mut out = vec![vec![None; m]; m];
    for i in 0..m {
        out[i][i] = Some(1.0);
        for j in (i + 1)..m {
            let r = bool_pearson(&columns[i].1, &columns[j].1);
            out[i][j] = r;
            out[j][i] = r;
        }
    }
    out
}

/// Average-linkage clustering of columns by the fraction of rows where
/// their null indicators disagree (normalized Hamming distance).
pub fn nullity_dendrogram(columns: &[(String, Vec<bool>)]) -> Vec<DendrogramMerge> {
    let m = columns.len();
    let nrows = columns.first().map_or(0, |(_, v)| v.len()).max(1);
    let mut distances = vec![vec![0.0; m]; m];
    for i in 0..m {
        for j in (i + 1)..m {
            let disagree = columns[i].1.iter().zip(&columns[j].1).filter(|(a, b)| a != b).count();
            distances[i][j] = disagree as f64 / nrows as f64;
            distances[j][i] = distances[i][j];
        }
    }
    average_linkage(&distances)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eda_dataframe::Column;

    #[test]
    fn section_structure() {
        let df = DataFrame::new(vec![
            ("a".into(), Column::from_opt_i64(vec![Some(1), None, Some(3), None])),
            ("b".into(), Column::from_opt_i64(vec![Some(1), None, Some(3), None])),
            ("c".into(), Column::from_i64(vec![1, 2, 3, 4])),
        ])
        .unwrap();
        let s = compute(&df);
        assert_eq!(s.summaries.len(), 3);
        assert_eq!(s.summaries[0].nulls, 2);
        assert_eq!(s.nullity_corr[0][1], Some(1.0)); // identical patterns
        assert_eq!(s.dendrogram.len(), 2);
        assert_eq!(s.spectrum.labels.len(), 3);
    }

    fn nulls(pattern: &str) -> Vec<bool> {
        pattern.chars().map(|c| c == '1').collect()
    }

    #[test]
    fn spectrum_counts_by_bin() {
        let cols = vec![
            ("a".into(), nulls("11000000")),
            ("b".into(), nulls("00000011")),
        ];
        let sp = missing_spectrum(&cols, 2);
        assert_eq!(sp.row_ranges, vec![(0, 4), (4, 8)]);
        assert_eq!(sp.counts[0], vec![2, 0]);
        assert_eq!(sp.counts[1], vec![0, 2]);
    }

    #[test]
    fn spectrum_more_bins_than_rows() {
        let cols = vec![("a".into(), nulls("10"))];
        let sp = missing_spectrum(&cols, 10);
        assert_eq!(sp.row_ranges.len(), 2);
        let total: usize = sp.counts.iter().map(|r| r[0]).sum();
        assert_eq!(total, 1);
    }

    #[test]
    fn spectrum_empty_frame() {
        let cols = vec![("a".into(), Vec::new())];
        let sp = missing_spectrum(&cols, 4);
        assert_eq!(sp.row_ranges, vec![(0, 0)]);
        assert_eq!(sp.counts, vec![vec![0]]);
    }
}
