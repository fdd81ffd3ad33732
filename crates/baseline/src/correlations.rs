//! The "Correlations" section: three coefficient matrices, each doing its
//! own pass over every pair (PP computes them independently).

use eda_dataframe::DataFrame;
use eda_stats::corr::{pearson, upper_triangle, CorrMatrix, CorrMethod};
use eda_stats::rank::ranks;

/// The three matrices Pandas-profiling shows (PhiK/Cramér's V disabled,
/// matching the paper's experimental setup).
#[derive(Debug, Clone)]
pub struct CorrelationSection {
    /// Pearson matrix.
    pub pearson: CorrMatrix,
    /// Spearman matrix.
    pub spearman: CorrMatrix,
    /// Kendall tau matrix.
    pub kendall: CorrMatrix,
}

/// Compute all three matrices. Each method re-extracts the columns — no
/// sharing between methods, like the baseline tool.
pub fn compute(df: &DataFrame) -> CorrelationSection {
    CorrelationSection {
        pearson: one_matrix(df, CorrMethod::Pearson),
        spearman: one_matrix(df, CorrMethod::Spearman),
        kendall: one_matrix(df, CorrMethod::KendallTau),
    }
}

fn one_matrix(df: &DataFrame, method: CorrMethod) -> CorrMatrix {
    let columns: Vec<(String, Vec<f64>)> = df
        .iter()
        .filter(|(_, c)| c.dtype().is_numeric())
        .map(|(n, c)| (n.to_string(), c.to_f64_nan().expect("numeric")))
        .collect();
    matrix(&columns, method)
}

/// The matrix for `method` over named numeric columns, one pair kernel
/// call per cell: the eager form `pandas.DataFrame.corr` has, with no
/// preparation shared between cells or methods.
///
/// Columns are full-length with NaN marking nulls and each pair uses
/// its pairwise-complete rows. Spearman is rank-once: every column is
/// ranked a single time, over its own non-null rows, and a cell is
/// [`pearson`] of two rank vectors.
pub fn matrix(columns: &[(String, Vec<f64>)], method: CorrMethod) -> CorrMatrix {
    let spearman = method == CorrMethod::Spearman;
    let ranked: Vec<Vec<f64>> =
        if spearman { columns.iter().map(|(_, v)| ranks(v)).collect() } else { Vec::new() };
    let inputs: Vec<&[f64]> = if spearman {
        ranked.iter().map(Vec::as_slice).collect()
    } else {
        columns.iter().map(|(_, v)| v.as_slice()).collect()
    };
    let cell = |(i, j): (usize, usize)| match method {
        CorrMethod::Spearman => pearson(inputs[i], inputs[j]),
        _ => method.compute(inputs[i], inputs[j]),
    };
    let labels = columns.iter().map(|(n, _)| n.clone()).collect();
    CorrMatrix::from_upper(labels, method, upper_triangle(columns.len()).into_iter().map(cell))
}

/// The independent oracles `eda-stats`' kernels are held against.
#[cfg(test)]
#[path = "../../stats/tests/oracle/mod.rs"]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use eda_dataframe::Column;
    use proptest::prelude::*;

    fn column(min_len: usize) -> impl Strategy<Value = Vec<f64>> {
        prop::collection::vec(-1.0e6..1.0e6f64, min_len..200)
    }

    /// Columns `c0`, `c1`, ... cut to the shortest one's length.
    fn named(cols: &[Vec<f64>]) -> Vec<(String, Vec<f64>)> {
        let n = cols.iter().map(Vec::len).min().unwrap();
        cols.iter().enumerate().map(|(i, c)| (format!("c{i}"), c[..n].to_vec())).collect()
    }

    /// SciPy's per-pair Spearman: the pair's complete rows, ranked again
    /// for the pair alone.
    fn per_pair(x: &[f64], y: &[f64]) -> Option<f64> {
        let (xs, ys): (Vec<f64>, Vec<f64>) =
            x.iter().zip(y).filter(|(a, b)| !a.is_nan() && !b.is_nan()).unzip();
        oracle::spearman_rank_once(&xs, &ys)
    }

    /// Same `None`-ness, and within `tol` where both are present.
    fn close(got: Option<f64>, want: Option<f64>, tol: f64) -> Result<(), String> {
        match (got, want) {
            (Some(a), Some(b)) => prop_assert!((a - b).abs() < tol, "{a} vs {b}"),
            (a, b) => prop_assert_eq!(a, b),
        }
        Ok(())
    }

    proptest! {
        #[test]
        fn spearman_matrix_rank_once_equals_per_pair(cols in prop::collection::vec(column(3), 2..5)) {
            // Equal-length NaN-free columns: ranking each column once must
            // agree with re-ranking every pair from scratch.
            let named = named(&cols);
            let m = matrix(&named, CorrMethod::Spearman);
            for (i, j) in upper_triangle(named.len()) {
                let (x, y) = (&named[i].1, &named[j].1);
                close(m.get(i, j), oracle::spearman_rank_once(x, y), 1e-9)?;
                close(m.get(i, j), per_pair(x, y), 1e-9)?;
            }
        }

        #[test]
        fn spearman_matrix_with_nulls_is_rank_once(
            cols in prop::collection::vec(
                prop::collection::vec(prop::option::of(-1.0e6..1.0e6f64), 4..60),
                2..4,
            ),
        ) {
            // pandas semantics: every column is ranked once over its own
            // non-null rows, and a pair correlates those ranks over the rows
            // both have — not the ranks of the pair's own complete subset.
            let cols: Vec<Vec<f64>> =
                cols.iter().map(|c| c.iter().map(|v| v.unwrap_or(f64::NAN)).collect()).collect();
            let named = named(&cols);
            let m = matrix(&named, CorrMethod::Spearman);
            for (i, j) in upper_triangle(named.len()) {
                close(m.get(i, j), oracle::spearman_rank_once(&named[i].1, &named[j].1), 1e-12)?;
            }
        }
    }

    #[test]
    fn three_matrices_over_numeric_columns() {
        let df = DataFrame::new(vec![
            ("a".into(), Column::from_f64((0..50).map(|i| i as f64).collect())),
            ("b".into(), Column::from_f64((0..50).map(|i| (i * 3) as f64).collect())),
            ("s".into(), Column::from_string((0..50).map(|i| format!("v{i}")).collect())),
        ])
        .unwrap();
        let section = compute(&df);
        assert_eq!(section.pearson.labels, vec!["a", "b"]);
        assert!((section.pearson.get(0, 1).unwrap() - 1.0).abs() < 1e-12);
        assert!((section.spearman.get(0, 1).unwrap() - 1.0).abs() < 1e-12);
        assert!((section.kendall.get(0, 1).unwrap() - 1.0).abs() < 1e-12);
    }
}
