//! Correlation matrices over named column sets.

use super::{spearman::spearman_from_ranks, CorrMethod};
use crate::rank::ranks;

/// A symmetric correlation matrix with column labels.
///
/// Cells are `None` when a coefficient is undefined (constant column,
/// too few complete pairs).
#[derive(Debug, Clone, PartialEq)]
pub struct CorrMatrix {
    /// Column labels, in matrix order.
    pub labels: Vec<String>,
    /// The method that produced the matrix.
    pub method: CorrMethod,
    /// Row-major `labels.len() × labels.len()` cells.
    pub cells: Vec<Option<f64>>,
}

impl CorrMatrix {
    /// Compute the matrix for `method` over named numeric columns.
    ///
    /// Columns are full-length with NaN marking nulls; each pair uses its
    /// own pairwise-complete subset, like `pandas.DataFrame.corr`.
    pub fn compute(
        columns: &[(String, Vec<f64>)],
        method: CorrMethod,
    ) -> CorrMatrix {
        let m = columns.len();
        // Spearman over a NaN-free column pair is Pearson over the
        // columns' own ranks, so rank each complete column once —
        // O(m·n log n) ranking instead of O(m²·n log n). A column with
        // NaNs keeps `None` here and its pairs fall back to the per-pair
        // path, which re-ranks over each pair's complete subset (the
        // two paths only coincide when nothing is dropped).
        let col_ranks: Vec<Option<Vec<f64>>> = if method == CorrMethod::Spearman {
            columns
                .iter()
                .map(|(_, v)| (!v.iter().any(|x| x.is_nan())).then(|| ranks(v)))
                .collect()
        } else {
            Vec::new()
        };
        let mut cells = vec![None; m * m];
        for i in 0..m {
            // Each pair costs O(n) .. O(n log n); the row boundary is the
            // natural poll point for cooperative interruption on wide frames.
            // Remaining cells stay `None` — the bailed result is discarded
            // by the governed scheduler.
            if crate::interrupt::interrupted() {
                break;
            }
            cells[i * m + i] = Some(1.0);
            for j in (i + 1)..m {
                let r = match method {
                    CorrMethod::Spearman => match (&col_ranks[i], &col_ranks[j]) {
                        (Some(ri), Some(rj)) => spearman_from_ranks(ri, rj),
                        _ => method.compute(&columns[i].1, &columns[j].1),
                    },
                    _ => method.compute(&columns[i].1, &columns[j].1),
                };
                cells[i * m + j] = r;
                cells[j * m + i] = r;
            }
        }
        CorrMatrix {
            labels: columns.iter().map(|(n, _)| n.clone()).collect(),
            method,
            cells,
        }
    }

    /// Matrix dimension.
    pub fn size(&self) -> usize {
        self.labels.len()
    }

    /// Cell `(i, j)`.
    pub fn get(&self, i: usize, j: usize) -> Option<f64> {
        self.cells[i * self.size() + j]
    }

    /// Cell by label pair. Outer `None` when a label is unknown; inner
    /// `None` when the coefficient is undefined.
    pub fn get_by_name(&self, a: &str, b: &str) -> Option<Option<f64>> {
        let i = self.labels.iter().position(|l| l == a)?;
        let j = self.labels.iter().position(|l| l == b)?;
        Some(self.get(i, j))
    }

    /// The one-vs-rest correlation vector for a label (self excluded),
    /// as `(other_label, value)` pairs in matrix order.
    pub fn vector_for(&self, label: &str) -> Option<Vec<(String, Option<f64>)>> {
        let i = self.labels.iter().position(|l| l == label)?;
        Some(
            self.labels
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(j, l)| (l.clone(), self.get(i, j)))
                .collect(),
        )
    }

    /// Off-diagonal pairs with `|r| >= threshold`, sorted by descending |r|.
    pub fn strong_pairs(&self, threshold: f64) -> Vec<(String, String, f64)> {
        let m = self.size();
        let mut out = Vec::new();
        for i in 0..m {
            for j in (i + 1)..m {
                if let Some(r) = self.get(i, j) {
                    if r.abs() >= threshold {
                        out.push((self.labels[i].clone(), self.labels[j].clone(), r));
                    }
                }
            }
        }
        out.sort_by(|a, b| b.2.abs().total_cmp(&a.2.abs()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn columns() -> Vec<(String, Vec<f64>)> {
        let x: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| 2.0 * v + 1.0).collect(); // r = 1 with x
        let z: Vec<f64> = x.iter().map(|v| -v).collect(); // r = -1 with x
        let noise: Vec<f64> = (0..50).map(|i| ((i * 83 + 19) % 47) as f64).collect();
        vec![
            ("x".into(), x),
            ("y".into(), y),
            ("z".into(), z),
            ("noise".into(), noise),
        ]
    }

    #[test]
    fn diagonal_is_one() {
        let m = CorrMatrix::compute(&columns(), CorrMethod::Pearson);
        for i in 0..m.size() {
            assert_eq!(m.get(i, i), Some(1.0));
        }
    }

    #[test]
    fn symmetric() {
        let m = CorrMatrix::compute(&columns(), CorrMethod::Spearman);
        for i in 0..m.size() {
            for j in 0..m.size() {
                assert_eq!(m.get(i, j), m.get(j, i));
            }
        }
    }

    #[test]
    fn known_relationships() {
        let m = CorrMatrix::compute(&columns(), CorrMethod::Pearson);
        assert!((m.get_by_name("x", "y").unwrap().unwrap() - 1.0).abs() < 1e-12);
        assert!((m.get_by_name("x", "z").unwrap().unwrap() + 1.0).abs() < 1e-12);
        assert!(m.get_by_name("x", "noise").unwrap().unwrap().abs() < 0.5);
    }

    #[test]
    fn constant_column_yields_none_cells() {
        let cols = vec![
            ("a".into(), vec![1.0, 2.0, 3.0]),
            ("const".into(), vec![7.0, 7.0, 7.0]),
        ];
        let m = CorrMatrix::compute(&cols, CorrMethod::Pearson);
        assert_eq!(m.get_by_name("a", "const").unwrap(), None);
        assert_eq!(m.get_by_name("const", "const").unwrap(), Some(1.0));
    }

    #[test]
    fn vector_for_excludes_self() {
        let m = CorrMatrix::compute(&columns(), CorrMethod::Pearson);
        let v = m.vector_for("x").unwrap();
        assert_eq!(v.len(), 3);
        assert!(v.iter().all(|(l, _)| l != "x"));
        assert!(m.vector_for("missing").is_none());
    }

    #[test]
    fn strong_pairs_sorted_by_abs() {
        let m = CorrMatrix::compute(&columns(), CorrMethod::Pearson);
        let pairs = m.strong_pairs(0.9);
        // x~y, x~z, y~z all have |r| = 1.
        assert_eq!(pairs.len(), 3);
        assert!(pairs.iter().all(|(_, _, r)| r.abs() >= 0.9));
    }

    #[test]
    fn kendall_matrix_smoke() {
        let m = CorrMatrix::compute(&columns(), CorrMethod::KendallTau);
        assert!((m.get_by_name("x", "y").unwrap().unwrap() - 1.0).abs() < 1e-12);
        assert!((m.get_by_name("x", "z").unwrap().unwrap() + 1.0).abs() < 1e-12);
    }
}
