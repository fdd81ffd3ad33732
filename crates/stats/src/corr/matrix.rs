//! Correlation matrices over named column sets.

use eda_dataframe::HeapSize;

use super::prep::upper_triangle;
use super::CorrMethod;

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
    /// Build the symmetric matrix from its upper-triangle cells in
    /// [`upper_triangle`] order (missing trailing cells are `None`); the
    /// diagonal is 1.
    pub fn from_upper(
        labels: Vec<String>,
        method: CorrMethod,
        upper: impl IntoIterator<Item = Option<f64>>,
    ) -> CorrMatrix {
        let m = labels.len();
        let mut cells = vec![None; m * m];
        let mut set = |i: usize, j: usize, r: Option<f64>| {
            if let Some(c) = cells.get_mut(i * m + j) {
                *c = r;
            }
        };
        (0..m).for_each(|i| set(i, i, Some(1.0)));
        upper_triangle(m).into_iter().zip(upper).for_each(|((i, j), r)| {
            set(i, j, r);
            set(j, i, r);
        });
        CorrMatrix { labels, method, cells }
    }

    /// Matrix dimension.
    pub fn size(&self) -> usize {
        self.labels.len()
    }

    /// Cell `(i, j)`; `None` outside the matrix, as for an undefined
    /// coefficient.
    pub fn get(&self, i: usize, j: usize) -> Option<f64> {
        self.cells.get(i * self.size() + j).copied().flatten()
    }

    /// Cell by label pair. Outer `None` when a label is unknown; inner
    /// `None` when the coefficient is undefined.
    #[cfg(test)]
    pub fn get_by_name(&self, a: &str, b: &str) -> Option<Option<f64>> {
        let i = self.labels.iter().position(|l| l == a)?;
        let j = self.labels.iter().position(|l| l == b)?;
        Some(self.get(i, j))
    }

    /// The one-vs-rest correlation vector for a label (self excluded),
    /// as `(other_label, value)` pairs in matrix order.
    #[cfg(test)]
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
        let mut out = Vec::new();
        for (i, a) in self.labels.iter().enumerate() {
            for (j, b) in self.labels.iter().enumerate().skip(i + 1) {
                if let Some(r) = self.get(i, j) {
                    if r.abs() >= threshold {
                        out.push((a.clone(), b.clone(), r));
                    }
                }
            }
        }
        out.sort_by(|a, b| b.2.abs().total_cmp(&a.2.abs()));
        out
    }
}

impl HeapSize for CorrMatrix {
    fn heap_bytes(&self) -> usize {
        self.labels.heap_bytes() + self.cells.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One pair kernel call per cell.
    fn matrix(columns: &[(String, Vec<f64>)], method: CorrMethod) -> CorrMatrix {
        let labels = columns.iter().map(|(n, _)| n.clone()).collect();
        let cell = |(i, j): (usize, usize)| method.compute(&columns[i].1, &columns[j].1);
        CorrMatrix::from_upper(labels, method, upper_triangle(columns.len()).into_iter().map(cell))
    }

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
        let m = matrix(&columns(), CorrMethod::Pearson);
        for i in 0..m.size() {
            assert_eq!(m.get(i, i), Some(1.0));
        }
    }

    #[test]
    fn symmetric() {
        let m = matrix(&columns(), CorrMethod::Spearman);
        for i in 0..m.size() {
            for j in 0..m.size() {
                assert_eq!(m.get(i, j), m.get(j, i));
            }
        }
    }

    #[test]
    fn known_relationships() {
        let m = matrix(&columns(), CorrMethod::Pearson);
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
        let m = matrix(&cols, CorrMethod::Pearson);
        assert_eq!(m.get_by_name("a", "const").unwrap(), None);
        assert_eq!(m.get_by_name("const", "const").unwrap(), Some(1.0));
    }

    #[test]
    fn vector_for_excludes_self() {
        let m = matrix(&columns(), CorrMethod::Pearson);
        let v = m.vector_for("x").unwrap();
        assert_eq!(v.len(), 3);
        assert!(v.iter().all(|(l, _)| l != "x"));
        assert!(m.vector_for("missing").is_none());
    }

    #[test]
    fn strong_pairs_sorted_by_abs() {
        let m = matrix(&columns(), CorrMethod::Pearson);
        let pairs = m.strong_pairs(0.9);
        // x~y, x~z, y~z all have |r| = 1.
        assert_eq!(pairs.len(), 3);
        assert!(pairs.iter().all(|(_, _, r)| r.abs() >= 0.9));
    }

    #[test]
    fn kendall_matrix_smoke() {
        let m = matrix(&columns(), CorrMethod::KendallTau);
        assert!((m.get_by_name("x", "y").unwrap().unwrap() - 1.0).abs() < 1e-12);
        assert!((m.get_by_name("x", "z").unwrap().unwrap() + 1.0).abs() < 1e-12);
    }
}
