//! Missing-value analysis kernels.
//!
//! `plot_missing(df)` (paper Figure 2, row 8) shows four views of nullity:
//! a per-column bar chart, a *missing spectrum* (which row ranges are
//! missing-heavy), a nullity correlation heatmap, and a dendrogram grouping
//! columns by co-missingness. All four are computed from integer counts
//! ([`NullCounts`]: nulls per column, per column pair and per row bin) —
//! small aggregates the partition phase sums up from validity bitmaps, so
//! no row-length indicator vector exists anywhere. The crate stays
//! independent of the dataframe crate: whoever owns the bitmaps counts.

use crate::vector::phi;

/// Per-column missing-rate summary for the bar chart.
#[derive(Debug, Clone, PartialEq)]
pub struct MissingSummary {
    /// Column label.
    pub label: String,
    /// Null count.
    pub nulls: usize,
    /// Total rows.
    pub total: usize,
}

impl MissingSummary {
    /// Fraction of rows missing.
    pub fn rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.nulls as f64 / self.total as f64
        }
    }
}

/// The missing spectrum: row-bin × column missing counts.
///
/// Rows are grouped into `bins` contiguous ranges; each cell counts the
/// nulls of one column within one range, which visualizes *where* in the
/// file the missing values cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct MissingSpectrum {
    /// Column labels.
    pub labels: Vec<String>,
    /// Half-open row ranges, one per bin.
    pub row_ranges: Vec<(usize, usize)>,
    /// `bins × columns` null counts, row-major by bin.
    pub counts: Vec<Vec<usize>>,
}

/// The spectrum's row ranges: `nrows` rows cut into at most `bins`
/// contiguous ranges of equal length (the last may be shorter). An empty
/// frame gets the single range `(0, 0)`.
pub fn spectrum_ranges(nrows: usize, bins: usize) -> Vec<(usize, usize)> {
    if nrows == 0 {
        return vec![(0, 0)];
    }
    let chunk = nrows.div_ceil(bins.clamp(1, nrows));
    (0..nrows).step_by(chunk).map(|start| (start, (start + chunk).min(nrows))).collect()
}

/// Integer nullity aggregates of a frame, or of one row range of it:
/// everything the four `plot_missing(df)` views are computed from.
/// Counts of disjoint row ranges add up ([`NullCounts::merge`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NullCounts {
    /// Rows counted.
    pub rows: usize,
    /// Nulls per column.
    pub nulls: Vec<usize>,
    /// Rows where both columns of a pair are null, one entry per pair in
    /// [`crate::corr::upper_triangle`] order.
    pub co_nulls: Vec<usize>,
    /// Nulls per spectrum bin and column (`bins × columns`).
    pub bin_nulls: Vec<Vec<usize>>,
}

impl NullCounts {
    /// Add the counts of another row range of the same frame.
    pub fn merge(&mut self, other: &NullCounts) {
        fn add(into: &mut [usize], from: &[usize]) {
            for (a, b) in into.iter_mut().zip(from) {
                *a += b;
            }
        }
        self.rows += other.rows;
        add(&mut self.nulls, &other.nulls);
        add(&mut self.co_nulls, &other.co_nulls);
        for (a, b) in self.bin_nulls.iter_mut().zip(&other.bin_nulls) {
            add(a, b);
        }
    }

    /// Nullity correlation matrix: Pearson correlation between the null
    /// indicators of column pairs (the Missingno heatmap), as the φ
    /// coefficient of their counts.
    ///
    /// Columns with no nulls (or all nulls) have undefined correlation and
    /// yield `None` cells.
    pub fn correlation(&self) -> Vec<Vec<Option<f64>>> {
        let rows = self.rows as u64;
        let m = self.nulls.len();
        let mut out = vec![vec![None; m]; m];
        for ((i, j), r) in self.pairs().map(|(at, na, nb, nab)| (at, phi(rows, na, nb, nab))) {
            set_both(&mut out, i, j, r);
        }
        for (i, row) in out.iter_mut().enumerate() {
            if let Some(cell) = row.get_mut(i) {
                *cell = Some(1.0);
            }
        }
        out
    }

    /// Agglomerative clustering (average linkage) of columns by nullity
    /// pattern distance: the fraction of rows where two columns' null
    /// indicators disagree (normalized Hamming distance), which is
    /// `nulls(a) + nulls(b) − 2·co_nulls(a, b)` over the row count.
    pub fn dendrogram(&self) -> Vec<DendrogramMerge> {
        let rows = self.rows.max(1) as f64;
        let m = self.nulls.len();
        let mut distances = vec![vec![0.0; m]; m];
        for ((i, j), na, nb, nab) in self.pairs() {
            set_both(&mut distances, i, j, (na + nb - 2 * nab) as f64 / rows);
        }
        average_linkage(&distances)
    }

    /// `((i, j), nulls(i), nulls(j), co_nulls(i, j))` for every pair.
    fn pairs(&self) -> impl Iterator<Item = ((usize, usize), u64, u64, u64)> + '_ {
        let nulls = |i: usize| self.nulls.get(i).copied().unwrap_or(0) as u64;
        crate::corr::upper_triangle(self.nulls.len())
            .into_iter()
            .zip(&self.co_nulls)
            .map(move |((i, j), &both)| ((i, j), nulls(i), nulls(j), both as u64))
    }
}

fn set_both<T: Copy>(matrix: &mut [Vec<T>], i: usize, j: usize, value: T) {
    for (r, c) in [(i, j), (j, i)] {
        if let Some(cell) = matrix.get_mut(r).and_then(|row| row.get_mut(c)) {
            *cell = value;
        }
    }
}

/// One merge step of the dendrogram: clusters `a` and `b` joined at
/// `distance`, forming cluster `a.min(b)`'s successor.
#[derive(Debug, Clone, PartialEq)]
pub struct DendrogramMerge {
    /// Index of the first merged cluster (column index or earlier merge id).
    pub left: usize,
    /// Index of the second merged cluster.
    pub right: usize,
    /// Join distance.
    pub distance: f64,
    /// Number of leaves under the new cluster.
    pub size: usize,
}

/// Agglomerative clustering with average linkage over a symmetric leaf
/// distance matrix. Merge ids follow the SciPy convention: leaves are
/// `0..m`, the `k`-th merge creates id `m+k`.
pub fn average_linkage(distances: &[Vec<f64>]) -> Vec<DendrogramMerge> {
    let m = distances.len();
    if m < 2 {
        return Vec::new();
    }
    let leaf_distance =
        |i: usize, j: usize| distances.get(i).and_then(|row| row.get(j)).copied().unwrap_or(0.0);
    let avg_dist = |a: &[usize], b: &[usize]| -> f64 {
        let mut sum = 0.0;
        for &i in a {
            for &j in b {
                sum += leaf_distance(i, j);
            }
        }
        sum / (a.len() * b.len()) as f64
    };

    // Active clusters hold their leaf sets; merged ones become `None`.
    let mut clusters: Vec<Option<Vec<usize>>> = (0..m).map(|i| Some(vec![i])).collect();
    let mut merges = Vec::with_capacity(m - 1);
    for _ in 0..(m - 1) {
        // Find the closest active pair (deterministic tie-break by index).
        let mut best: Option<(usize, usize, f64)> = None;
        for (i, a) in clusters.iter().enumerate() {
            let Some(a) = a else { continue };
            for (j, b) in clusters.iter().enumerate().skip(i + 1) {
                let Some(b) = b else { continue };
                let d = avg_dist(a, b);
                if best.is_none_or(|(_, _, bd)| d < bd) {
                    best = Some((i, j, d));
                }
            }
        }
        // `m - 1` merge rounds over `m` initial clusters always leave an
        // active pair; if that invariant ever breaks, stop merging early
        // (a truncated dendrogram) rather than panic mid-report.
        let Some((i, j, distance)) = best else { break };
        let take = |clusters: &mut Vec<Option<Vec<usize>>>, at: usize| {
            clusters.get_mut(at).and_then(Option::take)
        };
        let (Some(mut merged), Some(b)) = (take(&mut clusters, i), take(&mut clusters, j)) else {
            break;
        };
        merged.extend(b);
        // Cluster slot `k` holds leaf `k` for `k < m` and merge `k - m`
        // after: slot index and SciPy id coincide.
        merges.push(DendrogramMerge { left: i, right: j, distance, size: merged.len() });
        clusters.push(Some(merged));
    }
    merges
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts of `0`/`1` null-pattern strings, one per column, with
    /// `bins` spectrum bins — what the partition phase computes from
    /// validity bitmaps.
    fn counts(patterns: &[&str], bins: usize) -> NullCounts {
        let cols: Vec<Vec<bool>> =
            patterns.iter().map(|p| p.chars().map(|c| c == '1').collect()).collect();
        let rows = cols.first().map_or(0, Vec::len);
        let count = |v: &mut dyn Iterator<Item = bool>| v.filter(|&b| b).count();
        NullCounts {
            rows,
            nulls: cols.iter().map(|c| count(&mut c.iter().copied())).collect(),
            co_nulls: crate::corr::upper_triangle(cols.len())
                .into_iter()
                .map(|(i, j)| count(&mut cols[i].iter().zip(&cols[j]).map(|(a, b)| *a && *b)))
                .collect(),
            bin_nulls: spectrum_ranges(rows, bins)
                .into_iter()
                .map(|(s, e)| cols.iter().map(|c| count(&mut c[s..e].iter().copied())).collect())
                .collect(),
        }
    }

    #[test]
    fn summary_rate() {
        let s = MissingSummary { label: "a".into(), nulls: 3, total: 12 };
        assert!((s.rate() - 0.25).abs() < 1e-12);
        let z = MissingSummary { label: "b".into(), nulls: 0, total: 0 };
        assert_eq!(z.rate(), 0.0);
    }

    #[test]
    fn spectrum_ranges_cover_the_rows() {
        assert_eq!(spectrum_ranges(8, 2), vec![(0, 4), (4, 8)]);
        // More bins than rows: one row per bin.
        assert_eq!(spectrum_ranges(2, 10), vec![(0, 1), (1, 2)]);
        assert_eq!(spectrum_ranges(10, 3), vec![(0, 4), (4, 8), (8, 10)]);
        assert_eq!(spectrum_ranges(0, 4), vec![(0, 0)]);
        assert_eq!(spectrum_ranges(5, 0), vec![(0, 5)]);
    }

    #[test]
    fn merge_adds_disjoint_row_ranges() {
        let whole = counts(&["11001100", "10101010", "00000000"], 2);
        let mut left = counts(&["1100", "1010", "0000"], 1);
        let mut right = counts(&["1100", "1010", "0000"], 1);
        // Each half fills its own spectrum bin of the whole frame.
        left.bin_nulls.push(vec![0; 3]);
        right.bin_nulls.insert(0, vec![0; 3]);
        left.merge(&right);
        assert_eq!(left, whole);
    }

    #[test]
    fn nullity_corr_detects_co_missingness() {
        let m = counts(
            &[
                "11001100",
                "11001100", // identical pattern: r = 1
                "00110011", // inverted: r = -1
                "00000000", // no nulls: undefined
            ],
            1,
        )
        .correlation();
        assert!((m[0][1].unwrap() - 1.0).abs() < 1e-12);
        assert!((m[0][2].unwrap() + 1.0).abs() < 1e-12);
        assert_eq!(m[0][3], None);
        assert_eq!(m[3][3], Some(1.0));
        assert_eq!(m[1][0], m[0][1]);
    }

    #[test]
    fn dendrogram_merges_similar_columns_first() {
        let merges = counts(
            &[
                "11110000", "11100000", // distance 1/8 to the first
                "00001111", // far from both
            ],
            1,
        )
        .dendrogram();
        assert_eq!(merges.len(), 2);
        // First merge is a+b (leaves 0 and 1).
        assert_eq!((merges[0].left, merges[0].right), (0, 1));
        assert!((merges[0].distance - 0.125).abs() < 1e-12);
        assert_eq!(merges[0].size, 2);
        // Second merge joins leaf 2 with cluster id 3 (= m + 0).
        assert_eq!(merges[1].right, 3);
        assert_eq!(merges[1].left, 2);
        assert_eq!(merges[1].size, 3);
    }

    #[test]
    fn dendrogram_degenerate() {
        assert!(counts(&[], 1).dendrogram().is_empty());
        assert!(counts(&["10"], 1).dendrogram().is_empty());
        assert!(average_linkage(&[]).is_empty());
    }

    #[test]
    fn dendrogram_identical_columns_distance_zero() {
        let merges = counts(&["1010", "1010"], 1).dendrogram();
        assert_eq!(merges[0].distance, 0.0);
    }
}
