//! Semantic type detection.
//!
//! Plot functions behave differently for *numerical* and *categorical*
//! columns (paper Figure 2). Physical storage type is a strong hint but
//! not the whole story: an integer column with a handful of distinct
//! values (a rating of 1–5, an encoded label) reads as categorical. The
//! detection rule matches Pandas-profiling's behaviour, which the paper's
//! comparisons assume: strings and booleans are categorical; numerics are
//! numerical unless their distinct-value count is tiny.

use eda_dataframe::{Column, DataType};

/// How a column participates in EDA tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SemanticType {
    /// Continuous/quantitative: histogram, KDE, Q-Q, correlations, ...
    Numerical,
    /// Discrete/qualitative: bar chart, pie chart, word statistics, ...
    Categorical,
}

impl SemanticType {
    /// Single-letter code used in mapping-rule descriptions (`N`/`C`).
    pub fn code(self) -> char {
        match self {
            SemanticType::Numerical => 'N',
            SemanticType::Categorical => 'C',
        }
    }
}

impl std::fmt::Display for SemanticType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SemanticType::Numerical => f.write_str("Numerical"),
            SemanticType::Categorical => f.write_str("Categorical"),
        }
    }
}

/// Detect the semantic type of a column.
///
/// `low_cardinality_threshold` is the largest distinct count an integer
/// column may have and still be treated as categorical (the config default
/// is 10, see [`crate::config::TypeDetectionConfig::low_cardinality`]). Floats always
/// read as numerical — fractional values are never category codes.
pub fn detect(column: &Column, low_cardinality_threshold: usize) -> SemanticType {
    match column.dtype() {
        DataType::Str | DataType::Bool => SemanticType::Categorical,
        DataType::Float64 => SemanticType::Numerical,
        DataType::Int64 => {
            if distinct_at_most(column, low_cardinality_threshold) {
                SemanticType::Categorical
            } else {
                SemanticType::Numerical
            }
        }
    }
}

/// Early-exit distinct counter: true when the column has at most `k`
/// distinct non-null values. Scans at most until the `k+1`-th distinct
/// value, so wide-cardinality columns bail out quickly.
fn distinct_at_most(column: &Column, k: usize) -> bool {
    let mut seen: Vec<i64> = Vec::with_capacity(k + 1);
    let Ok(iter) = column.numeric_iter() else { return false };
    for v in iter.flatten() {
        let as_int = v as i64;
        if !seen.contains(&as_int) {
            seen.push(as_int);
            if seen.len() > k {
                return false;
            }
        }
    }
    !seen.is_empty() || column.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_bools_are_categorical() {
        assert_eq!(
            detect(&Column::from_strs(&["a", "b"]), 10),
            SemanticType::Categorical
        );
        assert_eq!(
            detect(&Column::from_bool(vec![true, false]), 10),
            SemanticType::Categorical
        );
    }

    #[test]
    fn floats_are_numerical() {
        assert_eq!(
            detect(&Column::from_f64(vec![1.0, 1.0, 1.0]), 10),
            SemanticType::Numerical
        );
    }

    #[test]
    fn wide_integers_are_numerical() {
        let c = Column::from_i64((0..100).collect());
        assert_eq!(detect(&c, 10), SemanticType::Numerical);
    }

    #[test]
    fn low_cardinality_integers_are_categorical() {
        let c = Column::from_i64((0..100).map(|i| i % 4).collect());
        assert_eq!(detect(&c, 10), SemanticType::Categorical);
        // Threshold is inclusive.
        let c10 = Column::from_i64((0..100).map(|i| i % 10).collect());
        assert_eq!(detect(&c10, 10), SemanticType::Categorical);
        let c11 = Column::from_i64((0..110).map(|i| i % 11).collect());
        assert_eq!(detect(&c11, 10), SemanticType::Numerical);
    }

    #[test]
    fn threshold_zero_forces_numerical() {
        let c = Column::from_i64(vec![1, 1, 1]);
        assert_eq!(detect(&c, 0), SemanticType::Numerical);
    }

    #[test]
    fn nulls_ignored_in_cardinality() {
        let c = Column::from_opt_i64(vec![Some(1), None, Some(2), None, Some(1)]);
        assert_eq!(detect(&c, 10), SemanticType::Categorical);
    }

    #[test]
    fn empty_integer_column_is_categorical() {
        // Nothing to measure; treat as categorical like an empty string col.
        let c = Column::from_i64(vec![]);
        assert_eq!(detect(&c, 10), SemanticType::Categorical);
    }

    #[test]
    fn codes_and_display() {
        assert_eq!(SemanticType::Numerical.code(), 'N');
        assert_eq!(SemanticType::Categorical.code(), 'C');
        assert_eq!(SemanticType::Numerical.to_string(), "Numerical");
    }
}
