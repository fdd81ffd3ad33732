//! Synthetic clones of the paper's 15 Kaggle datasets (Table 2).
//!
//! Shapes (#rows, #numeric/#categorical columns) are copied from the
//! table itself; cardinalities and missing rates follow the well-known
//! character of each dataset (e.g. `titanic` has a heavily-missing age
//! column, `rain` is missing-rich, `hotel` has many categoricals).

use crate::spec::quick::*;
use crate::spec::{ColumnSpec, DatasetSpec};

/// Build a spec with `n_num` numeric and `n_cat` categorical columns,
/// varying distribution families and cardinalities deterministically.
fn shaped(
    name: &str,
    rows: usize,
    n_num: usize,
    n_cat: usize,
    missing_rate: f64,
    max_cardinality: usize,
) -> DatasetSpec {
    let mut columns: Vec<ColumnSpec> = Vec::with_capacity(n_num + n_cat);
    for i in 0..n_num {
        // Rotate distribution families so datasets exercise all kernels.
        let missing = if i % 3 == 0 { missing_rate } else { 0.0 };
        columns.push(match i % 4 {
            0 => normal(&format!("num{i}"), 50.0 * (i + 1) as f64, 10.0, missing),
            1 => lognormal(&format!("num{i}"), 2.0, 0.8, missing),
            2 => uniform(&format!("num{i}"), 0.0, 1000.0, missing),
            _ => ints(&format!("num{i}"), 0, 5000, missing),
        });
    }
    for i in 0..n_cat {
        let missing = if i % 4 == 1 { missing_rate } else { 0.0 };
        let cardinality = [3, 8, 25, max_cardinality][i % 4].max(2);
        if i % 5 == 4 {
            columns.push(text(&format!("cat{i}"), 4, 200, missing));
        } else {
            columns.push(cat(&format!("cat{i}"), cardinality, missing));
        }
    }
    DatasetSpec { name: name.into(), rows, columns }
}

/// The 15 dataset shapes of the paper's Table 2, in table order.
pub fn kaggle_specs() -> Vec<DatasetSpec> {
    vec![
        shaped("heart", 303, 14, 0, 0.01, 10),
        shaped("diabetes", 768, 9, 0, 0.0, 10),
        shaped("automobile", 205, 10, 16, 0.05, 30),
        shaped("titanic", 891, 7, 5, 0.20, 100),
        shaped("women", 8_553, 5, 5, 0.05, 60),
        shaped("credit", 30_000, 25, 0, 0.0, 10),
        shaped("solar", 33_000, 7, 4, 0.02, 20),
        shaped("suicide", 28_000, 6, 6, 0.03, 100),
        shaped("diamonds", 54_000, 8, 3, 0.0, 8),
        shaped("chess", 20_000, 6, 10, 0.02, 400),
        shaped("adult", 49_000, 6, 9, 0.02, 40),
        shaped("basketball", 53_000, 21, 10, 0.05, 300),
        shaped("conflicts", 34_000, 10, 15, 0.10, 200),
        shaped("rain", 142_000, 17, 7, 0.15, 50),
        shaped("hotel", 119_000, 20, 12, 0.08, 180),
    ]
}

/// Look up one of the Table 2 specs by name.
pub fn kaggle_spec_by_name(name: &str) -> Option<DatasetSpec> {
    kaggle_specs().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The (rows, numeric, categorical) shape for each dataset as printed
    /// in the paper's Table 2.
    const TABLE2: &[(&str, usize, usize, usize)] = &[
        ("heart", 303, 14, 0),
        ("diabetes", 768, 9, 0),
        ("automobile", 205, 10, 16),
        ("titanic", 891, 7, 5),
        ("women", 8_553, 5, 5),
        ("credit", 30_000, 25, 0),
        ("solar", 33_000, 7, 4),
        ("suicide", 28_000, 6, 6),
        ("diamonds", 54_000, 8, 3),
        ("chess", 20_000, 6, 10),
        ("adult", 49_000, 6, 9),
        ("basketball", 53_000, 21, 10),
        ("conflicts", 34_000, 10, 15),
        ("rain", 142_000, 17, 7),
        ("hotel", 119_000, 20, 12),
    ];

    #[test]
    fn fifteen_datasets_matching_table2_shapes() {
        let specs = kaggle_specs();
        assert_eq!(specs.len(), 15);
        for ((name, rows, n, c), spec) in TABLE2.iter().zip(&specs) {
            assert_eq!(&spec.name, name);
            assert_eq!(spec.rows, *rows, "{name} rows");
            assert_eq!(spec.nc_split(), (*n, *c), "{name} N/C split");
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(kaggle_spec_by_name("titanic").is_some());
        assert!(kaggle_spec_by_name("nonexistent").is_none());
    }

    #[test]
    fn generated_titanic_has_missing_values() {
        let spec = kaggle_spec_by_name("titanic").unwrap();
        let df = crate::generate(&spec, 1);
        assert!(df.iter().map(|(_, c)| c.null_count()).sum::<usize>() > 0);
        assert_eq!(df.nrows(), 891);
        assert_eq!(df.ncols(), 12);
    }

    #[test]
    fn column_names_unique_in_all_specs() {
        for spec in kaggle_specs() {
            let mut names: Vec<&str> = spec.columns.iter().map(|c| c.name.as_str()).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), spec.columns.len(), "{}", spec.name);
        }
    }
}
