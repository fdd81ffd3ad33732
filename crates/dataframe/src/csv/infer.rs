//! Column type inference.
//!
//! For each column the narrowest type that every sampled non-null field
//! parses as is chosen, in the order bool → i64 → f64 → str. The lattice is
//! a chain, so widening on later contradictions is a single step up.

use crate::builder::{parse_bool, parse_f64, parse_i64};
use crate::dtype::DataType;

/// Whether trimmed text spells null: the built-in lexicon plus
/// caller-supplied extras.
fn spells_null(trimmed: &str, extra: &[String]) -> bool {
    matches!(trimmed, "" | "NA" | "N/A" | "na" | "null" | "NULL" | "None" | "nan" | "NaN")
        || extra.iter().any(|n| n == trimmed)
}

/// Whether a field (after trim) spells null: the built-in lexicon plus
/// caller-supplied extras. Public so the chunked reader in `eda-io`
/// shares the exact null semantics.
pub fn is_null_field(field: &str, extra: &[String]) -> bool {
    spells_null(field.trim(), extra)
}

/// The narrowest type a single field parses as; `None` for a field that
/// spells null under `extra_nulls` ([`is_null_field`]), which therefore
/// never votes on a column's type.
pub fn infer_dtype(field: &str, extra_nulls: &[String]) -> Option<DataType> {
    let t = field.trim();
    if spells_null(t, extra_nulls) {
        return None;
    }
    if parse_bool(t).is_some() {
        Some(DataType::Bool)
    } else if parse_i64(t).is_some() {
        Some(DataType::Int64)
    } else if parse_f64(t).is_some() {
        Some(DataType::Float64)
    } else {
        Some(DataType::Str)
    }
}

/// Join of the widening chain bool → i64 → f64 → str. Public so chunked
/// ingestion can fold per-chunk schemas with the same lattice.
pub fn widen(a: DataType, b: DataType) -> DataType {
    use DataType::*;
    match (a, b) {
        (x, y) if x == y => x,
        (Int64, Float64) | (Float64, Int64) => Float64,
        // bool mixed with anything non-bool, or str with anything: string.
        _ => Str,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::chunk::sample_schema;
    use crate::csv::CsvOptions;

    #[test]
    fn single_field_inference() {
        assert_eq!(infer_dtype("true", &[]), Some(DataType::Bool));
        assert_eq!(infer_dtype("42", &[]), Some(DataType::Int64));
        assert_eq!(infer_dtype("-4.5", &[]), Some(DataType::Float64));
        assert_eq!(infer_dtype("4e3", &[]), Some(DataType::Float64));
        assert_eq!(infer_dtype("hello", &[]), Some(DataType::Str));
        assert_eq!(infer_dtype("", &[]), None);
        assert_eq!(infer_dtype("NA", &[]), None);
        assert_eq!(infer_dtype(" null ", &[]), None);
    }

    #[test]
    fn widening_chain() {
        use DataType::*;
        assert_eq!(widen(Int64, Float64), Float64);
        assert_eq!(widen(Float64, Int64), Float64);
        assert_eq!(widen(Int64, Str), Str);
        assert_eq!(widen(Bool, Int64), Str);
        assert_eq!(widen(Bool, Bool), Bool);
    }

    fn sampled(text: &str) -> Vec<DataType> {
        let opts = CsvOptions { has_header: false, ..CsvOptions::default() };
        sample_schema(text, &opts).unwrap().1
    }

    #[test]
    fn schema_from_rows() {
        assert_eq!(
            sampled("1,x,true,\n2.5,y,false,NA\n"),
            vec![DataType::Float64, DataType::Str, DataType::Bool, DataType::Str]
        );
    }

    #[test]
    fn all_null_column_defaults_to_str() {
        assert_eq!(sampled("\nNA\n"), vec![DataType::Str]);
    }

    #[test]
    fn custom_null_lexicon() {
        let dash = ["-".to_string()];
        assert!(is_null_field("-", &dash));
        assert!(!is_null_field("-", &[]));
        assert_eq!(infer_dtype(" - ", &dash), None);
        assert_eq!(infer_dtype("-", &[]), Some(DataType::Str));
    }
}
