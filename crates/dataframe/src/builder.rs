//! Incremental column builders.
//!
//! Builders let the CSV reader (and data generators) append values one at a
//! time without knowing the final length, then freeze into an immutable
//! [`Column`]. Each builder tracks nullity lazily: appending a value
//! touches no bitmap, a null only notes its row, and the bitmap is built
//! once, at the end, when there was at least one null.

use std::sync::Arc;

use crate::bitmap::Bitmap;
use crate::column::Column;
use crate::dict::DictBuilder;
use crate::dtype::DataType;

/// Common interface over the typed builders, used by the CSV reader which
/// decides types at runtime.
pub enum ColumnBuilder {
    /// Builds a float column.
    F64(F64Builder),
    /// Builds an integer column.
    I64(I64Builder),
    /// Builds a string column.
    Str(StrBuilder),
    /// Builds a boolean column.
    Bool(BoolBuilder),
}

impl ColumnBuilder {
    /// A builder for the given physical type.
    pub fn for_dtype(dtype: DataType) -> Self {
        match dtype {
            DataType::Float64 => ColumnBuilder::F64(F64Builder::new()),
            DataType::Int64 => ColumnBuilder::I64(I64Builder::new()),
            DataType::Str => ColumnBuilder::Str(StrBuilder::new()),
            DataType::Bool => ColumnBuilder::Bool(BoolBuilder::new()),
        }
    }

    /// Number of values appended so far.
    pub fn len(&self) -> usize {
        match self {
            ColumnBuilder::F64(b) => b.len(),
            ColumnBuilder::I64(b) => b.len(),
            ColumnBuilder::Str(b) => b.len(),
            ColumnBuilder::Bool(b) => b.len(),
        }
    }

    /// Whether no values have been appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append a null.
    pub fn push_null(&mut self) {
        match self {
            ColumnBuilder::F64(b) => b.push_null(),
            ColumnBuilder::I64(b) => b.push_null(),
            ColumnBuilder::Str(b) => b.push_null(),
            ColumnBuilder::Bool(b) => b.push_null(),
        }
    }

    /// Parse and append a raw text field. Returns `false` when the field
    /// does not parse as this builder's type (the caller then widens).
    pub fn push_parsed(&mut self, field: &str) -> bool {
        match self {
            ColumnBuilder::F64(b) => match parse_f64(field) {
                Some(v) => {
                    b.push(v);
                    true
                }
                None => false,
            },
            ColumnBuilder::I64(b) => match parse_i64(field.trim()) {
                Some(v) => {
                    b.push(v);
                    true
                }
                None => false,
            },
            ColumnBuilder::Str(b) => {
                b.push(field);
                true
            }
            ColumnBuilder::Bool(b) => match parse_bool(field) {
                Some(v) => {
                    b.push(v);
                    true
                }
                None => false,
            },
        }
    }

    /// Append `field` when it spells a number of this builder's type as
    /// it stands — untrimmed, not NaN, and not an integer `-0` (whose
    /// sign only a float keeps, so the caller's slower path notes it).
    /// `false`, with nothing appended, for anything else: every null
    /// spelling of the built-in lexicon, whose only numbers are `nan` and
    /// `NaN`, lands there, so a caller may try this before its null check
    /// when it has no extra null spellings.
    pub(crate) fn push_number(&mut self, field: &str) -> bool {
        match self {
            ColumnBuilder::F64(b) => match field.parse::<f64>() {
                Ok(v) if !v.is_nan() => {
                    b.push(v);
                    true
                }
                _ => false,
            },
            ColumnBuilder::I64(b) => match parse_i64(field) {
                Some(v) if v != 0 || !field.starts_with('-') => {
                    b.push(v);
                    true
                }
                _ => false,
            },
            ColumnBuilder::Str(_) | ColumnBuilder::Bool(_) => false,
        }
    }

    /// Freeze into an immutable column.
    pub fn finish(self) -> Column {
        match self {
            ColumnBuilder::F64(b) => b.finish(),
            ColumnBuilder::I64(b) => b.finish(),
            ColumnBuilder::Str(b) => b.finish(),
            ColumnBuilder::Bool(b) => b.finish(),
        }
    }
}

/// Parse a float field, accepting common CSV spellings.
pub(crate) fn parse_f64(field: &str) -> Option<f64> {
    field.trim().parse::<f64>().ok()
}

/// Parse an integer field exactly as `str::parse::<i64>` does. Up to 18
/// ASCII digits after an optional sign cannot overflow, so they are
/// folded directly; anything else goes to std.
pub(crate) fn parse_i64(field: &str) -> Option<i64> {
    let (negative, digits) = match field.as_bytes() {
        [b'-', digits @ ..] => (true, digits),
        [b'+', digits @ ..] => (false, digits),
        digits => (false, digits),
    };
    if !(1..=18).contains(&digits.len()) || !digits.iter().all(u8::is_ascii_digit) {
        return field.parse().ok();
    }
    let magnitude = digits.iter().fold(0i64, |acc, &d| acc * 10 + i64::from(d - b'0'));
    Some(if negative { -magnitude } else { magnitude })
}

/// Parse a boolean field, accepting `true/false` in any case.
pub(crate) fn parse_bool(field: &str) -> Option<bool> {
    match field.trim() {
        "true" | "True" | "TRUE" => Some(true),
        "false" | "False" | "FALSE" => Some(false),
        _ => None,
    }
}

/// The validity of `len` rows of which `nulls` are null: no bitmap at all
/// without a null.
fn validity_from_nulls(len: usize, nulls: &[usize]) -> Option<Bitmap> {
    if nulls.is_empty() {
        return None;
    }
    let mut validity = Bitmap::filled(len, true);
    for &row in nulls {
        validity.set(row, false);
    }
    Some(validity)
}

macro_rules! typed_builder {
    ($name:ident, $t:ty, $default:expr, $variant:ident, $doc:literal) => {
        #[doc = $doc]
        #[derive(Debug, Default)]
        pub struct $name {
            values: Vec<$t>,
            /// Rows that hold a null, ascending.
            nulls: Vec<usize>,
        }

        impl $name {
            /// An empty builder.
            pub fn new() -> Self {
                Self::default()
            }

            /// An empty builder with reserved capacity.
            pub fn with_capacity(cap: usize) -> Self {
                $name { values: Vec::with_capacity(cap), nulls: Vec::new() }
            }

            /// Number of values appended so far.
            pub fn len(&self) -> usize {
                self.values.len()
            }

            /// Whether no values have been appended.
            pub fn is_empty(&self) -> bool {
                self.values.is_empty()
            }

            /// Append a value.
            pub fn push(&mut self, v: $t) {
                self.values.push(v);
            }

            /// Append a null.
            pub fn push_null(&mut self) {
                self.nulls.push(self.values.len());
                self.values.push($default);
            }

            /// Append an optional value.
            #[cfg(test)]
            pub fn push_opt(&mut self, value: Option<$t>) {
                match value {
                    Some(v) => self.push(v),
                    None => self.push_null(),
                }
            }

            /// Freeze into an immutable column. Hands the packed values
            /// and the lazily built bitmap straight to the column — no
            /// `Vec<Option<_>>` staging pass.
            pub fn finish(self) -> Column {
                let validity = validity_from_nulls(self.values.len(), &self.nulls);
                Column::$variant(self.values, validity)
            }
        }
    };
}

typed_builder!(F64Builder, f64, 0.0, from_f64_validity, "Builder for float columns.");
typed_builder!(I64Builder, i64, 0, from_i64_validity, "Builder for integer columns.");
typed_builder!(BoolBuilder, bool, false, from_bool_validity, "Builder for boolean columns.");

/// Builder for string columns: each value is interned as it arrives (a
/// borrowed field of the CSV tokenizer is hashed and compared in place;
/// only a string not seen before is copied, into the dictionary's arena),
/// so the column is built as codes from the start.
#[derive(Debug, Default)]
pub struct StrBuilder {
    dict: DictBuilder,
    codes: Vec<u32>,
    /// Rows that hold a null, ascending.
    nulls: Vec<usize>,
}

impl StrBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty builder with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        StrBuilder { codes: Vec::with_capacity(cap), ..Self::default() }
    }

    /// Number of values appended so far.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether no values have been appended.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Append a value.
    pub fn push(&mut self, v: &str) {
        let code = self.dict.intern(v);
        self.codes.push(code);
    }

    /// Append a null.
    pub fn push_null(&mut self) {
        self.nulls.push(self.codes.len());
        self.codes.push(0);
    }

    /// Freeze into an immutable column: the codes, the dictionary and the
    /// lazily built bitmap go straight to the column.
    pub fn finish(self) -> Column {
        let validity = validity_from_nulls(self.codes.len(), &self.nulls);
        Column::from_codes(Arc::new(self.dict.finish()), self.codes, validity)
            .expect("every code was handed out by this builder's dictionary")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn f64_builder_no_nulls() {
        let mut b = F64Builder::new();
        b.push(1.0);
        b.push(2.0);
        let c = b.finish();
        assert_eq!(c, Column::from_f64(vec![1.0, 2.0]));
    }

    #[test]
    fn f64_builder_with_nulls() {
        let mut b = F64Builder::new();
        b.push(1.0);
        b.push_null();
        b.push(3.0);
        let c = b.finish();
        assert_eq!(c.len(), 3);
        assert_eq!(c.null_count(), 1);
        assert_eq!(c.get(1).unwrap(), Value::Null);
    }

    #[test]
    fn null_first_then_values() {
        let mut b = I64Builder::new();
        b.push_null();
        b.push(7);
        let c = b.finish();
        assert!(!c.is_valid(0));
        assert_eq!(c.get(1).unwrap(), Value::Int(7));
    }

    #[test]
    fn str_builder() {
        let mut b = StrBuilder::with_capacity(3);
        b.push("a");
        b.push_null();
        b.push("c");
        let c = b.finish();
        assert_eq!(c.len(), 3);
        assert_eq!(c.null_count(), 1);
        assert_eq!(c.get(2).unwrap(), Value::Str("c".into()));
    }

    #[test]
    fn push_opt() {
        let mut b = BoolBuilder::new();
        b.push_opt(Some(true));
        b.push_opt(None);
        let c = b.finish();
        assert_eq!(c.null_count(), 1);
        assert_eq!(c.get(0).unwrap(), Value::Bool(true));
    }

    #[test]
    fn dynamic_builder_parses_or_rejects() {
        let mut b = ColumnBuilder::for_dtype(DataType::Int64);
        assert!(b.push_parsed("42"));
        assert!(!b.push_parsed("4.5")); // not an int
        assert!(!b.push_parsed("x"));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn dynamic_builder_bool() {
        let mut b = ColumnBuilder::for_dtype(DataType::Bool);
        assert!(b.push_parsed("true"));
        assert!(b.push_parsed("False"));
        assert!(!b.push_parsed("yes"));
        let c = b.finish();
        assert_eq!(c, Column::from_bool(vec![true, false]));
    }

    #[test]
    fn dynamic_builder_str_accepts_everything() {
        let mut b = ColumnBuilder::for_dtype(DataType::Str);
        assert!(b.push_parsed("anything"));
        assert!(b.push_parsed("1.5"));
        b.push_null();
        let c = b.finish();
        assert_eq!(c.len(), 3);
        assert_eq!(c.null_count(), 1);
    }

    #[test]
    fn parse_helpers() {
        assert_eq!(parse_f64(" 1.5 "), Some(1.5));
        assert_eq!(parse_f64("NaN").map(|v| v.is_nan()), Some(true));
        assert_eq!(parse_f64("abc"), None);
        assert_eq!(parse_bool("TRUE"), Some(true));
        assert_eq!(parse_bool("0"), None);
    }
}
