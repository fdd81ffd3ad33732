//! CSV ingestion and export.
//!
//! The reader performs RFC-4180-style parsing (quoted fields, embedded
//! separators/newlines, doubled quotes) and sampled type inference: the
//! leading records pick the narrowest type each column fits
//! (bool → i64 → f64 → str), the text then parses chunk by chunk into
//! typed builders, widening when later rows contradict the sample. There
//! is one implementation ([`chunk`]); [`read_csv_str`] runs it inline and
//! `eda-io` runs it on a worker pool, with identical output.

mod infer;
mod parser;
mod reader;
mod writer;

pub mod chunk;

pub use infer::{infer_dtype, is_null_field, widen};
pub use parser::{fields, records, Fields, Records, Separator};
pub use reader::{read_csv, read_csv_str, CsvOptions};
pub use writer::{write_csv, write_csv_string};
