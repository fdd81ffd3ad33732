//! # eda-dataframe
//!
//! A small columnar DataFrame library: the "Pandas role" substrate of the
//! `dataprep-eda` workspace (a Rust reproduction of *DataPrep.EDA: Task-Centric
//! Exploratory Data Analysis for Statistical Modeling in Python*, SIGMOD 2021).
//!
//! The EDA compute layer only needs a handful of dataframe capabilities:
//!
//! * typed columnar storage with per-value nullity ([`Column`], [`Bitmap`]);
//!   a string column is `u32` codes into one shared dictionary of its
//!   distinct values ([`StrDict`]), built by interning ([`DictBuilder`]),
//! * cheap structural sharing so frames can be sliced into partitions without
//!   copying data ([`DataFrame`] holds `Arc`-shared columns),
//! * CSV ingestion with type inference ([`csv::read_csv`]),
//! * row filtering by boolean mask, vertical concatenation, and column
//!   selection — the operations the two-phase pipeline of the paper's §5.2
//!   performs before statistics kernels take over.
//!
//! Everything else (statistics, lazy graphs, rendering) lives in sibling
//! crates layered on top.
//!
//! ## Example
//!
//! ```
//! use eda_dataframe::{DataFrame, Column};
//!
//! let df = DataFrame::new(vec![
//!     ("price".to_string(), Column::from_f64(vec![310_000.0, 450_000.0, 250_000.0])),
//!     ("city".to_string(), Column::from_strs(&["Burnaby", "Vancouver", "Surrey"])),
//! ]).unwrap();
//! assert_eq!(df.nrows(), 3);
//! assert_eq!(df.ncols(), 2);
//! ```

#![warn(missing_docs)]

pub mod bitmap;
pub mod builder;
pub mod column;
pub mod csv;
pub mod dict;
pub mod display;
pub mod dtype;
pub mod error;
pub(crate) mod fingerprint;
pub mod frame;
pub mod heap;
pub mod value;

pub use bitmap::{Bitmap, Selection};
pub use builder::{BoolBuilder, ColumnBuilder, F64Builder, I64Builder, StrBuilder};
pub use column::Column;
pub use dict::{DictBuilder, StrDict};
pub use dtype::DataType;
pub use error::{Error, Result};
pub use frame::DataFrame;
pub use heap::HeapSize;
pub use value::Value;
