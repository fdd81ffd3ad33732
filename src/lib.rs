//! # dataprep-eda
//!
//! A Rust reproduction of **DataPrep.EDA: Task-Centric Exploratory Data
//! Analysis for Statistical Modeling in Python** (SIGMOD 2021).
//!
//! One function call = one EDA task:
//!
//! ```
//! use dataprep_eda::prelude::*;
//!
//! // The paper's running example: house-price data.
//! let df = DataFrame::new(vec![
//!     ("price".into(), Column::from_f64(vec![310_000.0, 450_000.0, 250_000.0, 420_000.0])),
//!     ("size".into(), Column::from_f64(vec![120.0, 180.0, 95.0, 160.0])),
//!     ("city".into(), Column::from_strs(&["Burnaby", "Vancouver", "Surrey", "Vancouver"])),
//! ]).unwrap();
//!
//! let config = Config::default();
//! let overview = plot(&df, &[], &config).unwrap();          // "an overview of the dataset"
//! let univariate = plot(&df, &["price"], &config).unwrap(); // "I want to understand price"
//! assert!(univariate.get("histogram").is_some());
//! let corr = plot_correlation(&df, &[], &config).unwrap();  // correlation overview
//! let missing = plot_missing(&df, &[], &config).unwrap();   // missing-value overview
//! # let _ = (overview, corr, missing);
//! ```
//!
//! The workspace mirrors the paper's architecture; see DESIGN.md for the
//! crate inventory and EXPERIMENTS.md for the reproduced tables/figures.

#![warn(missing_docs)]

pub use eda_baseline as baseline;
pub use eda_core as core;
pub use eda_dataframe as dataframe;
pub use eda_datagen as datagen;
pub use eda_io as io;
pub use eda_render as render;
pub use eda_stats as stats;
pub use eda_taskgraph as taskgraph;

/// The most common imports in one place.
pub mod prelude {
    pub use eda_core::{
        convert_to_edaf, create_report, load_csv, load_data, plot, plot_correlation, plot_missing,
        plot_timeseries, Analysis, Config, Insight, Inter, Report, SemanticType, TaskKind,
    };
    pub use eda_dataframe::{csv::read_csv, Column, DataFrame};
    pub use eda_render::{render_analysis_html, render_report_html};
}
