//! # eda-core
//!
//! The task-centric EDA engine — the primary contribution of *DataPrep.EDA:
//! Task-Centric Exploratory Data Analysis for Statistical Modeling in
//! Python* (SIGMOD 2021), reproduced in Rust.
//!
//! One function call = one EDA task (paper §3.2):
//!
//! | call | task |
//! |------|------|
//! | [`plot`]`(df, &[], cfg)` | dataset overview |
//! | [`plot`]`(df, &["x"], cfg)` | univariate analysis of `x` |
//! | [`plot`]`(df, &["x", "y"], cfg)` | bivariate analysis |
//! | [`plot_correlation`] | correlation overview / vector / pair |
//! | [`plot_missing`] | missing-value overview / impact |
//! | [`create_report`] | the full profile report |
//!
//! Architecture mirrors the paper's Figure 3: the **Config Manager**
//! ([`config::Config`]) resolves user parameters and powers the how-to
//! guides; the **Compute module** ([`compute`]) builds one lazy
//! [`eda_taskgraph::TaskGraph`] per call, shares subcomputations via
//! structural keys, executes it partition-parallel, and emits
//! *intermediates*; the **Render module** lives in the sibling
//! `eda-render` crate and consumes those intermediates. Insights
//! ([`insights`]) are computed from intermediates against configurable
//! thresholds.
//!
//! ```
//! use eda_core::{plot, Config};
//! use eda_dataframe::{Column, DataFrame};
//!
//! let df = DataFrame::new(vec![
//!     ("price".into(), Column::from_f64(vec![310.0, 450.0, 250.0, 380.0, 290.0])),
//! ]).unwrap();
//! let analysis = plot(&df, &["price"], &Config::default()).unwrap();
//! assert!(analysis.get("histogram").is_some());
//! assert!(analysis.get("box_plot").is_some());
//! ```

#![warn(missing_docs)]

pub mod api;
pub mod compute;
pub mod config;
pub mod dtype;
pub mod error;
pub mod insights;
pub mod intermediate;
pub mod json;
pub mod load;
pub mod report;

pub use api::{
    create_report, plot, plot_correlation, plot_missing, plot_timeseries, Analysis,
    SectionStatus, TaskKind,
};
pub use config::Config;
pub use dtype::SemanticType;
pub use error::{EdaError, EdaResult};
pub use insights::{Insight, InsightKind};
pub use load::{convert_to_edaf, load_csv, load_data};
pub use intermediate::{Inter, Intermediates};
pub use report::{Report, VariableSection};
