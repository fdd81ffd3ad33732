//! # eda-stats
//!
//! Statistical kernels for the `dataprep-eda` workspace (a Rust reproduction
//! of *DataPrep.EDA*, SIGMOD 2021).
//!
//! Every aggregation kernel comes in a **mergeable** form: a partial state
//! built per data partition plus a `merge` combining two partials. That is
//! what lets `eda-taskgraph` evaluate statistics partition-parallel and
//! tree-reduce the partials — the Rust analogue of running a Dask graph over
//! a chunked dataframe (paper §5.2). Convenience whole-slice entry points
//! wrap the mergeable forms.
//!
//! The per-column partials a dataset overview is made of — [`Moments`]
//! for a numeric column, [`CatFreq`] for a categorical one — are built
//! over an `eda-dataframe` column window by one function each
//! ([`Moments::of`], [`CatFreq::of`]) and combined by one `merge` each,
//! whether the window is a graph partition or a streamed CSV chunk; a
//! column's row and null counts ([`missing::ColMeta`]) are read off them.
//! That is the crate's one workspace dependency: it never reaches the
//! task graph, the I/O layer or the EDA core.
//!
//! The kernels cover everything Figure 2 of the paper needs:
//!
//! * [`moments`] — count/mean/variance/skewness/kurtosis (+min/max/zeros/negatives/infinites)
//! * [`quantile`] — exact quantiles, IQR, box-plot statistics with outliers
//! * [`histogram`] — fixed-bin counts with mergeable partials
//! * [`kde`] — Gaussian kernel density estimates
//! * [`qq`] — normal quantile-quantile points (Acklam inverse normal CDF)
//! * [`freq`] — frequency tables (per dictionary code, with its dictionary), top-k, distinct counts
//! * [`rank`] — mid-rank computation with ties
//! * [`corr`] — Pearson, Spearman, Kendall's tau (Knight O(n log n)), matrices
//! * [`regression`] — simple OLS with R²
//! * [`text`] — word tokenization and string-length statistics, once per distinct value, words counted as codes
//! * [`missing`] — nullity correlation, missing spectrum, dendrogram clustering
//! * [`hypothesis`] — chi-square uniformity, two-sample
//!   Kolmogorov-Smirnov distance
//! * [`timeseries`] — resampling, rolling means, autocorrelation (backing
//!   the paper's §7 time-series future-work task)

#![warn(missing_docs)]
// Test code asserts and indexes; the crate-wide panic-free denies (see
// Cargo.toml [lints]) apply to shipped code only.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing))]
#![cfg_attr(test, allow(clippy::panic, clippy::unreachable))]

pub mod corr;
pub mod freq;
pub mod histogram;
pub mod hypothesis;
pub mod interrupt;
pub mod kde;
pub mod missing;
pub mod moments;
pub mod qq;
pub mod quantile;
pub mod rank;
pub mod regression;
pub mod text;
pub mod timeseries;
pub mod vector;

/// The independent oracles the unit tests hold kernels against.
#[cfg(test)]
#[path = "../tests/oracle/mod.rs"]
mod oracle;

pub use corr::{pearson, CorrMatrix, CorrMethod};
pub use freq::{CatFreq, CodeCounts, FreqSummary};
pub use histogram::Histogram;
pub use kde::kde_grid;
pub use moments::Moments;
pub use qq::{normal_qq_points, normal_quantile};
pub use quantile::{quantile_sorted, quantiles_nth, BoxPlot};
pub use regression::LinearFit;
