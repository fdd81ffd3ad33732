//! # eda-render
//!
//! The Render module of the `dataprep-eda` workspace (paper §4.2.3):
//! converts the Compute module's intermediates into visualizations and
//! embeds them in a tabbed HTML layout.
//!
//! The paper uses Bokeh for plots plus a custom HTML/JS layout because no
//! Python plotting library supported their layout needs; in Rust the
//! plotting ecosystem is younger still, so this crate renders charts as
//! **hand-rolled SVG** over a small scale/ticks engine, and assembles the
//! tab layout of the paper's Figure 1 as self-contained HTML (no external
//! assets, works offline in any browser).
//!
//! * [`scale`] — linear/band scales and "nice" tick generation
//! * [`svg`] — a tiny SVG canvas with a chart frame (axes, ticks, title)
//! * [`charts`] — one renderer per intermediate kind
//! * [`layout`] — tabbed panels for analyses, full report pages
//! * [`ascii`] — terminal rendering used by the CLI examples

#![warn(missing_docs)]

pub mod ascii;
pub mod charts;
pub mod layout;
mod num;
pub mod scale;
pub mod svg;
pub mod theme;

pub use charts::render_chart;
pub use layout::{render_analysis_html, render_report_html};
