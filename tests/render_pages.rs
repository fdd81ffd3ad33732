//! Pinned pages: the FNV digest of every HTML page the four `eda-e2e`
//! workloads write, on their `eda-datagen` shapes at seed 42, recorded at
//! the commit before `eda-render` stopped going through `core::fmt`. A
//! renderer change that is meant to keep the output must reproduce these
//! to the byte. The credit and conflicts report digests were re-pinned
//! once, when `Moments` became a block-wise two-pass: four printed means
//! and a mean length flip in their fourth decimal (EXPERIMENTS.md, "Both
//! per-value loops of `bigfile_overview`").
//!
//! `engine.workers` and the partition count are pinned (the latter
//! otherwise follows the host's core count) and what a report's footer
//! prints of its `stats` — elapsed time, tasks run and shared — is zeroed:
//! the pages pin the renderer, not the plan.

use std::collections::BTreeSet;
use std::hash::Hasher;
use std::time::Duration;

use dataprep_eda::core::Analysis;
use dataprep_eda::dataframe::csv::{read_csv_str, write_csv_string, CsvOptions};
use dataprep_eda::datagen::bitcoin::bitcoin_spec;
use dataprep_eda::datagen::{generate, kaggle_spec_by_name, DatasetSpec};
use dataprep_eda::prelude::*;
use dataprep_eda::taskgraph::key::Fnv1a;

const SEED: u64 = 42;

fn config() -> Config {
    Config::from_pairs(vec![("engine.workers", "2")]).unwrap()
}

/// The shape's frame as a workload reads it: generated, written as CSV,
/// parsed back.
fn shape(mut spec: DatasetSpec, rows: usize) -> (DataFrame, Vec<String>, Vec<String>) {
    spec.rows = rows;
    let names = |numeric: bool| -> Vec<String> {
        spec.columns.iter().filter(|c| c.is_numeric() == numeric).map(|c| c.name.clone()).collect()
    };
    let csv = write_csv_string(&generate(&spec, SEED));
    (read_csv_str(&csv, &CsvOptions::default()).unwrap(), names(true), names(false))
}

/// Digest of the pages fed so far, and the `Inter` variants they drew.
struct Pages {
    digest: Fnv1a,
    variants: BTreeSet<String>,
}

impl Pages {
    fn new() -> Pages {
        Pages { digest: Fnv1a::new(), variants: BTreeSet::new() }
    }

    fn saw<'a>(&mut self, inters: impl Iterator<Item = &'a Inter>) {
        /// Keeps the variant's name and stops `Debug` there: the payload
        /// is thousands of points.
        struct Name(String);
        impl std::fmt::Write for Name {
            fn write_str(&mut self, s: &str) -> std::fmt::Result {
                let end = s.find(|c: char| !c.is_alphanumeric()).unwrap_or(s.len());
                self.0.push_str(&s[..end]);
                if end < s.len() { Err(std::fmt::Error) } else { Ok(()) }
            }
        }
        for inter in inters {
            let mut name = Name(String::new());
            let _ = std::fmt::write(&mut name, format_args!("{inter:?}"));
            self.variants.insert(name.0);
        }
    }

    fn analysis(&mut self, a: &Analysis, cfg: &Config) {
        assert!(a.status.is_ok(), "{:?}", a.status);
        self.saw(a.intermediates.iter().map(|(_, inter)| inter));
        self.digest.write(render_analysis_html(a, &cfg.display).as_bytes());
    }

    fn report(&mut self, df: &DataFrame, cfg: &Config) {
        let mut r = create_report(df, cfg).unwrap();
        assert!(r.failed_sections().is_empty());
        // The footer prints the executor's counters: not the renderer's
        // doing, and not the same from one plan to the next.
        r.stats.elapsed = Duration::ZERO;
        (r.stats.tasks_run, r.stats.cse_hits) = (0, 0);
        self.saw(r.overview.iter().chain(r.missing.iter()).map(|(_, inter)| inter));
        self.saw(r.variables.iter().flat_map(|v| v.intermediates.iter()).map(|(_, inter)| inter));
        if !r.correlations.is_empty() {
            self.variants.insert("Correlation".to_string());
        }
        self.digest.write(render_report_html(&r, &cfg.display).as_bytes());
    }

    fn check(self, name: &str, want: u64, variants: &[&str]) {
        let seen: Vec<&str> = self.variants.iter().map(String::as_str).collect();
        let got = self.digest.finish();
        assert_eq!((got, &seen[..]), (want, variants), "{name}: {got:#018x}");
    }
}

/// What a report of numeric columns draws; categorical ones add to it.
const NUMERIC_REPORT: [&str; 10] = [
    "Boxes", "Correlation", "Dendrogram", "Histogram", "Kde", "MissingBars", "NullityCorr", "QQ",
    "Spectrum", "StatsTable",
];

/// `report_numeric`: `create_report` on the credit shape.
#[test]
fn credit_report_page_is_pinned() {
    let (df, ..) = shape(kaggle_spec_by_name("credit").unwrap(), 4_000);
    let mut pages = Pages::new();
    pages.report(&df, &config());
    pages.check("credit", 0xd5c8_97ed_4c3d_7c8d, &NUMERIC_REPORT);
}

/// `report_mixed`: `create_report` on the conflicts shape.
#[test]
fn conflicts_report_page_is_pinned() {
    let (df, ..) = shape(kaggle_spec_by_name("conflicts").unwrap(), 4_000);
    let mut pages = Pages::new();
    pages.report(&df, &config());
    let mut variants = NUMERIC_REPORT.to_vec();
    variants.extend(["Bar", "Pie", "WordFreq"]);
    variants.sort_unstable();
    pages.check("conflicts", 0x2587_658b_ed18_10fc, &variants);
}

/// `bigfile_overview`: `plot(df)` on the bitcoin shape.
#[test]
fn bitcoin_overview_page_is_pinned() {
    let (df, ..) = shape(bitcoin_spec(30_000), 30_000);
    let cfg = config();
    let mut pages = Pages::new();
    pages.analysis(&plot(&df, &[], &cfg).unwrap(), &cfg);
    pages.check("bitcoin", 0x3168_839c_b0b7_059c, &["Histogram", "StatsTable"]);
}

/// `interactive_session`: the call mix of the session script on the adult
/// shape — every `plot*` function at zero, one and two columns of each
/// type pair — and a report.
#[test]
fn adult_session_pages_are_pinned() {
    let (df, numeric, categorical) = shape(kaggle_spec_by_name("adult").unwrap(), 6_000);
    let cfg = config();
    let mut pages = Pages::new();
    pages.analysis(&plot(&df, &[], &cfg).unwrap(), &cfg);
    pages.analysis(&plot_correlation(&df, &[], &cfg).unwrap(), &cfg);
    pages.analysis(&plot_missing(&df, &[], &cfg).unwrap(), &cfg);
    for x in numeric.iter().chain(&categorical) {
        pages.analysis(&plot(&df, &[x], &cfg).unwrap(), &cfg);
        pages.analysis(&plot_missing(&df, &[x], &cfg).unwrap(), &cfg);
    }
    for x in &numeric {
        pages.analysis(&plot_correlation(&df, &[x], &cfg).unwrap(), &cfg);
    }
    let (n, c) = (&numeric, &categorical);
    for pair in [[&n[0], &n[3]], [&n[5], &n[1]]] {
        let pair = pair.map(String::as_str);
        pages.analysis(&plot(&df, &pair, &cfg).unwrap(), &cfg);
        pages.analysis(&plot_correlation(&df, &pair, &cfg).unwrap(), &cfg);
        pages.analysis(&plot_missing(&df, &pair, &cfg).unwrap(), &cfg);
    }
    for pair in [[&n[2], &c[1]], [&c[6], &n[4]], [&c[0], &c[8]], [&c[4], &c[2]]] {
        let pair = pair.map(String::as_str);
        pages.analysis(&plot(&df, &pair, &cfg).unwrap(), &cfg);
        pages.analysis(&plot_missing(&df, &pair, &cfg).unwrap(), &cfg);
    }
    pages.report(&df, &cfg);
    let mut variants = NUMERIC_REPORT.to_vec();
    variants.extend(["Bar", "Pie", "WordFreq", "CompareBars", "CompareHistogram", "CorrVectors"]);
    variants.extend(["GroupedBars", "Heatmap", "Hexbin", "Line", "MultiLine", "RegressionScatter"]);
    variants.push("Scatter");
    variants.sort_unstable();
    pages.check("adult", 0xc189_ad62_f1e0_4567, &variants);
}
