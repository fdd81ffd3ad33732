//! Traced runs only: time each layer's public entry points on the
//! workload's own files, once, and check the engine against the
//! independent `eda-baseline` profiler.

use std::collections::BTreeMap;
use std::hint::black_box;

use dataprep_eda::baseline;
use dataprep_eda::core::dtype::detect;
use dataprep_eda::dataframe::csv::read_csv;
use dataprep_eda::io::chunked::IngestOptions;
use dataprep_eda::io::edaf::{read_edaf, read_edaf_columns};
use dataprep_eda::io::stream::read_overview;
use dataprep_eda::prelude::*;
use dataprep_eda::stats::corr::CorrMethod;

use crate::span::Recorder;
use crate::workload::Inputs;

/// Relative tolerance of the oracle check.
const ORACLE_TOLERANCE: f64 = 1e-9;
/// The baseline profiler runs every statistic for every column pair, ten
/// seconds on `bigfile_overview`'s full frame; it and the report it is
/// compared with see at most this many leading rows.
const ORACLE_ROWS: usize = 50_000;

pub struct Probes {
    /// Per-layer metric values by name, in milliseconds or as ratios.
    pub values: BTreeMap<&'static str, f64>,
    /// Disagreements with the baseline profiler (empty when it passes).
    pub oracle_errors: Vec<String>,
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= ORACLE_TOLERANCE * a.abs().max(b.abs()).max(1.0)
}

/// Row count, per-column missing counts and Pearson cells of the engine's
/// report against the baseline's.
fn oracle_errors(report: &Report, profile: &baseline::BaselineReport, rows: usize) -> Vec<String> {
    let mut errors = Vec::new();
    if profile.overview.rows != rows {
        errors.push(format!(
            "baseline rows {} != generated {rows}",
            profile.overview.rows
        ));
    }
    match report.missing.get("missing_bar_chart") {
        Some(Inter::MissingBars(bars)) => {
            if bars.len() != profile.missing.summaries.len() {
                errors.push(format!(
                    "{} missing bars vs {} baseline columns",
                    bars.len(),
                    profile.missing.summaries.len()
                ));
            }
            for (ours, theirs) in bars.iter().zip(&profile.missing.summaries) {
                if (ours.label.as_str(), ours.nulls, ours.total)
                    != (theirs.label.as_str(), theirs.nulls, rows)
                {
                    errors.push(format!("missing counts differ: {ours:?} vs {theirs:?}"));
                }
            }
        }
        _ => errors.push("report has no missing_bar_chart".into()),
    }
    let expected = &profile.correlations.pearson;
    match report
        .correlations
        .iter()
        .find(|m| m.method == CorrMethod::Pearson)
    {
        Some(ours) if ours.labels == expected.labels => {
            for (i, (a, b)) in ours.cells.iter().zip(&expected.cells).enumerate() {
                let same = match (a, b) {
                    (Some(a), Some(b)) => close(*a, *b),
                    (None, None) => true,
                    _ => false,
                };
                if !same {
                    errors.push(format!("pearson cell {i}: {a:?} vs baseline {b:?}"));
                }
            }
        }
        Some(ours) => errors.push(format!(
            "pearson labels {:?} vs baseline {:?}",
            ours.labels, expected.labels
        )),
        None => errors.push("report has no Pearson matrix".into()),
    }
    errors
}

pub fn run(rec: &mut Recorder, inputs: &Inputs) -> Result<Probes, String> {
    let config = Config::default();
    let mut values = BTreeMap::new();
    let mut time = |rec: &mut Recorder, name: &'static str, span: usize| {
        values.insert(name, rec.exit(span) as f64 / 1e3);
    };

    let span = rec.enter("probe.dataframe.read_csv");
    let sequential = read_csv(&inputs.csv).map_err(|e| format!("read_csv: {e}"))?;
    time(rec, "dataframe.read_csv_ms", span);
    drop(sequential);

    let span = rec.enter("probe.io.load_csv");
    let df = load_csv(&inputs.csv, &config).map_err(|e| format!("load_csv: {e}"))?;
    time(rec, "io.load_csv_ms", span);

    let span = rec.enter("probe.io.read_edaf");
    black_box(read_edaf(&inputs.edaf).map_err(|e| format!("read_edaf: {e}"))?);
    time(rec, "io.read_edaf_ms", span);

    let two: Vec<&str> = df.names().iter().take(2).map(String::as_str).collect();
    let span = rec.enter("probe.io.edaf_project");
    black_box(
        read_edaf_columns(&inputs.edaf, &two).map_err(|e| format!("read_edaf_columns: {e}"))?,
    );
    time(rec, "io.edaf_project_ms", span);

    let span = rec.enter("probe.io.stream_overview");
    black_box(
        read_overview(&inputs.csv, &IngestOptions::default())
            .map_err(|e| format!("read_overview: {e}"))?,
    );
    time(rec, "io.stream_overview_ms", span);

    let span = rec.enter("probe.core.detect");
    for (_, column) in df.iter() {
        black_box(detect(column, config.types.low_cardinality));
    }
    time(rec, "core.detect_ms", span);

    let numeric: Vec<Vec<f64>> = df
        .iter()
        .filter(|(_, c)| c.dtype().is_numeric())
        .take(2)
        .map(|(_, c)| c.to_f64_nan().map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    if let [x, y] = numeric.as_slice() {
        let span = rec.enter("probe.stats.kendall_pair");
        black_box(CorrMethod::KendallTau.compute(x, y));
        time(rec, "stats.kendall_pair_ms", span);
    }

    let head = df.head(ORACLE_ROWS);
    let span = rec.enter("probe.core.create_report");
    let report = create_report(&head, &config).map_err(|e| format!("create_report: {e}"))?;
    time(rec, "core.report_ms", span);

    let span = rec.enter("probe.baseline.profile");
    let profile = baseline::profile(&head);
    time(rec, "baseline.profile_ms", span);

    let oracle_errors = oracle_errors(&report, &profile, inputs.rows.min(ORACLE_ROWS));
    Ok(Probes {
        values,
        oracle_errors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataprep_eda::datagen::generate;

    #[test]
    fn oracle_passes_on_a_generated_frame_and_catches_a_wrong_row_count() {
        let spec = crate::workload::by_name("report_mixed").unwrap().spec(0.02);
        let df = generate(&spec, 3);
        let report = create_report(&df, &Config::default()).unwrap();
        let profile = baseline::profile(&df);
        assert_eq!(
            oracle_errors(&report, &profile, df.nrows()),
            Vec::<String>::new()
        );
        assert!(!oracle_errors(&report, &profile, df.nrows() + 1).is_empty());
    }

    #[test]
    fn tolerance_is_relative() {
        assert!(close(1e12, 1e12 + 100.0));
        assert!(!close(0.5, 0.5 + 1e-6));
        assert!(close(0.0, 1e-10));
    }
}
