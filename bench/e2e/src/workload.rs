//! The four workloads and their seeded inputs.

use std::path::{Path, PathBuf};
use std::time::Instant;

use dataprep_eda::dataframe::csv::write_csv;
use dataprep_eda::datagen::bitcoin::bitcoin_spec;
use dataprep_eda::datagen::{generate, kaggle_spec_by_name, DatasetSpec};
use dataprep_eda::prelude::{convert_to_edaf, Config};

/// What one op of a workload does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Api {
    /// Fresh process: CSV -> `create_report` -> HTML file.
    Report,
    /// Fresh process: CSV -> `plot(df)` -> HTML file.
    Overview,
    /// Fresh process: `.edaf` loaded once, then the notebook script.
    Session,
}

pub struct Workload {
    pub name: &'static str,
    /// One line for BENCHMARK.json: which layer the workload stresses.
    pub why: &'static str,
    /// `eda-datagen` shape the input is generated from.
    pub shape: &'static str,
    /// Rows at scale 1: sized so that one run of `run_seconds` measures at
    /// least ten cold ops (three sessions) on a 2-core shared host.
    pub rows: usize,
    pub api: Api,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "report_numeric",
        why: "credit shape, 25 numeric columns: correlation kernels and the scheduler dominate, ingest is small",
        shape: "credit",
        rows: 10_000,
        api: Api::Report,
    },
    Workload {
        name: "report_mixed",
        why: "conflicts shape, 10 numeric / 15 categorical+text, 10% missing: ingest, graph and assembly split the op, correlation is small",
        shape: "conflicts",
        rows: 17_000,
        api: Api::Report,
    },
    Workload {
        name: "bigfile_overview",
        why: "bitcoin shape, 300k x 8 CSV into plot(df): ingest is nearly the whole op, no correlation is planned, peak RSS matters",
        shape: "bitcoin",
        rows: 300_000,
        api: Api::Overview,
    },
    Workload {
        name: "interactive_session",
        why: "adult shape from .edaf, ~80 plot*/report calls per process with a third re-issued: the only workload that reads the result cache",
        shape: "adult",
        rows: 24_500,
        api: Api::Session,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn spec(&self, scale: f64) -> DatasetSpec {
        let mut spec = if self.shape == "bitcoin" {
            bitcoin_spec(self.rows)
        } else {
            kaggle_spec_by_name(self.shape).expect("shape is one of eda-datagen's Table 2 specs")
        };
        spec.rows = ((self.rows as f64 * scale) as usize).max(200);
        spec
    }

    /// `(numeric, categorical)` column names, as the session script takes them.
    pub fn column_names(&self) -> (Vec<String>, Vec<String>) {
        let spec = self.spec(1.0);
        let names = |numeric: bool| -> Vec<String> {
            spec.columns
                .iter()
                .filter(|c| c.is_numeric() == numeric)
                .map(|c| c.name.clone())
                .collect()
        };
        (names(true), names(false))
    }
}

/// Generated input files of one run.
pub struct Inputs {
    pub csv: PathBuf,
    pub edaf: PathBuf,
    pub rows: usize,
    pub csv_bytes: u64,
    pub edaf_bytes: u64,
}

impl Inputs {
    /// The file an op of `api` reads, with its size.
    pub fn for_api(&self, api: Api) -> (&Path, u64) {
        match api {
            Api::Session => (&self.edaf, self.edaf_bytes),
            Api::Report | Api::Overview => (&self.csv, self.csv_bytes),
        }
    }
}

/// Wall time of one set-up, by step, in milliseconds.
pub struct SetupTimes {
    pub generate_ms: f64,
    pub write_csv_ms: f64,
    pub convert_ms: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        (self.generate_ms + self.write_csv_ms + self.convert_ms) / 1e3
    }
}

/// Seed -> frame -> `write_csv` -> `convert_to_edaf`, into `dir`.
pub fn setup(
    w: &Workload,
    seed: u64,
    scale: f64,
    dir: &Path,
) -> Result<(Inputs, SetupTimes), String> {
    let spec = w.spec(scale);
    let csv = dir.join(format!("{}.csv", w.shape));
    let edaf = dir.join(format!("{}.edaf", w.shape));

    let t = Instant::now();
    let df = generate(&spec, seed);
    let generate_ms = ms_since(t);

    let t = Instant::now();
    write_csv(&df, &csv).map_err(|e| format!("writing {}: {e}", csv.display()))?;
    let write_csv_ms = ms_since(t);

    let t = Instant::now();
    let info = convert_to_edaf(&csv, &edaf, &Config::default())
        .map_err(|e| format!("converting {}: {e}", csv.display()))?;
    let convert_ms = ms_since(t);

    let csv_bytes = std::fs::metadata(&csv)
        .map_err(|e| format!("{}: {e}", csv.display()))?
        .len();
    let inputs = Inputs {
        csv,
        edaf,
        rows: df.nrows(),
        csv_bytes,
        edaf_bytes: info.file_bytes,
    };
    Ok((
        inputs,
        SetupTimes {
            generate_ms,
            write_csv_ms,
            convert_ms,
        },
    ))
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_match_the_workload_descriptions() {
        let split = |name: &str| by_name(name).unwrap().spec(1.0).nc_split();
        assert_eq!(split("report_numeric"), (25, 0));
        assert_eq!(split("report_mixed"), (10, 15));
        assert_eq!(split("bigfile_overview"), (8, 0));
        assert_eq!(split("interactive_session"), (6, 9));
    }

    #[test]
    fn scale_shrinks_rows_only() {
        let w = by_name("bigfile_overview").unwrap();
        assert_eq!(w.spec(0.05).rows, 15_000);
        assert_eq!(w.spec(0.05).columns, w.spec(1.0).columns);
    }

    #[test]
    fn same_seed_same_inputs() {
        let w = by_name("report_mixed").unwrap();
        let spec = w.spec(0.02);
        assert_eq!(generate(&spec, 5), generate(&spec, 5));
        assert_ne!(generate(&spec, 5), generate(&spec, 6));
    }
}
