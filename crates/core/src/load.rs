//! Config-routed data loading: chunked-parallel CSV ingestion and the
//! `.edaf` binary columnar format.
//!
//! [`load_data`] is the front door the CLI and library callers use: it
//! dispatches on file extension (`.edaf` → footer-driven columnar read,
//! anything else → CSV) and hands `engine.workers` to the `eda-io`
//! pipeline — the one CSV reader, whose frame is the same at every
//! worker count.

use std::path::Path;

use eda_dataframe::DataFrame;
use eda_io::chunked::{read_csv_chunked, IngestOptions};
use eda_io::edaf::{read_edaf, write_edaf, EdafInfo};

use crate::config::Config;
use crate::error::EdaResult;

/// Load a CSV file through the chunked parallel pipeline on
/// `engine.workers` threads.
pub fn load_csv<P: AsRef<Path>>(path: P, config: &Config) -> EdaResult<DataFrame> {
    let opts = IngestOptions { workers: config.engine.workers, ..IngestOptions::default() };
    Ok(read_csv_chunked(path, &opts)?)
}

/// Load a data file, dispatching on extension: `.edaf` reads the
/// binary columnar format (column blocks straight off the footer, no
/// parsing), anything else parses as CSV.
pub fn load_data<P: AsRef<Path>>(path: P, config: &Config) -> EdaResult<DataFrame> {
    let is_edaf =
        path.as_ref().extension().is_some_and(|e| e.eq_ignore_ascii_case("edaf"));
    if is_edaf {
        Ok(read_edaf(path)?)
    } else {
        load_csv(path, config)
    }
}

/// Convert a CSV file to `.edaf`: ingest through the chunked pipeline,
/// then serialise with per-column encodings and a projection footer.
/// Returns the written file's metadata (sizes, encodings, fingerprint).
pub fn convert_to_edaf<P: AsRef<Path>, Q: AsRef<Path>>(
    input: P,
    output: Q,
    config: &Config,
) -> EdaResult<EdafInfo> {
    let df = load_csv(input, config)?;
    Ok(write_edaf(output, &df)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    const CSV: &str = "a,b\n1,x\n2.5,\"y,z\"\n3,NA\n";

    fn temp(name: &str, contents: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("eda_core_load_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::File::create(&path).unwrap().write_all(contents.as_bytes()).unwrap();
        path
    }

    #[test]
    fn convert_then_load_round_trips() {
        let csv_path = temp("convert.csv", CSV);
        let edaf_path = temp("convert.edaf", "");
        let config = Config::default();
        let info = convert_to_edaf(&csv_path, &edaf_path, &config).unwrap();
        let from_csv = load_data(&csv_path, &config).unwrap();
        let from_edaf = load_data(&edaf_path, &config).unwrap();
        assert_eq!(from_csv, from_edaf);
        assert_eq!(info.content_fingerprint, from_edaf.content_fingerprint());
        for p in [csv_path, edaf_path] {
            std::fs::remove_file(&p).ok();
        }
    }
}
