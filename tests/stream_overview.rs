//! One statistics path: a CSV's overview counted chunk by chunk
//! (`eda_io::read_overview`) holds, column by column, the payloads the
//! graph's `moments` and `freq` tasks compute over the frame the same
//! file loads into — from the CSV and from its `.edaf` — at every chunk
//! size and worker count.
//!
//! The file is a datagen frame (nulls in every column) written as CSV,
//! with three columns added that the chunked reader has to widen: `wide`
//! is an integer until a float after the inference sample, `late` an
//! integer until text after it, and `special` a float column with `NaN`
//! (a null spelling) and infinities.

use dataprep_eda::core::compute::ctx::un;
use dataprep_eda::core::compute::kernels;
use dataprep_eda::core::compute::ComputeContext;
use dataprep_eda::core::load::load_csv;
use dataprep_eda::dataframe::csv::chunk::DEFAULT_CHUNK_BYTES;
use dataprep_eda::dataframe::csv::write_csv_string;
use dataprep_eda::dataframe::DataType;
use dataprep_eda::datagen::generate;
use dataprep_eda::datagen::spec::{quick, DatasetSpec};
use dataprep_eda::io::chunked::IngestOptions;
use dataprep_eda::io::edaf::{read_edaf, write_edaf};
use dataprep_eda::io::stream::{read_overview, ColumnStats};
use dataprep_eda::prelude::*;
use dataprep_eda::stats::freq::CatFreq;
use dataprep_eda::stats::missing::ColMeta;
use dataprep_eda::stats::moments::Moments;

const ROWS: usize = 3_000;

/// The CSV text: datagen columns, then `wide`, `late` and `special`.
fn csv_text() -> String {
    let spec = DatasetSpec {
        name: "stream".into(),
        rows: ROWS,
        columns: vec![
            quick::normal("price", 50.0, 12.0, 0.1),
            quick::ints("rooms", 1, 9, 0.05),
            quick::cat("city", 40, 0.1),
            quick::text("note", 4, 300, 0.2),
            quick::boolean("sold", 0.4, 0.1),
        ],
    };
    let base = write_csv_string(&generate(&spec, 7));
    let mut lines = base.lines();
    let mut out = format!("{},wide,late,special\n", lines.next().unwrap());
    for (i, line) in lines.enumerate() {
        let wide = if i < 2_500 { format!("{}", i % 97) } else { format!("{}.25", i % 89) };
        let late = if i % 31 == 0 {
            String::new()
        } else if i < 2_900 {
            format!("{:03}", i % 40)
        } else {
            format!("t{}", i % 7)
        };
        let special = match i % 50 {
            0 => "NaN".to_string(),
            1 => "inf".to_string(),
            2 => "-inf".to_string(),
            k => format!("{}", k as f64 * 0.5 - 3.0),
        };
        out.push_str(&format!("{line},{wide},{late},{special}\n"));
    }
    out
}

/// Each column's graph payload, as the streamed overview holds it.
fn graph_stats(df: &DataFrame, workers: usize) -> Vec<(String, ColumnStats)> {
    let cfg = Config::from_pairs(vec![("engine.workers", workers.to_string().as_str())]).unwrap();
    let mut ctx = ComputeContext::new(df, &cfg);
    let names = df.names().to_vec();
    let numeric: Vec<bool> = df.iter().map(|(_, c)| c.dtype().is_numeric()).collect();
    let nodes: Vec<_> = names
        .iter()
        .zip(&numeric)
        .map(|(name, &numeric)| {
            if numeric {
                kernels::moments(&mut ctx, name)
            } else {
                kernels::freq(&mut ctx, name)
            }
        })
        .collect();
    let outs = ctx.execute_checked(&nodes).unwrap();
    names
        .into_iter()
        .zip(numeric.iter().zip(&outs))
        .map(|(name, (&numeric, out))| {
            let stats = if numeric {
                ColumnStats::Numeric(un::<Moments>(out).clone())
            } else {
                ColumnStats::Categorical(un::<CatFreq>(out).clone())
            };
            (name, stats)
        })
        .collect()
}

fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
}

fn assert_same(got: &ColumnStats, want: &ColumnStats, context: &str) {
    match (got, want) {
        (ColumnStats::Numeric(a), ColumnStats::Numeric(b)) => {
            let counts =
                |m: &Moments| (m.count, m.nans, m.infinites, m.zeros, m.negatives, m.min, m.max);
            assert_eq!(counts(a), counts(b), "{context}");
            assert!(close(a.mean, b.mean) && close(a.m2, b.m2), "{context}: {a:?} vs {b:?}");
            assert!(close(a.sum, b.sum), "{context}: sum {} vs {}", a.sum, b.sum);
        }
        (ColumnStats::Categorical(a), ColumnStats::Categorical(b)) => {
            // Every category's count, in order, and the nulls.
            let table = |f: &CatFreq| {
                let all: Vec<(String, u64)> = f
                    .summary(usize::MAX)
                    .top(usize::MAX)
                    .map(|(c, n)| (c.to_string(), n))
                    .collect();
                (all, f.nulls())
            };
            assert_eq!(table(a), table(b), "{context}");
        }
        _ => panic!("{context}: {got:?} vs {want:?}"),
    }
}

#[test]
fn streamed_partials_equal_the_graph_payloads_on_the_csv_and_the_edaf() {
    let dir = std::env::temp_dir();
    let csv = dir.join(format!("stream_overview_{}.csv", std::process::id()));
    let edaf = dir.join(format!("stream_overview_{}.edaf", std::process::id()));
    std::fs::write(&csv, csv_text()).unwrap();

    let loaded = load_csv(&csv, &Config::default()).unwrap();
    let dtype = |name: &str| loaded.column(name).unwrap().dtype();
    assert_eq!(
        (dtype("wide"), dtype("late"), dtype("special")),
        (DataType::Float64, DataType::Str, DataType::Float64)
    );
    write_edaf(&edaf, &loaded).unwrap();
    let from_edaf = read_edaf(&edaf).unwrap();

    for workers in [1, 2] {
        let graphs =
            [("csv", graph_stats(&loaded, workers)), ("edaf", graph_stats(&from_edaf, workers))];
        for chunk_bytes in [128, 4 << 10, DEFAULT_CHUNK_BYTES] {
            let opts = IngestOptions { chunk_bytes, workers, ..IngestOptions::default() };
            let streamed = read_overview(&csv, &opts).unwrap();
            assert_eq!(streamed.nrows, ROWS);
            for (source, graph) in &graphs {
                assert_eq!(streamed.columns.len(), graph.len());
                for ((name, got), (want_name, want)) in streamed.columns.iter().zip(graph) {
                    let context =
                        format!("{name} at {chunk_bytes} B, {workers} workers, vs {source}");
                    assert_eq!(name, want_name, "{context}");
                    assert_same(got, want, &context);
                    // The counts both sides print come off the same partial.
                    let nulls = loaded.column(name).unwrap().null_count();
                    assert_eq!(
                        streamed.meta(name),
                        Some(ColMeta { len: ROWS, nulls }),
                        "{context}"
                    );
                }
            }
        }
    }
    for path in [csv, edaf] {
        std::fs::remove_file(path).ok();
    }
}
