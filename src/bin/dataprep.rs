//! `dataprep` — a command-line front end for the task-centric EDA API.
//!
//! ```text
//! dataprep report <data> [-o report.html] [-c key=value]...
//! dataprep plot <data> [col] [col2] [-o out.html] [-c key=value]...
//! dataprep corr <data> [col] [col2] [-o out.html]
//! dataprep missing <data> [col] [col2] [-o out.html]
//! dataprep ts <data> <time-col> <value-col> [-o out.html]
//! dataprep convert <in.csv> <out.edaf> [-c key=value]...
//! ```
//!
//! `<data>` is a CSV file, or an `.edaf` binary columnar file (written
//! by `convert`) whose columns load without re-parsing. CSV files are
//! parsed in parallel chunks on `engine.workers` threads.
//!
//! Single-column tasks also print their stats tables and charts to the
//! terminal (ASCII), mirroring the notebook experience of the paper's
//! Figure 1 for shell users. A reader that stops early (`| head`) ends
//! that printing, not the call: the `-o` page is still written.

use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::process::ExitCode;

use dataprep_eda::prelude::*;
use eda_render::ascii;

struct Args {
    command: String,
    positional: Vec<String>,
    output: Option<String>,
    config_pairs: Vec<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or_else(usage)?;
    let mut positional = Vec::new();
    let mut output = None;
    let mut config_pairs = Vec::new();
    while let Some(a) = argv.next() {
        match a.as_str() {
            "-o" | "--output" => {
                output = Some(argv.next().ok_or("missing value after -o")?);
            }
            "-c" | "--config" => {
                let pair = argv.next().ok_or("missing value after -c")?;
                let (k, v) = pair
                    .split_once('=')
                    .ok_or_else(|| format!("expected key=value, got {pair:?}"))?;
                config_pairs.push((k.to_string(), v.to_string()));
            }
            "-h" | "--help" => return Err(usage()),
            _ => positional.push(a),
        }
    }
    Ok(Args { command, positional, output, config_pairs })
}

fn usage() -> String {
    "usage:\n  dataprep report  <data> [-o report.html] [-c key=value]...\n  \
     dataprep plot    <data> [col] [col2] [-o out.html] [-c key=value]...\n  \
     dataprep corr    <data> [col] [col2] [-o out.html]\n  \
     dataprep missing <data> [col] [col2] [-o out.html]\n  \
     dataprep ts      <data> <time-col> <value-col> [-o out.html]\n  \
     dataprep convert <in.csv> <out.edaf> [-c key=value]...\n\n\
     <data> is a CSV file or an .edaf columnar file written by convert\n\
     config keys are the how-to-guide keys, e.g. -c hist.bins=200 or -c engine.workers=4"
        .to_string()
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let path = args.positional.first().ok_or("missing <data> argument")?;

    let mut config = Config::default();
    for (k, v) in &args.config_pairs {
        config.set(k, v).map_err(|e| e.to_string())?;
    }

    if args.command == "convert" {
        let [input, output] = args.positional.as_slice() else {
            return Err("convert needs <in.csv> <out.edaf>".into());
        };
        let info =
            convert_to_edaf(input, output, &config).map_err(|e| format!("converting {input}: {e}"))?;
        let in_bytes = std::fs::metadata(input).map_or(0, |m| m.len());
        eprintln!(
            "wrote {output}: {} rows x {} columns, {} -> {} bytes",
            info.nrows,
            info.ncols(),
            in_bytes,
            info.file_bytes
        );
        return Ok(());
    }

    let df = load_data(path, &config).map_err(|e| format!("reading {path}: {e}"))?;
    eprintln!("loaded {path}: {} rows x {} columns", df.nrows(), df.ncols());

    let columns: Vec<&str> = args.positional[1..].iter().map(String::as_str).collect();

    // What the call prints, written to stdout once the call is done.
    let mut terminal = String::new();
    let html = match args.command.as_str() {
        "report" => {
            let report = create_report(&df, &config).map_err(|e| e.to_string())?;
            eprintln!(
                "{} tasks executed, {} shared, {:.3}s",
                report.stats.tasks_run,
                report.stats.cse_hits,
                report.stats.elapsed.as_secs_f64()
            );
            for i in &report.insights {
                let _ = writeln!(terminal, "insight: {}", i.message);
            }
            render_report_html(&report, &config.display)
        }
        "plot" | "corr" | "missing" => {
            let analysis = match args.command.as_str() {
                "plot" => plot(&df, &columns, &config),
                "corr" => plot_correlation(&df, &columns, &config),
                _ => plot_missing(&df, &columns, &config),
            }
            .map_err(|e| e.to_string())?;
            print_analysis(&mut terminal, &analysis);
            render_analysis_html(&analysis, &config.display)
        }
        "ts" => {
            let [_, time, value] = args.positional.as_slice() else {
                return Err("ts needs <data.csv> <time-col> <value-col>".into());
            };
            let analysis =
                plot_timeseries(&df, time, value, &config).map_err(|e| e.to_string())?;
            print_analysis(&mut terminal, &analysis);
            render_analysis_html(&analysis, &config.display)
        }
        other => return Err(format!("unknown command {other:?}\n\n{}", usage())),
    };

    let mut stdout = io::stdout().lock();
    match stdout.write_all(terminal.as_bytes()).and_then(|()| stdout.flush()) {
        // The reader went away: nothing more to print, the page still counts.
        Err(e) if e.kind() != io::ErrorKind::BrokenPipe => {
            return Err(format!("writing to stdout: {e}"));
        }
        _ => {}
    }
    if let Some(out) = &args.output {
        std::fs::write(out, html).map_err(|e| format!("writing {out}: {e}"))?;
        eprintln!("wrote {out}");
    }
    Ok(())
}

/// An analysis as the terminal shows it: its charts in ASCII, then its
/// insights.
fn print_analysis(terminal: &mut String, analysis: &Analysis) {
    for (name, inter) in analysis.intermediates.iter() {
        terminal.push_str(&ascii::render(name, inter));
    }
    for i in &analysis.insights {
        let _ = writeln!(terminal, "insight: {}", i.message);
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
