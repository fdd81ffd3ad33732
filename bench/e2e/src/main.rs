//! `eda-e2e`: the file-to-HTML, layer-attributed benchmark of
//! `dataprep-eda`. See README.md in this directory.
//!
//! ```text
//! eda-e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, result JSON on the last line
//! eda-e2e [--seed <n>] [--seconds <s>] [--quick]                      every workload, end to end and traced
//! eda-e2e --aa [--seed <n>] [--seconds <s>] [--quick]                 the end-to-end suite twice, compared
//! eda-e2e --emit-benchmark-json                                      the repository's BENCHMARK.json
//! ```

mod calib;
mod child;
mod metrics;
mod probe;
mod proto;
mod run;
mod session;
mod span;
mod summary;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use dataprep_eda::core::json::JsonWriter;

use metrics::{benchmark_json, metrics_json, result_json, Metric, END_TO_END, RUN_SECONDS};
use run::{run_workload, RunOptions, RunResult};
use workload::{Workload, WORKLOADS};

/// `--quick`: 1/20 of the rows, two ops per run.
const QUICK_SCALE: f64 = 0.05;
const QUICK_OPS: usize = 2;
/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

#[derive(Default)]
struct Args {
    workload: Option<String>,
    child: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    aa: bool,
    emit_benchmark_json: bool,
    input: PathBuf,
    html: PathBuf,
    base_us: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 42,
        ..Args::default()
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("missing value after {flag}"));
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {v:?}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--child" => args.child = Some(value()?),
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => {
                let v = value()?;
                args.seconds = Some(
                    v.parse()
                        .map_err(|_| format!("--seconds: not a number: {v:?}"))?,
                );
            }
            "--trace" => args.trace = number(value()?)? != 0,
            "--input" => args.input = value()?.into(),
            "--html" => args.html = value()?.into(),
            "--base-us" => args.base_us = number(value()?)?,
            "--quick" => args.quick = true,
            "--aa" => args.aa = true,
            "--emit-benchmark-json" => args.emit_benchmark_json = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn find(name: &str) -> Result<&'static Workload, String> {
    workload::by_name(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })
}

fn options(args: &Args, trace: bool) -> RunOptions {
    RunOptions {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(RUN_SECONDS as f64),
        trace,
        scale: if args.quick { QUICK_SCALE } else { 1.0 },
        max_ops: args.quick.then_some(QUICK_OPS),
        setup_reps: if trace || args.quick { 1 } else { SETUP_REPS },
    }
}

fn print_result(r: &RunResult, what: &str) {
    println!(
        "{} ({what}): {} rows, {} samples, {} attempted, {} failed, outputs {}",
        r.workload,
        r.rows,
        r.samples,
        r.attempted,
        r.failed,
        if r.correct { "correct" } else { "WRONG" }
    );
    for m in &r.metrics {
        println!("  {:<28} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

/// Commit of the checkout, when it is one and git is there to ask.
fn git_commit() -> String {
    std::process::Command::new("git")
        .args([
            "-C",
            env!("CARGO_MANIFEST_DIR"),
            "rev-parse",
            "--short",
            "HEAD",
        ])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Every workload once, end to end; `Err` only when a run could not be
/// made at all.
fn suite(args: &Args) -> Result<Vec<RunResult>, String> {
    WORKLOADS
        .iter()
        .map(|w| run_workload(w, &options(args, false)))
        .collect()
}

fn value_of(r: &RunResult, name: &str) -> f64 {
    r.metrics
        .iter()
        .find(|m| m.name == name)
        .map_or(0.0, |m| m.value)
}

/// `--aa`: the same build measured twice; every end-to-end metric of every
/// workload must agree within its bound.
fn aa(args: &Args) -> Result<bool, String> {
    let (first, second) = (suite(args)?, suite(args)?);
    let mut within = true;
    println!(
        "{:<22} {:<14} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    for (a, b) in first.iter().zip(&second) {
        for m in &END_TO_END {
            let (x, y) = (value_of(a, m.name), value_of(b, m.name));
            let worse = if m.higher_is_better {
                (x - y) / x
            } else {
                (y - x) / x
            };
            let ok = worse.abs() <= m.bound;
            within &= ok && a.correct && b.correct;
            println!(
                "{:<22} {:<14} {x:>14.4} {y:>14.4} {:>8.2}% {:>6.0}%{}",
                a.workload,
                m.name,
                worse * 100.0,
                m.bound * 100.0,
                if ok { "" } else { "  OUTSIDE" }
            );
        }
    }
    Ok(within)
}

/// Every workload, end to end and then traced, with the context a reader
/// needs to compare two hosts; the last line is one JSON document.
fn full(args: &Args) -> Result<bool, String> {
    let context = [
        ("host_cores", host_cores().to_string()),
        ("seed", args.seed.to_string()),
        ("features", JsonWriter::string("default")),
        ("git_commit", JsonWriter::string(&git_commit())),
        ("quick", args.quick.to_string()),
    ];
    for (key, value) in &context {
        println!("{key}: {value}");
    }
    let mut ok = true;
    let mut docs = Vec::new();
    for w in &WORKLOADS {
        let plain = run_workload(w, &options(args, false))?;
        print_result(&plain, "end to end, untraced");
        let traced = run_workload(w, &options(args, true))?;
        print_result(&traced, "per layer, traced");
        ok &= plain.correct && traced.correct;
        let all: Vec<Metric> = plain
            .metrics
            .iter()
            .chain(&traced.metrics)
            .cloned()
            .collect();
        docs.push(format!(
            "{}: {{\"samples\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            JsonWriter::string(w.name),
            plain.samples,
            plain.attempted + traced.attempted,
            plain.failed + traced.failed,
            metrics_json(&all)
        ));
    }
    let context: Vec<String> = context
        .iter()
        .map(|(k, v)| format!("{}: {v}", JsonWriter::string(k)))
        .collect();
    println!(
        "{{{}, \"workloads\": {{{}}}}}",
        context.join(", "),
        docs.join(", ")
    );
    Ok(ok)
}

fn main_inner() -> Result<bool, String> {
    let args = parse_args()?;
    if args.emit_benchmark_json {
        print!("{}", benchmark_json());
        return Ok(true);
    }
    if let Some(name) = &args.child {
        let report = child::run(
            find(name)?,
            &args.input,
            &args.html,
            args.seed,
            args.trace,
            args.base_us,
        )?;
        print!("{}", report.to_lines());
        return Ok(true);
    }
    if let Some(name) = &args.workload {
        let r = run_workload(find(name)?, &options(&args, args.trace))?;
        print_result(
            &r,
            if args.trace {
                "per layer, traced"
            } else {
                "end to end, untraced"
            },
        );
        println!(
            "{}",
            result_json(r.correct, r.attempted, r.failed, &r.metrics)
        );
        // The result line says whether outputs were correct; the exit code
        // only says whether a result could be produced.
        return Ok(true);
    }
    if args.aa {
        aa(&args)
    } else {
        full(&args)
    }
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("eda-e2e: {msg}");
            ExitCode::FAILURE
        }
    }
}
