//! CI perf-regression gate: compare a fresh benchmark result file
//! against the blessed baseline committed under `bench/baselines/`.
//!
//! Usage:
//! `cargo run -p eda-bench --release --bin bench-regress -- \
//!    --experiment ingest --baseline bench/baselines/BENCH_ingest.json \
//!    --fresh /tmp/BENCH_ingest.json [--tolerance 0.15] [--out delta.txt]`
//!
//! Both files are schema-validated, then the experiment's ratio metrics
//! (machine-independent by construction) are compared within the
//! tolerance band; see [`eda_bench::regress`]. Exits 1 on any regression
//! or schema violation, after printing (and optionally writing) the
//! per-metric delta summary. Improvements pass — bless them by
//! committing the fresh file over the baseline.

use eda_bench::regress::{compare, experiment, parse_flat_json, summary};
use eda_bench::{arg_f64, arg_str};

fn main() {
    std::process::exit(run());
}

fn run() -> i32 {
    let Some(name) = arg_str("--experiment") else {
        eprintln!("bench-regress: missing --experiment <name>");
        return 2;
    };
    let Some(spec) = experiment(&name) else {
        eprintln!("bench-regress: unknown experiment {name:?}");
        return 2;
    };
    let tolerance = arg_f64("--tolerance", 0.15);
    let (Some(baseline_path), Some(fresh_path)) = (arg_str("--baseline"), arg_str("--fresh"))
    else {
        eprintln!("bench-regress: missing --baseline <path> / --fresh <path>");
        return 2;
    };
    let read = |path: &str| -> Result<_, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        parse_flat_json(&text).map_err(|e| format!("{path}: {e}"))
    };
    let docs = read(&baseline_path).and_then(|b| Ok((b, read(&fresh_path)?)));
    let deltas = match docs.and_then(|(b, f)| compare(spec, &b, &f, tolerance)) {
        Ok(deltas) => deltas,
        Err(e) => {
            eprintln!("bench-regress: {e}");
            return 1;
        }
    };
    let text = summary(&name, &deltas, tolerance);
    print!("{text}");
    if let Some(out) = arg_str("--out") {
        if let Err(e) = std::fs::write(&out, &text) {
            eprintln!("bench-regress: write {out}: {e}");
            return 2;
        }
    }
    i32::from(deltas.iter().any(|d| d.regressed))
}
