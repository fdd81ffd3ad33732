//! The `eda-lint` binary: lint the workspace, print diagnostics, exit
//! nonzero when any rule fires.
//!
//! ```text
//! cargo run -p eda-lint                          # lint, roots from lint-roots.toml
//! cargo run -p eda-lint -- --format json --out findings.json
//! cargo run -p eda-lint -- --baseline lint-baseline.json   # fail on NEW findings only
//! cargo run -p eda-lint -- --write-baseline lint-baseline.json  # bless current findings
//! cargo run -p eda-lint -- --locks               # also dump the extracted lock graph
//! cargo run -p eda-lint -- --root X --roots X/lint-roots.toml   # lint a different tree
//! ```
//!
//! Exit codes: 0 clean (or all findings baselined), 1 findings, 2 usage
//! / I/O / stale-root errors.

use std::path::PathBuf;
use std::process::ExitCode;

use eda_lint::output::{to_json, Baseline};
use eda_lint::{analyze, workspace, Config, RuleId};

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut roots_file: Option<PathBuf> = None;
    let mut format = String::from("text");
    let mut out: Option<PathBuf> = None;
    let mut baseline_path: Option<PathBuf> = None;
    let mut write_baseline: Option<PathBuf> = None;
    let mut dump_locks = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "--roots" => roots_file = args.next().map(PathBuf::from),
            "--format" => match args.next().as_deref() {
                Some(f @ ("text" | "json")) => format = f.to_string(),
                other => {
                    eprintln!("eda-lint: --format expects `text` or `json`, got {other:?}");
                    return ExitCode::from(2);
                }
            },
            "--out" => out = args.next().map(PathBuf::from),
            "--baseline" => baseline_path = args.next().map(PathBuf::from),
            "--write-baseline" => write_baseline = args.next().map(PathBuf::from),
            "--locks" => dump_locks = true,
            "--help" | "-h" => {
                println!(
                    "eda-lint: workspace invariant checks over a conservative call graph\n\n\
                     USAGE: eda-lint [--root DIR] [--roots FILE]\n       \
                     [--format text|json] [--out FILE]\n       \
                     [--baseline FILE] [--write-baseline FILE] [--locks]\n\n\
                     Rules:\n  \
                     EDA-L1  no nondeterminism sources reachable from cache-key/fingerprint sinks\n  \
                     EDA-L3  consistent lock acquisition order (deadlock freedom)\n  \
                     EDA-L4  every `unsafe` carries a `// SAFETY:` comment\n  \
                     EDA-L5  no panic site reachable from dispatch/kernel/cache/ingest roots\n  \
                     EDA-L6  loops on kernel paths poll the cancellation probe\n  \
                     EDA-L7  no blocking I/O/recv/sleep/join while a lock guard is live\n\n\
                     Entry points live in lint-roots.toml at the workspace root (override\n\
                     with --roots). A root that no longer resolves is an error (exit 2).\n\
                     Suppress one site with `// eda-lint: allow(EDA-L5) <why>` on the\n\
                     offending line or the line above; bless whole findings with\n\
                     --write-baseline and ratchet with --baseline (fails on NEW findings\n\
                     only)."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("eda-lint: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }
    // Default root: the workspace containing this crate when run via
    // `cargo run -p eda-lint` (manifest dir is crates/eda-lint), else
    // the current directory.
    let root = root.unwrap_or_else(|| {
        std::env::var_os("CARGO_MANIFEST_DIR")
            .map(|m| PathBuf::from(m).join("../.."))
            .filter(|p| p.join("Cargo.toml").is_file())
            .unwrap_or_else(|| PathBuf::from("."))
    });

    let config = {
        let result = match &roots_file {
            Some(path) => std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))
                .and_then(|text| Config::from_toml(&text)),
            None => Config::load(&root),
        };
        match result {
            Ok(c) => c,
            Err(err) => {
                eprintln!("eda-lint: {err}");
                return ExitCode::from(2);
            }
        }
    };

    let files = match workspace::collect_workspace(&root) {
        Ok(files) => files,
        Err(err) => {
            eprintln!("eda-lint: cannot read workspace at {}: {err}", root.display());
            return ExitCode::from(2);
        }
    };
    if files.is_empty() {
        eprintln!("eda-lint: no sources found under {}", root.display());
        return ExitCode::from(2);
    }

    if dump_locks {
        let lexed: Vec<workspace::FileLex> =
            files.iter().map(workspace::FileLex::build).collect();
        let graph = eda_lint::rules::l3::extract(&lexed);
        println!("lock graph: {} lock name(s), {} edge(s)", graph.locks.len(), graph.edges.len());
        for (lock, (file, line)) in &graph.locks {
            println!("  lock `{lock}` (first seen {file}:{line})");
        }
        for e in &graph.edges {
            match &e.via {
                Some(via) => println!(
                    "  edge `{}` -> `{}` at {}:{} via `{via}`",
                    e.from, e.to, e.file, e.line
                ),
                None => println!("  edge `{}` -> `{}` at {}:{}", e.from, e.to, e.file, e.line),
            }
        }
    }

    let mut analysis = match analyze(&files, &config) {
        Ok(a) => a,
        Err(errors) => {
            for e in &errors {
                eprintln!("eda-lint: {e}");
            }
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &write_baseline {
        let baseline = Baseline::from_diags(&analysis.diagnostics);
        if let Err(err) = std::fs::write(path, baseline.to_json()) {
            eprintln!("eda-lint: cannot write {}: {err}", path.display());
            return ExitCode::from(2);
        }
        println!(
            "eda-lint: blessed {} finding(s) into {}",
            analysis.diagnostics.len(),
            path.display()
        );
        return ExitCode::SUCCESS;
    }

    let mut baselined = 0usize;
    if let Some(path) = &baseline_path {
        let baseline = match std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))
            .and_then(|text| Baseline::parse(&text))
        {
            Ok(b) => b,
            Err(err) => {
                eprintln!("eda-lint: {err}");
                return ExitCode::from(2);
            }
        };
        let total = analysis.diagnostics.len();
        analysis.diagnostics = baseline.filter_new(&analysis.diagnostics);
        baselined = total - analysis.diagnostics.len();
    }

    let rendered = match format.as_str() {
        "json" => to_json(&analysis),
        _ => {
            let mut s = String::new();
            for d in &analysis.diagnostics {
                s.push_str(&d.to_string());
                s.push('\n');
            }
            s
        }
    };
    match &out {
        Some(path) => {
            if let Err(err) = std::fs::write(path, &rendered) {
                eprintln!("eda-lint: cannot write {}: {err}", path.display());
                return ExitCode::from(2);
            }
        }
        None => print!("{rendered}"),
    }

    let count_of =
        |rule: RuleId| analysis.diagnostics.iter().filter(|d| d.rule == rule).count();
    let baseline_note = if baselined > 0 {
        format!(", {baselined} baselined finding(s) suppressed")
    } else {
        String::new()
    };
    if analysis.diagnostics.is_empty() {
        eprintln!(
            "eda-lint: clean — {} file(s), {} function(s), {} unresolved (top) call site(s), \
             0 new violations{baseline_note}",
            analysis.files, analysis.functions, analysis.top_edges
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "eda-lint: {} violation(s) in {} file(s) ({} function(s), {} top call site(s)\
             {baseline_note}) — L1: {}, L3: {}, L4: {}, L5: {}, L6: {}, L7: {}",
            analysis.diagnostics.len(),
            analysis.files,
            analysis.functions,
            analysis.top_edges,
            count_of(RuleId::L1Determinism),
            count_of(RuleId::L3LockOrder),
            count_of(RuleId::L4SafetyComment),
            count_of(RuleId::L5PanicReach),
            count_of(RuleId::L6CancelCoverage),
            count_of(RuleId::L7BlockingLock),
        );
        ExitCode::FAILURE
    }
}
