//! `eda-lint`: machine-checked project invariants for the workspace.
//!
//! The task-graph core makes promises the compiler cannot check: cache
//! keys must hash identically in every process ([`crate::rules::l1`]),
//! the scheduler and result cache must acquire their mutexes in a
//! consistent global order ([`crate::rules::l3`]), `unsafe` must explain
//! itself ([`crate::rules::l4`]), nothing reachable from a dispatch /
//! kernel / cache / ingestion root may panic ([`crate::rules::l5`]),
//! row-iterating loops on kernel paths must poll the cancellation probe
//! ([`crate::rules::l6`]), and nothing may block on I/O or channels
//! while holding a scheduler lock ([`crate::rules::l7`]).
//!
//! Unlike the first-generation linter, which scoped rules with
//! hand-maintained per-file path lists, the reachability rules (L1, L5,
//! L6) run over a conservative **workspace call graph**
//! ([`crate::callgraph`]) built from a lightweight item/expression
//! parser ([`crate::parse`]) on the existing token stream — no `syn`,
//! no dependencies. Entry points live in a checked-in `lint-roots.toml`
//! ([`Config::from_toml`]); a root spec that stops resolving to a real
//! function is an error, not a silent coverage loss.
//!
//! Rules are suppressed site-by-site with a marker comment on the same
//! line or the line above:
//!
//! ```text
//! // eda-lint: allow(EDA-L5) — len checked two lines up
//! pub fn head(&self) -> &Payload { &self.items[0] }
//! ```
//!
//! Findings can also be blessed wholesale via a baseline file
//! ([`crate::output::Baseline`]): CI fails on *new* findings only, so
//! conservative over-approximation (⊤ edges, indexing sites) does not
//! block adoption.

pub mod callgraph;
pub mod config;
pub mod lexer;
pub mod output;
pub mod parse;
pub mod rules;
pub mod workspace;

use std::fmt;

pub use config::Config;

/// Stable identifier of one lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// Nondeterminism sources (seeded hashers, hash-order iteration,
    /// wall-clock, thread identity) in functions reachable from a
    /// cache-key / fingerprint sink.
    L1Determinism,
    /// Inconsistent lock acquisition order (potential deadlock cycle).
    L3LockOrder,
    /// `unsafe` without a `// SAFETY:` comment.
    L4SafetyComment,
    /// `unwrap()` / `expect()` / `panic!`-family / indexing reachable
    /// from a configured dispatch/kernel/cache/ingestion root.
    L5PanicReach,
    /// A loop reachable from a kernel root that iterates without
    /// polling the cancellation probe.
    L6CancelCoverage,
    /// Blocking operation (file I/O, channel recv, sleep, join) or
    /// same-lock re-acquisition while a lock guard is live.
    L7BlockingLock,
}

impl RuleId {
    /// The stable string form used in diagnostics and allow-markers.
    pub fn code(self) -> &'static str {
        match self {
            RuleId::L1Determinism => "EDA-L1",
            RuleId::L3LockOrder => "EDA-L3",
            RuleId::L4SafetyComment => "EDA-L4",
            RuleId::L5PanicReach => "EDA-L5",
            RuleId::L6CancelCoverage => "EDA-L6",
            RuleId::L7BlockingLock => "EDA-L7",
        }
    }

    /// Parse `EDA-L5` / `L5` (as written in allow-markers and baselines).
    pub fn parse(s: &str) -> Option<RuleId> {
        match s.trim().trim_start_matches("EDA-") {
            "L1" => Some(RuleId::L1Determinism),
            "L3" => Some(RuleId::L3LockOrder),
            "L4" => Some(RuleId::L4SafetyComment),
            "L5" => Some(RuleId::L5PanicReach),
            "L6" => Some(RuleId::L6CancelCoverage),
            "L7" => Some(RuleId::L7BlockingLock),
            _ => None,
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One finding: rule, location, and a human explanation.
///
/// Messages deliberately contain no line numbers — baseline entries key
/// on `(rule, file, message)`, and a message that embeds its own line
/// would invalidate the whole baseline on every unrelated edit above it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub rule: RuleId,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// An in-memory source file handed to the analyses (decoupled from the
/// filesystem so fixture tests can synthesize trees).
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators; rules scope on it.
    pub rel: String,
    pub content: String,
}

/// The result of one analyzer run: surviving diagnostics plus the
/// approximation counters CI asserts on.
#[derive(Debug)]
pub struct Analysis {
    /// Sorted by `(file, line, rule)`, allow-markers applied.
    pub diagnostics: Vec<Diagnostic>,
    pub files: usize,
    /// Functions in the call graph (unmasked under the active cfg set).
    pub functions: usize,
    /// Unresolvable (⊤) call sites — the size of the approximation.
    pub top_edges: usize,
}

/// Resolve every root spec in `specs`, or report the stale ones.
fn resolve_specs(
    graph: &callgraph::CallGraph,
    parsed: &[parse::ParsedFile],
    specs: &[String],
    rule: &str,
    errors: &mut Vec<String>,
) -> Vec<(String, Vec<usize>)> {
    let mut out = Vec::new();
    for spec in specs {
        let ids = graph.resolve_root(parsed, spec);
        if ids.is_empty() {
            errors.push(format!(
                "{rule} root `{spec}` does not resolve to any function in the analyzed tree \
                 (stale lint-roots.toml entry?)"
            ));
        } else {
            out.push((spec.clone(), ids));
        }
    }
    out
}

/// Run every rule over `files` and return the surviving diagnostics,
/// sorted by `(file, line, rule)`. Allow-markers are already applied.
///
/// Errors when a configured root spec no longer resolves — a stale root
/// is silent coverage loss, so it fails loudly (exit 2 in the binary).
pub fn analyze(files: &[SourceFile], config: &Config) -> Result<Analysis, Vec<String>> {
    let lexed: Vec<workspace::FileLex> = files.iter().map(workspace::FileLex::build).collect();
    let parsed: Vec<parse::ParsedFile> = lexed.iter().map(parse::parse_file).collect();
    let graph = callgraph::CallGraph::build(&parsed);

    let mut errors = Vec::new();
    let l5_roots = resolve_specs(&graph, &parsed, &config.l5_roots, "EDA-L5", &mut errors);
    let l6_roots = resolve_specs(&graph, &parsed, &config.l6_roots, "EDA-L6", &mut errors);
    let l1_sinks = resolve_specs(&graph, &parsed, &config.l1_sinks, "EDA-L1", &mut errors);
    if !errors.is_empty() {
        return Err(errors);
    }

    let mut diags = Vec::new();
    diags.extend(rules::l1::check(&lexed, &parsed, &graph, &l1_sinks));
    diags.extend(rules::l3::check(&lexed));
    for file in &lexed {
        diags.extend(rules::l4::check(file));
    }
    diags.extend(rules::l5::check(&lexed, &parsed, &graph, &l5_roots));
    diags.extend(rules::l6::check(&lexed, &parsed, &graph, &l6_roots, &config.l6_probes));
    diags.extend(rules::l7::check(&lexed, &parsed, &graph, &config.l7_crates));

    // Apply allow-markers: a marker on line N suppresses findings on N
    // and N+1 (i.e. markers sit on the offending line or just above it).
    diags.retain(|d| {
        let allowed = lexed
            .iter()
            .find(|f| f.rel == d.file)
            .is_some_and(|f| f.is_allowed(d.rule, d.line));
        !allowed
    });
    diags.sort_by(|a, b| (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message)));
    diags.dedup();
    Ok(Analysis {
        diagnostics: diags,
        files: files.len(),
        functions: graph.unmasked().count(),
        top_edges: graph.top_edges,
    })
}
