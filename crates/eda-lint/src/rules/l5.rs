//! EDA-L5 — panic-reachability from configured roots.
//!
//! Invariant: nothing transitively reachable from a dispatch, kernel,
//! cache, or ingestion entry point (the `[l5] roots` in
//! `lint-roots.toml`) may panic. Workers wrap kernels in `catch_unwind`,
//! so a panic is not a crash but a silently degraded report — the exact
//! failure mode the paper's "always return a complete report" promise
//! forbids. This replaces the first-generation EDA-L2 rule's
//! hand-maintained per-file lists: coverage now follows the call graph
//! across crates, so a helper extracted into `core` or `dataframe`
//! stays covered without anyone editing the linter.
//!
//! Panic sites: `.unwrap()` / `.expect()` in method position, the
//! `panic!`/`unreachable!`/`todo!`/`unimplemented!` macros, and
//! `expr[...]` indexing (out-of-bounds panics). Indexing is reported at
//! the same severity but is expected to be blessed en masse via the
//! baseline — kernels index heavily against locally-proven bounds — while
//! unwrap/expect/panic findings are expected to be fixed or carry
//! per-site allow-markers.
//!
//! Approximation: ⊤ (unresolved) calls are treated as *non-panicking* —
//! a closure handed to the scheduler is invisible to this rule. The
//! roots list compensates by rooting every dispatch layer (scheduler
//! entry, stats kernels, io folds) directly, so the
//! code a closure jumps into is itself a root. Messages contain no line
//! numbers so baseline entries survive unrelated edits.

use crate::callgraph::CallGraph;
use crate::parse::{BodyEvent, PanicKind, ParsedFile};
use crate::workspace::FileLex;
use crate::{Diagnostic, RuleId};

/// Run EDA-L5: reachability from each root group, then report every
/// panic site inside a reached function.
pub fn check(
    lexed: &[FileLex],
    parsed: &[ParsedFile],
    graph: &CallGraph,
    roots: &[(String, Vec<usize>)],
) -> Vec<Diagnostic> {
    let groups: Vec<Vec<usize>> = roots.iter().map(|(_, ids)| ids.clone()).collect();
    let reach = graph.reachable(&groups);
    let mut diags = Vec::new();
    for id in graph.unmasked() {
        let Some(ri) = reach[id] else { continue };
        let node = &graph.fns[id];
        let file = &lexed[node.file_idx];
        if file.is_test_or_bench() {
            continue;
        }
        let f = &parsed[node.file_idx].fns[node.fn_idx];
        let root = &roots[ri].0;
        for ev in &f.events {
            let BodyEvent::Panic { kind, what, line } = ev else { continue };
            let message = match kind {
                PanicKind::UnwrapExpect => format!(
                    "`{what}` in `{qname}`, which is panic-reachable from root `{root}`: a \
                     failure here degrades the whole report instead of surfacing a \
                     `TaskError`; return an error, recover, or mark the site \
                     `// eda-lint: allow(EDA-L5) <why>`",
                    qname = node.qname
                ),
                PanicKind::Macro => format!(
                    "`{what}` in `{qname}`, which is panic-reachable from root `{root}`: \
                     panics here become silently degraded reports; construct a \
                     `TaskError`/`Error` instead, or mark the site \
                     `// eda-lint: allow(EDA-L5) <why>`",
                    qname = node.qname
                ),
                PanicKind::Index => format!(
                    "indexing `{what}[..]` in `{qname}`, which is panic-reachable from root \
                     `{root}`: out-of-bounds panics degrade the report; use `.get(..)`, \
                     prove the bound and mark the site, or bless it in the baseline",
                    qname = node.qname
                ),
            };
            diags.push(Diagnostic {
                rule: RuleId::L5PanicReach,
                file: file.rel.clone(),
                line: *line,
                message,
            });
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;
    use crate::parse::parse_file;
    use crate::SourceFile;

    fn run(files: &[(&str, &str)], root_specs: &[&str]) -> Vec<Diagnostic> {
        let lexed: Vec<FileLex> = files
            .iter()
            .map(|(rel, content)| {
                FileLex::build(&SourceFile { rel: rel.to_string(), content: content.to_string() })
            })
            .collect();
        let parsed: Vec<ParsedFile> = lexed.iter().map(parse_file).collect();
        let graph = CallGraph::build(&parsed);
        let roots: Vec<(String, Vec<usize>)> = root_specs
            .iter()
            .map(|s| {
                let ids = graph.resolve_root(&parsed, s);
                assert!(!ids.is_empty(), "root {s} must resolve");
                (s.to_string(), ids)
            })
            .collect();
        check(&lexed, &parsed, &graph, &roots)
    }

    #[test]
    fn direct_panic_in_root_fires() {
        let d = run(
            &[(
                "crates/taskgraph/src/scheduler.rs",
                "pub fn run_pool(x: Option<u8>) {\n    x.unwrap();\n}\n",
            )],
            &["taskgraph::scheduler::run_pool"],
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, RuleId::L5PanicReach);
        assert_eq!(d[0].line, 2);
        assert!(d[0].message.contains("run_pool"), "{}", d[0].message);
    }

    #[test]
    fn unreachable_panic_does_not_fire() {
        let d = run(
            &[(
                "crates/taskgraph/src/scheduler.rs",
                "pub fn run_pool() {}\npub fn cli_only(x: Option<u8>) { x.unwrap(); }\n",
            )],
            &["taskgraph::scheduler::run_pool"],
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn panic_two_crates_from_root_is_caught() {
        // Root in taskgraph → helper in core → panic in stats: the
        // acceptance-criteria case, two crates away from its root.
        let d = run(
            &[
                (
                    "crates/taskgraph/src/scheduler.rs",
                    "use eda_core::compute::prepare;\npub fn run_pool() { prepare(); }\n",
                ),
                (
                    "crates/core/src/compute.rs",
                    "use eda_stats::moments::push_all;\npub fn prepare() { push_all(); }\n",
                ),
                (
                    "crates/stats/src/moments.rs",
                    "pub fn push_all(v: &[f64]) -> f64 {\n    v[0]\n}\n",
                ),
            ],
            &["taskgraph::scheduler::run_pool"],
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].file, "crates/stats/src/moments.rs");
        assert_eq!(d[0].line, 2);
        assert!(d[0].message.contains("taskgraph::scheduler::run_pool"), "{}", d[0].message);
    }

    #[test]
    fn first_root_group_wins_attribution() {
        let d = run(
            &[(
                "crates/stats/src/moments.rs",
                "pub fn a(x: Option<u8>) { shared(x); }\npub fn b(x: Option<u8>) { shared(x); }\n\
                 fn shared(x: Option<u8>) { x.unwrap(); }\n",
            )],
            &["stats::moments::a", "stats::moments::b"],
        );
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("stats::moments::a"), "{}", d[0].message);
    }
}
