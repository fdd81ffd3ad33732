//! EDA-L6 — cancellation coverage on kernel paths.
//!
//! Invariant: the governance layer's `CancelToken` / run deadline only
//! works if long-running kernels actually *poll* it. The kernels do
//! this through the `stats::interrupt` probe (or the taskgraph
//! `govern::interrupted` twin) at chunk boundaries. A new kernel
//! that forgets the poll reintroduces the exact failure governance was
//! built to kill: a wedged kernel pins a worker until process death.
//!
//! Rule: every *outermost* loop in a function reachable from a
//! `[l6] roots` entry must poll — meaning the loop body (at any
//! lexical depth inside it) contains a call whose final name segment is
//! one of `[l6] probes`, or a call that resolves to a function which
//! transitively polls. The chunked-kernel idiom passes naturally:
//!
//! ```text
//! for chunk in values.chunks(CHECK_INTERVAL) {
//!     if interrupted() { return Err(...); }   // covers the outer loop
//!     for v in chunk { ... }                  // inner loop covered by ancestor
//! }
//! ```
//!
//! Inner loops are accepted when any enclosing loop polls (the poll
//! happens between inner runs — the same CHECK_INTERVAL granularity the
//! kernels already commit to). Loops that are bounded by construction
//! (per-bin, per-column) carry `// eda-lint: allow(EDA-L6) bounded: <why>`.
//!
//! Approximation: ⊤ calls are *non-polling* — a loop that only polls
//! through a closure or an unresolvable callee needs a marker. Probe
//! detection by name is deliberately resolution-free so that
//! `interrupted()`, `govern::interrupted()`, and
//! `interrupt::interrupted()` all count.

use crate::callgraph::{CallGraph, Resolution};
use crate::parse::{BodyEvent, ParsedFile};
use crate::workspace::FileLex;
use crate::{Diagnostic, RuleId};

/// Run EDA-L6 over the call graph.
pub fn check(
    lexed: &[FileLex],
    parsed: &[ParsedFile],
    graph: &CallGraph,
    roots: &[(String, Vec<usize>)],
    probes: &[String],
) -> Vec<Diagnostic> {
    if probes.is_empty() || roots.is_empty() {
        return Vec::new();
    }
    let is_probe = |name: &str| probes.iter().any(|p| p == name);

    // Fixpoint: which functions poll at least once per invocation?
    // Seed: contains a probe call anywhere. Propagate: calls a polling
    // function. (Monotone over a finite lattice; iterate to stability.)
    let mut polls = vec![false; graph.fns.len()];
    for id in graph.unmasked() {
        let node = &graph.fns[id];
        let f = &parsed[node.file_idx].fns[node.fn_idx];
        if f.events.iter().any(|ev| {
            matches!(ev, BodyEvent::Call { target, .. } if is_probe(target.name()))
        }) {
            polls[id] = true;
        }
    }
    loop {
        let mut changed = false;
        for id in 0..graph.fns.len() {
            if !polls[id] && graph.edges[id].iter().any(|&c| polls[c]) {
                polls[id] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

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
        if f.loops.is_empty() {
            continue;
        }
        // A probe (or call to a polling fn) at loop `l` covers `l` and
        // every enclosing loop (the call sits lexically inside all of
        // them).
        let mut covered = vec![false; f.loops.len()];
        for ev in &f.events {
            let BodyEvent::Call { target, loop_idx: Some(l), .. } = ev else { continue };
            let polling = is_probe(target.name())
                || match graph.resolve(parsed, node.file_idx, node.fn_idx, target) {
                    Resolution::Fns(ids) => ids.iter().any(|&c| polls[c]),
                    _ => false,
                };
            if polling {
                let mut cur = Some(*l);
                while let Some(i) = cur {
                    covered[i] = true;
                    cur = f.loops[i].parent;
                }
            }
        }
        // Report outermost uncovered loops only: an uncovered inner
        // loop always has an uncovered outermost ancestor (coverage
        // propagates up), and one finding per loop nest is actionable.
        for (l, info) in f.loops.iter().enumerate() {
            if info.parent.is_none() && !covered[l] {
                diags.push(Diagnostic {
                    rule: RuleId::L6CancelCoverage,
                    file: file.rel.clone(),
                    line: info.line,
                    message: format!(
                        "loop in `{qname}`, which is reachable from cancellation root \
                         `{root}`, iterates without polling the interrupt probe \
                         ({probe_list}): a wedged or cancelled run cannot stop it; poll \
                         per chunk or mark `// eda-lint: allow(EDA-L6) <why>`",
                        qname = node.qname,
                        root = roots[ri].0,
                        probe_list = probes
                            .iter()
                            .map(|p| format!("`{p}()`"))
                            .collect::<Vec<_>>()
                            .join(", "),
                    ),
                });
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
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
        check(&lexed, &parsed, &graph, &roots, &["interrupted".to_string()])
    }

    #[test]
    fn unpolled_loop_in_root_fires() {
        let d = run(
            &[(
                "crates/stats/src/moments.rs",
                "pub fn push_all(v: &[f64]) {\n    for x in v {\n        consume(x);\n    }\n}\n",
            )],
            &["stats::moments::push_all"],
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, RuleId::L6CancelCoverage);
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn chunked_poll_idiom_passes() {
        let d = run(
            &[(
                "crates/stats/src/moments.rs",
                "pub fn push_all(v: &[f64]) {\n    for chunk in v.chunks(4096) {\n        \
                 if interrupted() { return; }\n        for x in chunk {\n            \
                 consume(x);\n        }\n    }\n}\n",
            )],
            &["stats::moments::push_all"],
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn polling_through_a_callee_counts() {
        let d = run(
            &[(
                "crates/stats/src/moments.rs",
                "pub fn push_all(v: &[f64]) {\n    for chunk in v.chunks(4096) {\n        \
                 kernel(chunk);\n    }\n}\n\
                 fn kernel(c: &[f64]) {\n    if interrupted() { return; }\n}\n",
            )],
            &["stats::moments::push_all"],
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn unpolled_loop_reached_across_crates_fires_once_at_outermost() {
        let d = run(
            &[
                (
                    "crates/taskgraph/src/morsel.rs",
                    "use eda_stats::vector::sum8;\npub fn run_rows(v: &[f64]) { sum8(v); }\n",
                ),
                (
                    "crates/stats/src/vector.rs",
                    "pub fn sum8(v: &[f64]) {\n    for a in v {\n        for b in v {\n            \
                     use_pair(a, b);\n        }\n    }\n}\n",
                ),
            ],
            &["taskgraph::morsel::run_rows"],
        );
        assert_eq!(d.len(), 1, "one finding for the nest, at the outermost loop: {d:?}");
        assert_eq!(d[0].file, "crates/stats/src/vector.rs");
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn loopless_and_unreachable_fns_are_silent() {
        let d = run(
            &[(
                "crates/stats/src/moments.rs",
                "pub fn push_all() { once(); }\n\
                 pub fn unrooted(v: &[f64]) {\n    for x in v { consume(x); }\n}\n",
            )],
            &["stats::moments::push_all"],
        );
        assert!(d.is_empty(), "{d:?}");
    }
}
