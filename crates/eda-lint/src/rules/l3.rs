//! EDA-L3 — consistent lock acquisition order.
//!
//! Invariant: any two mutexes the scheduler/cache core can hold at the
//! same time must always be acquired in the same global order, or two
//! threads can deadlock (concurrent runs consult one `ResultCache`
//! while the admission gate and the session cache registry hold their
//! own locks around them). The rule extracts every lock acquisition in the
//! workspace, tracks which locks are (possibly) still held when the next
//! acquisition or call happens, propagates lock-sets through the
//! workspace call graph to a fixed point, and reports any cycle in the
//! resulting acquired-before relation.
//!
//! The analysis is deliberately conservative, and instance-insensitive:
//!
//! * A lock is named by the receiver identifier of `.lock()` / `.read()`
//!   / `.write()` (argument-less calls only, so `io::Read::read(&mut
//!   buf)` never matches). Two fields with the same name alias.
//! * A guard bound by `let` is assumed held until `drop(guard)` or the
//!   end of the function; an unbound (temporary) guard dies at the end
//!   of its statement. Both err toward holding longer.
//! * Calls are matched by name against every `fn` defined in the
//!   workspace (free functions and methods alike), merging namesakes.
//! * Self-edges (`results[a]` vs `results[b]`) are dropped: the analysis
//!   cannot distinguish instances, and same-name nesting is ubiquitous
//!   and usually index-disjoint.
//!
//! False cycles from aliasing can be silenced with an
//! `eda-lint: allow(EDA-L3)` marker at the reported acquisition site.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{Tok, TokKind};
use crate::workspace::FileLex;
use crate::{Diagnostic, RuleId};

/// Methods that acquire a lock when called with no arguments.
const LOCK_METHODS: &[&str] = &["lock", "read", "write"];

/// One `acquired-before` edge: while `from` was (possibly) held, `to`
/// was acquired — directly or transitively through a call to `via`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edge {
    pub from: String,
    pub to: String,
    pub file: String,
    pub line: u32,
    /// The called function whose lock-set produced this edge, when the
    /// acquisition is not syntactically at `line`.
    pub via: Option<String>,
}

/// The extracted acquired-before relation (exposed for `--locks`).
#[derive(Debug, Default)]
pub struct LockGraph {
    pub edges: Vec<Edge>,
    /// Every lock name seen, with one representative acquisition site.
    pub locks: BTreeMap<String, (String, u32)>,
}

/// Run EDA-L3 over the whole workspace.
pub fn check(files: &[FileLex]) -> Vec<Diagnostic> {
    let graph = extract(files);
    cycles(&graph)
        .into_iter()
        .map(|cycle| {
            let first = &cycle[0];
            let path: Vec<&str> = cycle
                .iter()
                .map(|e| e.from.as_str())
                .chain(std::iter::once(cycle[0].from.as_str()))
                .collect();
            let sites: Vec<String> = cycle
                .iter()
                .map(|e| match &e.via {
                    Some(via) => format!("{}:{} (via `{via}`)", e.file, e.line),
                    None => format!("{}:{}", e.file, e.line),
                })
                .collect();
            Diagnostic {
                rule: RuleId::L3LockOrder,
                file: first.file.clone(),
                line: first.line,
                message: format!(
                    "inconsistent lock acquisition order {} — two threads taking these \
                     locks in opposite orders can deadlock; acquisition sites: {}",
                    path.join(" -> "),
                    sites.join(", ")
                ),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Event extraction
// ---------------------------------------------------------------------

/// What happens, in order, inside one function body.
#[derive(Debug)]
enum Event {
    Acquire { lock: String, guard: Option<String>, line: u32 },
    DropGuard { var: String },
    Call { name: String, line: u32 },
    StmtEnd,
}

#[derive(Debug)]
struct Func {
    name: String,
    file: String,
    events: Vec<Event>,
}

/// Extract the acquired-before relation from every file.
pub fn extract(files: &[FileLex]) -> LockGraph {
    let mut funcs: Vec<Func> = Vec::new();
    for file in files {
        collect_functions(file, &mut funcs);
    }
    let defined: BTreeSet<&str> = funcs.iter().map(|f| f.name.as_str()).collect();

    // Direct lock-sets, then propagate through calls to a fixed point.
    let mut locksets: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for f in &funcs {
        let entry = locksets.entry(f.name.clone()).or_default();
        for e in &f.events {
            if let Event::Acquire { lock, .. } = e {
                entry.insert(lock.clone());
            }
        }
    }
    loop {
        let mut changed = false;
        for f in &funcs {
            let mut add: BTreeSet<String> = BTreeSet::new();
            for e in &f.events {
                if let Event::Call { name, .. } = e {
                    if let Some(callee) = locksets.get(name.as_str()) {
                        add.extend(callee.iter().cloned());
                    }
                }
            }
            let entry = locksets.entry(f.name.clone()).or_default();
            let before = entry.len();
            entry.extend(add);
            changed |= entry.len() != before;
        }
        if !changed {
            break;
        }
    }

    // Simulate each function, emitting edges from held locks.
    let mut graph = LockGraph::default();
    for f in &funcs {
        let mut held: Vec<(String, Option<String>)> = Vec::new();
        for e in &f.events {
            match e {
                Event::Acquire { lock, guard, line } => {
                    graph
                        .locks
                        .entry(lock.clone())
                        .or_insert_with(|| (f.file.clone(), *line));
                    for (h, _) in &held {
                        if h != lock {
                            graph.edges.push(Edge {
                                from: h.clone(),
                                to: lock.clone(),
                                file: f.file.clone(),
                                line: *line,
                                via: None,
                            });
                        }
                    }
                    held.push((lock.clone(), guard.clone()));
                }
                Event::DropGuard { var } => {
                    held.retain(|(_, g)| g.as_deref() != Some(var.as_str()));
                }
                Event::Call { name, line } => {
                    if held.is_empty() || !defined.contains(name.as_str()) {
                        continue;
                    }
                    if let Some(callee_locks) = locksets.get(name.as_str()) {
                        for l in callee_locks {
                            for (h, _) in &held {
                                if h != l {
                                    graph.edges.push(Edge {
                                        from: h.clone(),
                                        to: l.clone(),
                                        file: f.file.clone(),
                                        line: *line,
                                        via: Some(name.clone()),
                                    });
                                }
                            }
                        }
                    }
                }
                Event::StmtEnd => {
                    held.retain(|(_, g)| g.is_some());
                }
            }
        }
    }
    graph.edges.dedup_by(|a, b| a.from == b.from && a.to == b.to && a.via == b.via);
    graph
}

/// Find every `fn name ... { body }` in the file and extract its events.
/// Bodies of nested functions are also visited as part of the parent
/// (conservative). Test-masked functions are skipped.
fn collect_functions(file: &FileLex, out: &mut Vec<Func>) {
    let toks = &file.lexed.tokens;
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("fn")
            && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident)
            && !file.is_masked(toks[i].line)
        {
            let name = toks[i + 1].text.clone();
            // Find the body's opening brace, or `;` for bodyless trait
            // method declarations.
            let mut j = i + 2;
            while j < toks.len() && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
                j += 1;
            }
            if j < toks.len() && toks[j].is_punct('{') {
                let mut depth = 1usize;
                let body_start = j + 1;
                let mut k = body_start;
                while k < toks.len() && depth > 0 {
                    match toks[k].kind {
                        TokKind::Punct('{') => depth += 1,
                        TokKind::Punct('}') => depth -= 1,
                        _ => {}
                    }
                    k += 1;
                }
                out.push(Func {
                    name,
                    file: file.rel.clone(),
                    events: extract_events(&toks[body_start..k.saturating_sub(1)]),
                });
            }
            i += 2;
            continue;
        }
        i += 1;
    }
}

/// Walk one body's tokens and produce the ordered event stream.
fn extract_events(toks: &[Tok]) -> Vec<Event> {
    let mut events = Vec::new();
    let mut pending_let: Option<String> = None;
    let mut i = 0;
    while i < toks.len() {
        let tok = &toks[i];
        match tok.kind {
            TokKind::Ident if tok.text == "let" => {
                // Binding name: the next identifier that isn't `mut`.
                let mut j = i + 1;
                while j < toks.len() && toks[j].is_ident("mut") {
                    j += 1;
                }
                if j < toks.len() && toks[j].kind == TokKind::Ident {
                    pending_let = Some(toks[j].text.clone());
                }
            }
            TokKind::Ident if tok.text == "drop"
                // `drop(guard)` releases a named guard.
                && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
                    && toks.get(i + 2).is_some_and(|t| t.kind == TokKind::Ident)
                    && toks.get(i + 3).is_some_and(|t| t.is_punct(')'))
                => {
                    events.push(Event::DropGuard { var: toks[i + 2].text.clone() });
                    i += 4;
                    continue;
                }
            TokKind::Punct('.')
                if toks.get(i + 1).is_some_and(|t| {
                    t.kind == TokKind::Ident && LOCK_METHODS.contains(&t.text.as_str())
                }) && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
                    && toks.get(i + 3).is_some_and(|t| t.is_punct(')')) =>
            {
                let lock = receiver_name(toks, i).unwrap_or_else(|| "<expr>".into());
                events.push(Event::Acquire {
                    lock,
                    guard: pending_let.clone(),
                    line: toks[i + 1].line,
                });
                i += 4;
                continue;
            }
            TokKind::Ident
                // A call: `name(` — free function or method; macros
                // (`name!`) are not calls.
                if toks.get(i + 1).is_some_and(|t| t.is_punct('(')) && tok.text != "drop" => {
                    events.push(Event::Call { name: tok.text.clone(), line: tok.line });
                }
            TokKind::Punct(';') => {
                events.push(Event::StmtEnd);
                pending_let = None;
            }
            _ => {}
        }
        i += 1;
    }
    events
}

/// The receiver identifier of a method call whose `.` is at `dot`:
/// walk left over index/call suffixes to the nearest plain identifier.
fn receiver_name(toks: &[Tok], dot: usize) -> Option<String> {
    let mut i = dot;
    while i > 0 {
        i -= 1;
        match toks[i].kind {
            TokKind::Ident => return Some(toks[i].text.clone()),
            TokKind::Punct(']') => {
                let mut depth = 1usize;
                while i > 0 && depth > 0 {
                    i -= 1;
                    match toks[i].kind {
                        TokKind::Punct(']') => depth += 1,
                        TokKind::Punct('[') => depth -= 1,
                        _ => {}
                    }
                }
            }
            TokKind::Punct(')') => {
                let mut depth = 1usize;
                while i > 0 && depth > 0 {
                    i -= 1;
                    match toks[i].kind {
                        TokKind::Punct(')') => depth += 1,
                        TokKind::Punct('(') => depth -= 1,
                        _ => {}
                    }
                }
            }
            _ => return None,
        }
    }
    None
}

// ---------------------------------------------------------------------
// Cycle detection
// ---------------------------------------------------------------------

/// Every elementary cycle in the acquired-before relation, each reported
/// once (canonicalized by its lexicographically-least rotation). Returns
/// the edge list of each cycle.
fn cycles(graph: &LockGraph) -> Vec<Vec<Edge>> {
    // lock -> outgoing edges (first edge per (from, to) pair wins).
    let mut adj: BTreeMap<&str, Vec<&Edge>> = BTreeMap::new();
    for e in &graph.edges {
        let out = adj.entry(e.from.as_str()).or_default();
        if !out.iter().any(|x| x.to == e.to) {
            out.push(e);
        }
    }
    let mut seen: BTreeSet<Vec<String>> = BTreeSet::new();
    let mut found: Vec<Vec<Edge>> = Vec::new();
    let nodes: Vec<&str> = adj.keys().copied().collect();
    for &start in &nodes {
        // DFS bounded to paths starting at `start`; cycles are recorded
        // only when they return to `start`, so each elementary cycle is
        // discovered from each of its nodes and deduped canonically.
        let mut stack: Vec<(&str, usize)> = vec![(start, 0)];
        let mut path: Vec<&Edge> = Vec::new();
        while let Some((node, next_i)) = stack.pop() {
            let outs = adj.get(node).map_or(&[][..], Vec::as_slice);
            if next_i >= outs.len() {
                path.pop();
                continue;
            }
            stack.push((node, next_i + 1));
            let edge = outs[next_i];
            if edge.to == start {
                let mut cycle: Vec<Edge> = path.iter().map(|&e| (*e).clone()).collect();
                cycle.push(edge.clone());
                let mut names: Vec<String> = cycle.iter().map(|e| e.from.clone()).collect();
                let min = names
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, n)| n.as_str())
                    .map_or(0, |(i, _)| i);
                names.rotate_left(min);
                if seen.insert(names) {
                    let mut rotated = cycle.clone();
                    rotated.rotate_left(min);
                    found.push(rotated);
                }
                continue;
            }
            if path.iter().any(|e| e.from == edge.to) || edge.to == node {
                continue; // already on this path
            }
            path.push(edge);
            stack.push((edge.to.as_str(), 0));
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SourceFile;

    fn files(srcs: &[(&str, &str)]) -> Vec<FileLex> {
        srcs.iter()
            .map(|(rel, content)| {
                FileLex::build(&SourceFile { rel: (*rel).into(), content: (*content).into() })
            })
            .collect()
    }

    #[test]
    fn opposite_orders_form_a_cycle() {
        let fs = files(&[(
            "crates/x/src/a.rs",
            "fn p1(s: &S) { let g1 = s.alpha.lock(); let g2 = s.beta.lock(); }\n\
             fn p2(s: &S) { let g1 = s.beta.lock(); let g2 = s.alpha.lock(); }\n",
        )]);
        let d = check(&fs);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("alpha") && d[0].message.contains("beta"), "{}", d[0]);
    }

    #[test]
    fn consistent_order_is_clean() {
        let fs = files(&[(
            "crates/x/src/a.rs",
            "fn p1(s: &S) { let g1 = s.alpha.lock(); let g2 = s.beta.lock(); }\n\
             fn p2(s: &S) { let g1 = s.alpha.lock(); let g2 = s.beta.lock(); }\n",
        )]);
        assert!(check(&fs).is_empty());
    }

    #[test]
    fn drop_releases_the_guard() {
        let fs = files(&[(
            "crates/x/src/a.rs",
            "fn p1(s: &S) { let g1 = s.alpha.lock(); drop(g1); let g2 = s.beta.lock(); }\n\
             fn p2(s: &S) { let g1 = s.beta.lock(); drop(g1); let g2 = s.alpha.lock(); }\n",
        )]);
        assert!(check(&fs).is_empty());
    }

    #[test]
    fn temporaries_die_at_statement_end() {
        let fs = files(&[(
            "crates/x/src/a.rs",
            "fn p1(s: &S) { *s.alpha.lock() = 1; let g2 = s.beta.lock(); }\n\
             fn p2(s: &S) { *s.beta.lock() = 1; let g2 = s.alpha.lock(); }\n",
        )]);
        assert!(check(&fs).is_empty());
    }

    #[test]
    fn cycles_through_calls_are_found() {
        let fs = files(&[(
            "crates/x/src/a.rs",
            "fn leaf_b(s: &S) { let g = s.beta.lock(); }\n\
             fn p1(s: &S) { let g1 = s.alpha.lock(); leaf_b(s); }\n\
             fn p2(s: &S) { let g1 = s.beta.lock(); let g2 = s.alpha.lock(); }\n",
        )]);
        let d = check(&fs);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("alpha") && d[0].message.contains("beta"));
    }

    #[test]
    fn io_read_with_args_is_not_a_lock() {
        let fs = files(&[(
            "crates/x/src/a.rs",
            "fn p1(s: &S) { let g = s.alpha.lock(); file.read(&mut buf); }\n\
             fn p2(s: &S) { let n = file.read(&mut buf); let g = s.alpha.lock(); }\n",
        )]);
        assert!(check(&fs).is_empty());
    }

    #[test]
    fn self_edges_are_ignored() {
        let fs = files(&[(
            "crates/x/src/a.rs",
            "fn p(s: &S, a: usize, b: usize) { let g1 = s.cells[a].lock(); let g2 = s.cells[b].lock(); }\n",
        )]);
        assert!(check(&fs).is_empty());
    }

    #[test]
    fn indexed_receiver_names_the_collection() {
        let fs = files(&[(
            "crates/x/src/a.rs",
            "fn p(s: &S) { let g = s.cells[i].lock(); }\n",
        )]);
        let g = extract(&fs);
        assert!(g.locks.contains_key("cells"), "{:?}", g.locks);
    }

    #[test]
    fn rwlock_read_write_participate() {
        let fs = files(&[(
            "crates/x/src/a.rs",
            "fn p1(s: &S) { let g1 = s.alpha.read(); let g2 = s.beta.write(); }\n\
             fn p2(s: &S) { let g1 = s.beta.read(); let g2 = s.alpha.write(); }\n",
        )]);
        assert_eq!(check(&fs).len(), 1);
    }
}
