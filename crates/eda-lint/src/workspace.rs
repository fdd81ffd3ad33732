//! File discovery and per-file pre-analysis shared by every rule:
//! lexing, `#[cfg(...)]` masking, and allow-marker extraction.

use std::collections::HashMap;
use std::path::Path;

use crate::lexer::{lex, Lexed, Tok, TokKind};
use crate::{RuleId, SourceFile};

/// A lexed file plus the derived facts rules scope on.
pub struct FileLex {
    pub rel: String,
    pub lexed: Lexed,
    /// Inclusive line ranges covered by items whose `#[cfg(...)]` /
    /// `#[test]` attributes evaluate false in the default build — exempt
    /// from every rule (tests may unwrap; disabled features are not
    /// compiled).
    masked: Vec<(u32, u32)>,
    /// `eda-lint: allow(...)` markers: line → rules allowed there.
    /// A marker suppresses findings on its own line and the next.
    allows: HashMap<u32, Vec<RuleId>>,
}

impl FileLex {
    /// Lex and pre-analyze one source file with no cargo features
    /// enabled (the default build's view of the tree).
    pub fn build(src: &SourceFile) -> FileLex {
        let lexed = lex(&src.content);
        let masked = cfg_masks(&lexed);
        let mut allows: HashMap<u32, Vec<RuleId>> = HashMap::new();
        for comment in &lexed.comments {
            if let Some(pos) = comment.text.find("eda-lint: allow(") {
                let rest = &comment.text[pos + "eda-lint: allow(".len()..];
                if let Some(close) = rest.find(')') {
                    let rules: Vec<RuleId> =
                        rest[..close].split(',').filter_map(RuleId::parse).collect();
                    allows.entry(comment.end_line).or_default().extend(rules);
                }
            }
        }
        FileLex { rel: src.rel.clone(), lexed, masked, allows }
    }

    /// Is `line` inside a test-only item?
    pub fn is_masked(&self, line: u32) -> bool {
        self.masked.iter().any(|&(lo, hi)| lo <= line && line <= hi)
    }

    /// Is `rule` allow-marked at `line` (marker on the line itself or the
    /// line above)?
    pub fn is_allowed(&self, rule: RuleId, line: u32) -> bool {
        [line, line.saturating_sub(1)]
            .iter()
            .any(|l| self.allows.get(l).is_some_and(|rs| rs.contains(&rule)))
    }

    /// Does this file's path fall under any of `prefixes`?
    pub fn in_paths(&self, prefixes: &[String]) -> bool {
        prefixes.iter().any(|p| self.rel.starts_with(p.as_str()))
    }

    /// Is this a test/bench source exempt from hot-path rules?
    pub fn is_test_or_bench(&self) -> bool {
        self.rel.contains("/tests/")
            || self.rel.starts_with("tests/")
            || self.rel.contains("/benches/")
            || self.rel.starts_with("crates/bench/")
    }
}

/// Evaluate one cfg predicate expression starting at `pos` (just after
/// `cfg(` or inside `any(...)`/`all(...)`/`not(...)`), leaving `pos`
/// after the predicate. Unknown predicates evaluate `true` (analyze the
/// code rather than silently skipping it); no cargo feature is enabled,
/// and the build target is assumed to be CI's (`x86_64-unknown-linux-gnu`).
fn eval_cfg_pred(toks: &[Tok], pos: &mut usize) -> bool {
    let Some(head) = toks.get(*pos) else { return true };
    if head.kind != TokKind::Ident {
        *pos += 1;
        return true;
    }
    let name = head.text.clone();
    *pos += 1;
    // Combinators: any(...) / all(...) / not(...).
    if toks.get(*pos).is_some_and(|t| t.is_punct('(')) {
        *pos += 1; // consume `(`
        let mut vals: Vec<bool> = Vec::new();
        while *pos < toks.len() && !toks[*pos].is_punct(')') {
            if toks[*pos].is_punct(',') {
                *pos += 1;
                continue;
            }
            vals.push(eval_cfg_pred(toks, pos));
        }
        *pos += 1; // consume `)`
        return match name.as_str() {
            "any" => vals.iter().any(|&v| v),
            "all" => vals.iter().all(|&v| v),
            "not" => !vals.first().copied().unwrap_or(false),
            _ => true, // unknown combinator: analyze
        };
    }
    // Key-value predicates: feature = "x", target_arch = "x86_64", ...
    if toks.get(*pos).is_some_and(|t| t.is_punct('=')) {
        *pos += 1;
        let value = toks
            .get(*pos)
            .filter(|t| t.kind == TokKind::Literal)
            .map(|t| t.text.clone())
            .unwrap_or_default();
        *pos += 1;
        return match name.as_str() {
            "feature" => false,
            "target_arch" => value == "x86_64",
            "target_os" => value == "linux",
            "target_family" => value == "unix",
            "target_endian" => value == "little",
            "target_pointer_width" => value == "64",
            _ => true, // unknown key: analyze
        };
    }
    // Bare predicates.
    match name.as_str() {
        "test" | "loom" | "miri" | "fuzzing" | "doc" | "doctest" | "windows" => false,
        "unix" => true,
        _ => true, // unknown flag: analyze
    }
}

/// Line ranges of items whose attributes exclude them from the analyzed
/// configuration: `#[test]` / `#[tokio::test]` items, and `#[cfg(...)]`
/// items whose predicate evaluates false in the default build (so
/// `#[cfg(test)]`, `#[cfg(loom)]` and `#[cfg(feature = "...")]` are
/// masked). The range runs from the attribute to the closing brace of
/// the item that follows (or its terminating `;` for `mod x;` forms).
fn cfg_masks(lexed: &Lexed) -> Vec<(u32, u32)> {
    let toks = &lexed.tokens;
    let mut masks = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct('#') && i + 1 < toks.len() && toks[i + 1].is_punct('[') {
            // Find the attribute's closing `]` and collect its tokens.
            let attr_start = i + 2;
            let mut j = attr_start;
            let mut depth = 1usize;
            while j < toks.len() && depth > 0 {
                match toks[j].kind {
                    TokKind::Punct('[') => depth += 1,
                    TokKind::Punct(']') => depth -= 1,
                    _ => {}
                }
                j += 1;
            }
            let attr = &toks[attr_start..j.saturating_sub(1)];
            let is_test_attr = matches!(attr.first(), Some(t) if t.is_ident("test"))
                || (attr.first().is_some_and(|t| t.is_ident("tokio"))
                    && attr.iter().any(|t| t.is_ident("test")));
            let cfg_excluded = attr.first().is_some_and(|t| t.is_ident("cfg"))
                && attr.get(1).is_some_and(|t| t.is_punct('('))
                && {
                    let mut pos = 2usize;
                    !eval_cfg_pred(attr, &mut pos)
                };
            if is_test_attr || cfg_excluded {
                let start_line = toks[i].line;
                // The annotated item ends at the matching `}` of its first
                // brace, or at a `;` that arrives before any brace.
                let mut k = j;
                let mut end_line = start_line;
                while k < toks.len() {
                    if toks[k].is_punct(';') {
                        end_line = toks[k].line;
                        break;
                    }
                    if toks[k].is_punct('{') {
                        let mut body_depth = 1usize;
                        k += 1;
                        while k < toks.len() && body_depth > 0 {
                            match toks[k].kind {
                                TokKind::Punct('{') => body_depth += 1,
                                TokKind::Punct('}') => body_depth -= 1,
                                _ => {}
                            }
                            k += 1;
                        }
                        end_line = toks[k.saturating_sub(1).min(toks.len() - 1)].line;
                        break;
                    }
                    k += 1;
                }
                if k >= toks.len() {
                    end_line = toks.last().map_or(start_line, |t| t.line);
                }
                masks.push((start_line, end_line));
                i = j;
                continue;
            }
        }
        i += 1;
    }
    masks
}

/// Collect every workspace member source file under `root`: `src/` of the
/// root package and of each crate in `crates/` (integration `tests/`
/// directories are intentionally not collected — they are exempt from
/// every rule, and the fixture corpus for eda-lint's own tests lives
/// there and must not lint the real tree's run).
pub fn collect_workspace(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    collect_rs(&root.join("src"), root, &mut files)?;
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut entries: Vec<_> =
            std::fs::read_dir(&crates_dir)?.collect::<Result<Vec<_>, _>>()?;
        entries.sort_by_key(|e| e.path());
        for entry in entries {
            collect_rs(&entry.path().join("src"), root, &mut files)?;
        }
    }
    Ok(files)
}

/// Recursively collect `.rs` files under `dir` (if it exists).
fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<SourceFile>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<_> = std::fs::read_dir(dir)?.collect::<Result<Vec<_>, _>>()?;
    entries.sort_by_key(|e| e.path());
    for entry in entries {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            let content = std::fs::read_to_string(&path)?;
            out.push(SourceFile { rel, content });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(content: &str) -> FileLex {
        FileLex::build(&SourceFile { rel: "crates/x/src/lib.rs".into(), content: content.into() })
    }

    #[test]
    fn cfg_test_mod_is_masked() {
        let f = file("fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn live2() {}\n");
        assert!(!f.is_masked(1));
        assert!(f.is_masked(2));
        assert!(f.is_masked(3));
        assert!(f.is_masked(4));
        assert!(f.is_masked(5));
        assert!(!f.is_masked(6));
    }

    #[test]
    fn test_fn_is_masked() {
        let f = file("#[test]\nfn check() {\n    x.unwrap();\n}\nfn live() {}\n");
        assert!(f.is_masked(3));
        assert!(!f.is_masked(5));
    }

    #[test]
    fn mod_decl_semicolon_masked() {
        let f = file("#[cfg(test)]\nmod tests;\nfn live() {}\n");
        assert!(f.is_masked(2));
        assert!(!f.is_masked(3));
    }

    #[test]
    fn other_attrs_not_masked() {
        let f = file("#[derive(Debug)]\nstruct S {\n    x: u32,\n}\n");
        assert!(!f.is_masked(2));
        assert!(!f.is_masked(3));
    }

    #[test]
    fn allow_markers_cover_their_line_and_the_next() {
        let f = file("// eda-lint: allow(EDA-L5) reason\nx.unwrap();\ny.unwrap();\n");
        assert!(f.is_allowed(RuleId::L5PanicReach, 1));
        assert!(f.is_allowed(RuleId::L5PanicReach, 2));
        assert!(!f.is_allowed(RuleId::L5PanicReach, 3));
        assert!(!f.is_allowed(RuleId::L4SafetyComment, 2));
    }

    #[test]
    fn allow_markers_parse_lists() {
        let f = file("// eda-lint: allow(EDA-L1, L4)\nlet m: HashMap<u8, u8>;\n");
        assert!(f.is_allowed(RuleId::L1Determinism, 2));
        assert!(f.is_allowed(RuleId::L4SafetyComment, 2));
        assert!(!f.is_allowed(RuleId::L5PanicReach, 2));
    }
}
