//! Analyzer configuration: the `lint-roots.toml` entry-point registry.
//!
//! The first-generation linter scoped rules with hand-maintained file
//! lists inside `Config::default()` — every PR that added a hot-path
//! file had to edit the linter. The call-graph rules instead start from
//! *entry points* declared in a checked-in `lint-roots.toml` at the
//! workspace root; coverage then follows calls wherever they go, and a
//! root that stops resolving fails the run (exit 2) instead of silently
//! shrinking coverage.
//!
//! The file is parsed with a deliberately tiny TOML-subset reader (the
//! workspace builds offline with no registry deps): `[section]` headers
//! and `key = ["string", ...]` arrays, `#` comments, trailing commas.
//! Unknown sections or keys are errors — a typo must not silently
//! deconfigure a rule.

use std::path::Path;

/// Analyzer configuration. [`Config::default`] is empty (fixture tests
/// build their own); the real tree's configuration is loaded from
/// `lint-roots.toml` via [`Config::load`].
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// EDA-L5 roots: panic-reachability starts here. Spec grammar:
    /// `crate::module::name`, `crate::module::Owner::name`, or
    /// `crate::module::*` (every fn in that module).
    pub l5_roots: Vec<String>,
    /// EDA-L6 roots: loops reachable from these must poll.
    pub l6_roots: Vec<String>,
    /// EDA-L6 probe names: a call to any of these counts as a poll
    /// (matched by final name segment, so `govern::interrupted()` and
    /// `interrupted()` both count).
    pub l6_probes: Vec<String>,
    /// EDA-L7 scope: crates whose functions are checked for blocking
    /// operations under a live lock guard.
    pub l7_crates: Vec<String>,
    /// EDA-L1 sinks: determinism taint reachability starts here
    /// (cache-key and fingerprint construction).
    pub l1_sinks: Vec<String>,
}

impl Config {
    /// Load `lint-roots.toml` from the workspace root.
    pub fn load(root: &Path) -> Result<Config, String> {
        let path = root.join("lint-roots.toml");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Config::from_toml(&text)
    }

    /// Parse the TOML-subset configuration text.
    pub fn from_toml(text: &str) -> Result<Config, String> {
        let mut config = Config::default();
        let mut section = String::new();
        let mut lines = text.lines().enumerate().peekable();
        while let Some((idx, raw)) = lines.next() {
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
                section = name.trim().to_string();
                if !matches!(section.as_str(), "l1" | "l5" | "l6" | "l7") {
                    return Err(format!("line {}: unknown section [{section}]", idx + 1));
                }
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("line {}: expected `key = [...]`, got `{line}`", idx + 1));
            };
            let key = key.trim().to_string();
            // Accumulate until the bracket balance closes (multi-line
            // arrays).
            let mut value = value.trim().to_string();
            while value.matches('[').count() > value.matches(']').count() {
                let Some((_, cont)) = lines.next() else {
                    return Err(format!("line {}: unterminated array for `{key}`", idx + 1));
                };
                value.push(' ');
                value.push_str(strip_comment(cont).trim());
            }
            let items = parse_string_array(&value)
                .map_err(|e| format!("line {}: key `{key}`: {e}", idx + 1))?;
            let target = match (section.as_str(), key.as_str()) {
                ("l5", "roots") => &mut config.l5_roots,
                ("l6", "roots") => &mut config.l6_roots,
                ("l6", "probes") => &mut config.l6_probes,
                ("l7", "crates") => &mut config.l7_crates,
                ("l1", "sinks") => &mut config.l1_sinks,
                _ => {
                    return Err(format!(
                        "line {}: unknown key `{key}` in section [{section}]",
                        idx + 1
                    ))
                }
            };
            target.extend(items);
        }
        Ok(config)
    }
}

/// Drop a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parse `["a", "b", ...]` (trailing comma tolerated).
fn parse_string_array(value: &str) -> Result<Vec<String>, String> {
    let inner = value
        .trim()
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| format!("expected a `[...]` array, got `{value}`"))?;
    let mut out = Vec::new();
    let mut rest = inner.trim();
    while !rest.is_empty() {
        let body = rest
            .strip_prefix('"')
            .ok_or_else(|| format!("expected a quoted string at `{rest}`"))?;
        let close = body
            .find('"')
            .ok_or_else(|| format!("unterminated string in `{value}`"))?;
        out.push(body[..close].to_string());
        rest = body[close + 1..].trim().trim_start_matches(',').trim();
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_arrays_and_comments() {
        let toml = r#"
# entry points
[l5]
roots = [
    "taskgraph::scheduler::run_pool",  # dispatch
    "stats::moments::*",
]

[l6]
roots = ["taskgraph::morsel::run_rows"]
probes = ["interrupted"]

[l7]
crates = ["taskgraph", "io"]

[l1]
sinks = ["taskgraph::key::*"]
"#;
        let c = Config::from_toml(toml).expect("parses");
        assert_eq!(c.l5_roots, vec!["taskgraph::scheduler::run_pool", "stats::moments::*"]);
        assert_eq!(c.l6_roots, vec!["taskgraph::morsel::run_rows"]);
        assert_eq!(c.l6_probes, vec!["interrupted"]);
        assert_eq!(c.l7_crates, vec!["taskgraph", "io"]);
        assert_eq!(c.l1_sinks, vec!["taskgraph::key::*"]);
    }

    #[test]
    fn unknown_keys_and_sections_error() {
        assert!(Config::from_toml("[l9]\n").is_err());
        assert!(Config::from_toml("[l5]\nrootz = [\"a\"]\n").is_err());
        assert!(Config::from_toml("[l5]\nroots = [unquoted]\n").is_err());
    }

    #[test]
    fn single_line_arrays_and_trailing_commas() {
        let c = Config::from_toml("[l6]\nprobes = [\"interrupted\", \"poll\",]\n").unwrap();
        assert_eq!(c.l6_probes, vec!["interrupted", "poll"]);
    }
}
