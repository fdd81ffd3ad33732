//! Machine-readable output and the blessed-baseline ratchet.
//!
//! `--format json` emits findings plus the approximation counters
//! (functions analyzed, ⊤ call sites) so CI can assert the analyzer
//! actually covered the tree. `--baseline lint-baseline.json` subtracts
//! blessed findings: entries key on `(rule, file, message)` with a
//! count, so line drift from unrelated edits never invalidates the
//! baseline, while a *new* finding of an already-blessed shape (count
//! exceeded) still fails. Both sides use a tiny hand-rolled JSON
//! reader/writer — the workspace builds offline with no serde.

use std::collections::BTreeMap;

use crate::{Analysis, Diagnostic, RuleId};

/// Serialize one analysis as the CI artifact JSON.
pub fn to_json(analysis: &Analysis) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"version\": 1,\n");
    s.push_str(&format!("  \"files\": {},\n", analysis.files));
    s.push_str(&format!("  \"functions\": {},\n", analysis.functions));
    s.push_str(&format!("  \"top_edges\": {},\n", analysis.top_edges));
    s.push_str(&format!("  \"findings\": [{}\n", if analysis.diagnostics.is_empty() { "]" } else { "" }));
    for (i, d) in analysis.diagnostics.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}}}{}\n",
            escape(d.rule.code()),
            escape(&d.file),
            d.line,
            escape(&d.message),
            if i + 1 == analysis.diagnostics.len() { "\n  ]" } else { "," }
        ));
    }
    s.push_str("}\n");
    s
}

/// JSON string escaping.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A minimal JSON value — just enough to read baselines and round-trip
/// the findings artifact in tests.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes: Vec<char> = text.chars().collect();
        let mut pos = 0usize;
        let v = parse_value(&bytes, &mut pos)?;
        skip_ws(&bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at offset {pos}"));
        }
        Ok(v)
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }
}

fn skip_ws(b: &[char], pos: &mut usize) {
    while *pos < b.len() && b[*pos].is_whitespace() {
        *pos += 1;
    }
}

fn parse_value(b: &[char], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    let Some(&c) = b.get(*pos) else { return Err("unexpected end of input".into()) };
    match c {
        '{' => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&'}') {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            loop {
                skip_ws(b, pos);
                let Json::Str(key) = parse_value(b, pos)? else {
                    return Err(format!("object key must be a string at offset {pos}"));
                };
                skip_ws(b, pos);
                if b.get(*pos) != Some(&':') {
                    return Err(format!("expected `:` at offset {pos}"));
                }
                *pos += 1;
                let val = parse_value(b, pos)?;
                map.insert(key, val);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(',') => *pos += 1,
                    Some('}') => {
                        *pos += 1;
                        return Ok(Json::Obj(map));
                    }
                    _ => return Err(format!("expected `,` or `}}` at offset {pos}")),
                }
            }
        }
        '[' => {
            *pos += 1;
            let mut arr = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&']') {
                *pos += 1;
                return Ok(Json::Arr(arr));
            }
            loop {
                arr.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(',') => *pos += 1,
                    Some(']') => {
                        *pos += 1;
                        return Ok(Json::Arr(arr));
                    }
                    _ => return Err(format!("expected `,` or `]` at offset {pos}")),
                }
            }
        }
        '"' => {
            *pos += 1;
            let mut s = String::new();
            while let Some(&c) = b.get(*pos) {
                *pos += 1;
                match c {
                    '"' => return Ok(Json::Str(s)),
                    '\\' => {
                        let Some(&e) = b.get(*pos) else {
                            return Err("unterminated escape".into());
                        };
                        *pos += 1;
                        match e {
                            '"' => s.push('"'),
                            '\\' => s.push('\\'),
                            '/' => s.push('/'),
                            'n' => s.push('\n'),
                            'r' => s.push('\r'),
                            't' => s.push('\t'),
                            'b' => s.push('\u{8}'),
                            'f' => s.push('\u{c}'),
                            'u' => {
                                let hex: String = b
                                    .get(*pos..*pos + 4)
                                    .ok_or("truncated \\u escape")?
                                    .iter()
                                    .collect();
                                *pos += 4;
                                let code = u32::from_str_radix(&hex, 16)
                                    .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                                s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            }
                            _ => return Err(format!("bad escape `\\{e}`")),
                        }
                    }
                    _ => s.push(c),
                }
            }
            Err("unterminated string".into())
        }
        't' | 'f' | 'n' => {
            for (lit, v) in
                [("true", Json::Bool(true)), ("false", Json::Bool(false)), ("null", Json::Null)]
            {
                let end = *pos + lit.len();
                if b.get(*pos..end).is_some_and(|w| w.iter().collect::<String>() == lit) {
                    *pos = end;
                    return Ok(v);
                }
            }
            Err(format!("bad literal at offset {pos}"))
        }
        _ => {
            let start = *pos;
            while b
                .get(*pos)
                .is_some_and(|c| c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E'))
            {
                *pos += 1;
            }
            let text: String = b[start..*pos].iter().collect();
            text.parse::<f64>().map(Json::Num).map_err(|_| format!("bad number `{text}`"))
        }
    }
}

/// Blessed findings: `(rule, file, message)` → allowed count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Baseline {
    counts: BTreeMap<(String, String, String), usize>,
}

impl Baseline {
    /// Bless every diagnostic in `diags`.
    pub fn from_diags(diags: &[Diagnostic]) -> Baseline {
        let mut counts: BTreeMap<(String, String, String), usize> = BTreeMap::new();
        for d in diags {
            *counts
                .entry((d.rule.code().to_string(), d.file.clone(), d.message.clone()))
                .or_insert(0) += 1;
        }
        Baseline { counts }
    }

    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    pub fn len(&self) -> usize {
        self.counts.values().sum()
    }

    /// The findings in `diags` (assumed sorted) that exceed the blessed
    /// counts — an empty result means "no new findings".
    pub fn filter_new(&self, diags: &[Diagnostic]) -> Vec<Diagnostic> {
        let mut seen: BTreeMap<(String, String, String), usize> = BTreeMap::new();
        let mut fresh = Vec::new();
        for d in diags {
            let key = (d.rule.code().to_string(), d.file.clone(), d.message.clone());
            let n = seen.entry(key.clone()).or_insert(0);
            *n += 1;
            if *n > self.counts.get(&key).copied().unwrap_or(0) {
                fresh.push(d.clone());
            }
        }
        fresh
    }

    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n  \"version\": 1,\n");
        s.push_str(&format!(
            "  \"entries\": [{}\n",
            if self.counts.is_empty() { "]" } else { "" }
        ));
        let total = self.counts.len();
        for (i, ((rule, file, message), count)) in self.counts.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"rule\": {}, \"file\": {}, \"message\": {}, \"count\": {}}}{}\n",
                escape(rule),
                escape(file),
                escape(message),
                count,
                if i + 1 == total { "\n  ]" } else { "," }
            ));
        }
        s.push_str("}\n");
        s
    }

    pub fn parse(text: &str) -> Result<Baseline, String> {
        let v = Json::parse(text)?;
        let entries = v
            .get("entries")
            .and_then(Json::as_arr)
            .ok_or("baseline: missing `entries` array")?;
        let mut counts = BTreeMap::new();
        for (i, e) in entries.iter().enumerate() {
            let field = |k: &str| {
                e.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("baseline entry {i}: missing string `{k}`"))
            };
            let rule = field("rule")?;
            if RuleId::parse(&rule).is_none() {
                return Err(format!("baseline entry {i}: unknown rule `{rule}`"));
            }
            let count = e
                .get("count")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("baseline entry {i}: missing `count`"))?;
            counts.insert((rule, field("file")?, field("message")?), count as usize);
        }
        Ok(Baseline { counts })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(rule: RuleId, file: &str, line: u32, message: &str) -> Diagnostic {
        Diagnostic { rule, file: file.into(), line, message: message.into() }
    }

    #[test]
    fn analysis_json_round_trips() {
        let analysis = Analysis {
            diagnostics: vec![
                diag(RuleId::L5PanicReach, "crates/a/src/x.rs", 7, "`.unwrap()` in `a::f`"),
                diag(RuleId::L6CancelCoverage, "crates/b/src/y.rs", 3, "loop with \"quotes\""),
            ],
            files: 10,
            functions: 42,
            top_edges: 5,
        };
        let v = Json::parse(&to_json(&analysis)).expect("valid json");
        assert_eq!(v.get("files").and_then(Json::as_u64), Some(10));
        assert_eq!(v.get("functions").and_then(Json::as_u64), Some(42));
        assert_eq!(v.get("top_edges").and_then(Json::as_u64), Some(5));
        let findings = v.get("findings").and_then(Json::as_arr).unwrap();
        assert_eq!(findings.len(), 2);
        assert_eq!(
            findings[0].get("rule").and_then(Json::as_str),
            Some("EDA-L5")
        );
        assert_eq!(findings[1].get("line").and_then(Json::as_u64), Some(3));
        assert_eq!(
            findings[1].get("message").and_then(Json::as_str),
            Some("loop with \"quotes\"")
        );
    }

    #[test]
    fn baseline_round_trips_and_filters() {
        let blessed = vec![
            diag(RuleId::L5PanicReach, "f.rs", 2, "indexing `v[..]` in `x::f`"),
            diag(RuleId::L5PanicReach, "f.rs", 5, "indexing `v[..]` in `x::f`"),
        ];
        let base = Baseline::from_diags(&blessed);
        let reparsed = Baseline::parse(&base.to_json()).expect("parses");
        assert_eq!(base, reparsed);
        // Same counts: nothing new.
        assert!(reparsed.filter_new(&blessed).is_empty());
        // A third identical finding exceeds the blessed count of 2.
        let mut more = blessed.clone();
        more.push(diag(RuleId::L5PanicReach, "f.rs", 9, "indexing `v[..]` in `x::f`"));
        let fresh = reparsed.filter_new(&more);
        assert_eq!(fresh.len(), 1);
        assert_eq!(fresh[0].line, 9);
        // A different message is new outright.
        let other = vec![diag(RuleId::L5PanicReach, "f.rs", 2, "`.unwrap()` in `x::g`")];
        assert_eq!(reparsed.filter_new(&other).len(), 1);
    }

    #[test]
    fn baseline_line_drift_is_invisible() {
        let base = Baseline::from_diags(&[diag(RuleId::L5PanicReach, "f.rs", 10, "m")]);
        // Same finding, shifted 40 lines by unrelated edits: still blessed.
        assert!(base.filter_new(&[diag(RuleId::L5PanicReach, "f.rs", 50, "m")]).is_empty());
    }

    #[test]
    fn baseline_rejects_unknown_rules() {
        let text = r#"{"version": 1, "entries": [{"rule": "EDA-L99", "file": "f", "message": "m", "count": 1}]}"#;
        assert!(Baseline::parse(text).is_err());
    }
}
