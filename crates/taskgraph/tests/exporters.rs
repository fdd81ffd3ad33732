//! Exporter round-trip tests: the trace exporter is hand-rolled (the
//! workspace has no serde), so these tests parse its output back with a
//! small in-test parser instead of trusting the writer — Chrome
//! `trace_event` JSON with hostile task names.

// Test code asserts freely; the package-level unwrap/expect deny
// targets shipped code.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing, clippy::panic)]

use std::sync::Arc;

use eda_taskgraph::scheduler::{run, ExecOptions};
use eda_taskgraph::{TaskGraph, TaskKey};

// ---------------------------------------------------------------------
// A minimal recursive-descent JSON validator for the Chrome trace —
// rejects structural damage (the exact failure hostile task names cause
// when escaping is wrong) and collects every "name" string it sees.

struct Json<'a> {
    bytes: &'a [u8],
    pos: usize,
    names: Vec<String>,
}

impl Json<'_> {
    fn ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self) {
        self.ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => {
                self.string();
            }
            Some(b't') => self.literal(b"true"),
            Some(b'f') => self.literal(b"false"),
            Some(b'n') => self.literal(b"null"),
            Some(c) if *c == b'-' || c.is_ascii_digit() => self.number(),
            other => panic!("byte {}: unexpected {other:?}", self.pos),
        }
    }

    fn object(&mut self) {
        self.pos += 1; // {
        self.ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return;
        }
        loop {
            self.ws();
            let key = self.string();
            self.ws();
            assert_eq!(self.bytes.get(self.pos), Some(&b':'), "byte {}", self.pos);
            self.pos += 1;
            let collect = key == "name";
            let before = self.pos;
            self.value();
            if collect {
                // Re-parse the value we just consumed as the name string.
                let mut sub = Json { bytes: self.bytes, pos: before, names: Vec::new() };
                sub.ws();
                self.names.push(sub.string());
            }
            self.ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return;
                }
                other => panic!("byte {}: expected , or }} found {other:?}", self.pos),
            }
        }
    }

    fn array(&mut self) {
        self.pos += 1; // [
        self.ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return;
        }
        loop {
            self.value();
            self.ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return;
                }
                other => panic!("byte {}: expected , or ] found {other:?}", self.pos),
            }
        }
    }

    fn string(&mut self) -> String {
        assert_eq!(self.bytes.get(self.pos), Some(&b'"'), "byte {}", self.pos);
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).expect("valid utf8");
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push(b'"'),
                        Some(b'\\') => out.push(b'\\'),
                        Some(b'/') => out.push(b'/'),
                        Some(b'n') => out.push(b'\n'),
                        Some(b't') => out.push(b'\t'),
                        Some(b'r') => out.push(b'\r'),
                        Some(b'b') => out.push(0x08),
                        Some(b'f') => out.push(0x0c),
                        Some(b'u') => {
                            let hex = std::str::from_utf8(
                                &self.bytes[self.pos + 1..self.pos + 5],
                            )
                            .expect("4 hex digits");
                            let cp = u32::from_str_radix(hex, 16).expect("hex escape");
                            let c = char::from_u32(cp).expect("scalar value");
                            let mut buf = [0u8; 4];
                            out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                            self.pos += 4;
                        }
                        other => panic!("byte {}: bad escape {other:?}", self.pos),
                    }
                    self.pos += 1;
                }
                Some(c) => {
                    assert!(*c >= 0x20, "byte {}: raw control char in string", self.pos);
                    out.push(*c);
                    self.pos += 1;
                }
                None => panic!("unterminated string"),
            }
        }
    }

    fn number(&mut self) {
        while matches!(
            self.bytes.get(self.pos),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
    }

    fn literal(&mut self, lit: &[u8]) {
        assert_eq!(&self.bytes[self.pos..self.pos + lit.len()], lit);
        self.pos += lit.len();
    }
}

/// Validate a whole JSON document, returning every "name" value.
fn parse_json_names(text: &str) -> Vec<String> {
    let mut p = Json { bytes: text.as_bytes(), pos: 0, names: Vec::new() };
    p.value();
    p.ws();
    assert_eq!(p.pos, text.len(), "trailing garbage after document");
    p.names
}

/// Task names chosen to break unescaped exporters.
const HOSTILE: &[&str] = &[
    "quote\"inside",
    "back\\slash",
    "newline\nname",
    "tab\tand; semicolon",
    "control\u{1}char",
];

fn hostile_trace() -> Arc<eda_taskgraph::RunTrace> {
    let mut g = TaskGraph::new();
    let outs: Vec<_> = HOSTILE
        .iter()
        .enumerate()
        .map(|(i, name)| {
            g.source(name, TaskKey::leaf("hostile", i as u64), move || i as i64)
        })
        .collect();
    let r = run(&g, &outs, 1, &ExecOptions { trace: true, ..ExecOptions::default() });
    r.stats.trace.expect("trace attached")
}

#[test]
fn chrome_trace_with_hostile_names_parses_and_round_trips() {
    let trace = hostile_trace();
    let names = parse_json_names(&trace.to_chrome_trace());
    // Every hostile name survives the escape/unescape round trip intact.
    for name in HOSTILE {
        assert!(names.iter().any(|n| n == name), "{name:?} lost in export");
    }
}
