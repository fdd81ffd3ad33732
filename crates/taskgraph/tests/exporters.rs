//! Exporter round-trip tests: the telemetry and trace exporters are
//! hand-rolled (the workspace has no serde), so these tests parse their
//! output back with small in-test parsers instead of trusting the
//! writers — Prometheus text exposition, Chrome `trace_event` JSON with
//! hostile task names, and flamegraph collapsed stacks. Plus the
//! registry's concurrency contract: relaxed sharded counters must still
//! sum exactly once every writer has joined.

// Test code asserts freely; the package-level unwrap/expect deny
// targets shipped code.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::HashMap;
use std::sync::Arc;

use eda_taskgraph::graph::Payload;
use eda_taskgraph::metrics::MetricsRegistry;
use eda_taskgraph::scheduler::{run, ExecOptions};
use eda_taskgraph::{TaskGraph, TaskKey};

// ---------------------------------------------------------------------
// A tiny Prometheus text-format parser: enough of exposition format
// 0.0.4 to check the exporter against (HELP/TYPE comments, plain
// samples, `name{le="..."} value` histogram samples).

#[derive(Debug, Default)]
struct PromFamily {
    help: Option<String>,
    kind: Option<String>,
    /// `(label value of le, sample value)`; `None` le for plain samples.
    samples: Vec<(Option<String>, f64)>,
}

fn parse_prometheus(text: &str) -> HashMap<String, PromFamily> {
    let mut families: HashMap<String, PromFamily> = HashMap::new();
    for line in text.lines() {
        assert_eq!(line.trim(), line, "stray whitespace in {line:?}");
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest.split_once(' ').expect("HELP has text");
            families.entry(name.into()).or_default().help = Some(help.into());
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("TYPE has kind");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown TYPE {kind:?}"
            );
            families.entry(name.into()).or_default().kind = Some(kind.into());
        } else {
            let (series, value) = line.rsplit_once(' ').expect("sample has value");
            let value: f64 = value.parse().expect("numeric sample value");
            let (name, le) = match series.split_once('{') {
                None => (series.to_string(), None),
                Some((name, labels)) => {
                    let le = labels
                        .strip_prefix("le=\"")
                        .and_then(|l| l.strip_suffix("\"}"))
                        .expect("only le labels are emitted");
                    // Histogram sample series attach to the family name.
                    (name.strip_suffix("_bucket").expect("labelled series are buckets").into(),
                     Some(le.to_string()))
                }
            };
            // _sum/_count fold into their histogram family.
            let family = name
                .strip_suffix("_sum")
                .or_else(|| name.strip_suffix("_count"))
                .filter(|base| families.contains_key(*base))
                .unwrap_or(&name);
            families.entry(family.into()).or_default().samples.push((le, value));
        }
    }
    families
}

/// A registry with a known, non-trivial fill.
fn filled_registry() -> MetricsRegistry {
    let r = MetricsRegistry::new();
    r.runs_total.add(3);
    r.tasks_run_total.add(120);
    r.cache_hits_total.add(40);
    r.cache_misses_total.add(8);
    r.mem_peak_bytes.set(1 << 20);
    for us in [5, 90, 1_500, 1_500, 40_000] {
        r.task_duration_us.record(us);
    }
    r
}

#[test]
fn prometheus_output_round_trips_through_a_parser() {
    let registry = filled_registry();
    let snap = registry.snapshot();
    let families = parse_prometheus(&snap.to_prometheus());

    // Every exported series came back, fully annotated.
    for (name, _, value) in &snap.counters {
        let fam = &families[*name];
        assert_eq!(fam.kind.as_deref(), Some("counter"), "{name}");
        assert!(fam.help.is_some(), "{name} missing HELP");
        assert_eq!(fam.samples, vec![(None, *value as f64)], "{name}");
        assert!(name.ends_with("_total"), "counter {name} must end _total");
    }
    for (name, _, value) in &snap.gauges {
        let fam = &families[*name];
        assert_eq!(fam.kind.as_deref(), Some("gauge"), "{name}");
        assert_eq!(fam.samples, vec![(None, *value as f64)], "{name}");
    }
    for h in &snap.histograms {
        let fam = &families[h.name];
        assert_eq!(fam.kind.as_deref(), Some("histogram"), "{}", h.name);
        let buckets: Vec<(f64, f64)> = fam
            .samples
            .iter()
            .filter_map(|(le, v)| le.as_ref().map(|le| (parse_le(le), *v)))
            .collect();
        // Cumulative, non-decreasing, ending in an +Inf bucket == count.
        assert!(buckets.windows(2).all(|w| w[0].1 <= w[1].1), "{}", h.name);
        let (last_le, last) = *buckets.last().expect("at least +Inf");
        assert!(last_le.is_infinite(), "{}", h.name);
        assert_eq!(last, h.count as f64, "{}", h.name);
        // The two plain samples are _sum then _count.
        let plain: Vec<f64> =
            fam.samples.iter().filter(|(le, _)| le.is_none()).map(|&(_, v)| v).collect();
        assert_eq!(plain, vec![h.sum as f64, h.count as f64], "{}", h.name);
    }
    // Nothing unaccounted for came out of the exporter.
    assert_eq!(
        families.len(),
        snap.counters.len() + snap.gauges.len() + snap.histograms.len()
    );
}

fn parse_le(le: &str) -> f64 {
    if le == "+Inf" { f64::INFINITY } else { le.parse().expect("numeric le") }
}

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
            g.source(name, TaskKey::leaf("hostile", i as u64), move || -> Payload {
                Arc::new(i as i64)
            })
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

#[test]
fn collapsed_stacks_with_hostile_names_stay_line_structured() {
    let stacks = hostile_trace().to_collapsed_stacks();
    assert_eq!(stacks.lines().count(), HOSTILE.len());
    for line in stacks.lines() {
        // Format: frames separated by ';', one space, integer weight.
        let (stack, weight) = line.rsplit_once(' ').expect("weight separated by space");
        weight.parse::<u128>().expect("numeric weight");
        let frames: Vec<&str> = stack.split(';').collect();
        assert_eq!(frames.len(), 2, "root + task frame in {line:?}");
        assert_eq!(frames[0], "run");
        assert!(!frames[1].is_empty());
        assert!(
            !frames[1].contains(char::is_whitespace),
            "unescaped whitespace in frame {:?}",
            frames[1]
        );
    }
}

// ---------------------------------------------------------------------
// Concurrency: hammer one registry from many threads, then check the
// snapshot sums exactly — the sharded relaxed counters lose nothing.

#[test]
fn concurrent_recording_sums_exactly() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 10_000;
    let registry = Arc::new(MetricsRegistry::new());
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let r = Arc::clone(&registry);
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    r.tasks_run_total.incr();
                    r.morsel_rows_total.add(3);
                    r.task_duration_us.record(t * PER_THREAD + i);
                    r.mem_peak_bytes.set_max(t * PER_THREAD + i);
                }
            })
        })
        .collect();
    // Concurrent snapshots must stay structurally sound (no torn
    // state, counts never exceed the final totals).
    for _ in 0..50 {
        let snap = registry.snapshot();
        assert!(snap.counter("eda_tasks_run_total").unwrap() <= THREADS * PER_THREAD);
        let h = snap.histogram("eda_task_duration_us").unwrap();
        assert!(h.count <= THREADS * PER_THREAD);
    }
    for h in handles {
        h.join().unwrap();
    }
    let snap = registry.snapshot();
    assert_eq!(snap.counter("eda_tasks_run_total"), Some(THREADS * PER_THREAD));
    assert_eq!(snap.counter("eda_morsel_rows_total"), Some(THREADS * PER_THREAD * 3));
    assert_eq!(snap.gauge("eda_mem_peak_bytes"), Some(THREADS * PER_THREAD - 1));
    let h = snap.histogram("eda_task_duration_us").unwrap();
    assert_eq!(h.count, THREADS * PER_THREAD);
    let bucket_total: u64 = h.buckets.iter().map(|&(_, n)| n).sum();
    assert_eq!(bucket_total + h.overflow, h.count);
}
