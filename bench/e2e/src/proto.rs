//! What a child process reports to the benchmark on its standard output:
//! one tab-separated record per line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::span::Span;

/// One API call of a session, as timed inside the child.
#[derive(Debug, Clone, PartialEq)]
pub struct CallSample {
    pub kind: String,
    pub call_us: u64,
    pub render_us: u64,
    pub reissue: bool,
    pub ok: bool,
}

impl CallSample {
    /// What the notebook user waits for: the call plus rendering its HTML.
    pub fn wall_ms(&self) -> f64 {
        (self.call_us + self.render_us) as f64 / 1e3
    }
}

/// The outcome of one op (a cold file-to-HTML run, or a whole session).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpReport {
    /// Every section `Ok`, every graph fully succeeded, one variable
    /// section per column.
    pub ok: bool,
    /// FNV-1a digest (the engine's own `taskgraph::key::Fnv1a`) of the
    /// intermediates' JSON.
    pub digest: u64,
    /// Peak resident set size (`VmHWM`) in KiB.
    pub rss_kb: u64,
    pub html_bytes: u64,
    /// Counters and summed times from `ExecStats` (and its trace).
    pub stats: BTreeMap<String, f64>,
    pub calls: Vec<CallSample>,
    /// Traced runs only.
    pub spans: Vec<Span>,
    /// Traced runs only: Chrome events of the task spans, comma-joined.
    pub task_events: Vec<String>,
}

/// Names go on a tab-separated line; keep the separators out of them.
fn field(name: &str) -> String {
    name.replace(['\t', '\n', '\r'], " ")
}

impl OpReport {
    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "ok\t{}", u8::from(self.ok));
        let _ = writeln!(out, "digest\t{:016x}", self.digest);
        let _ = writeln!(out, "rss_kb\t{}", self.rss_kb);
        let _ = writeln!(out, "html_bytes\t{}", self.html_bytes);
        for (key, value) in &self.stats {
            let _ = writeln!(out, "stat\t{}\t{value}", field(key));
        }
        for c in &self.calls {
            let _ = writeln!(
                out,
                "call\t{}\t{}\t{}\t{}\t{}",
                field(&c.kind),
                c.call_us,
                c.render_us,
                u8::from(c.reissue),
                u8::from(c.ok)
            );
        }
        for s in &self.spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "span\t{}\t{}\t{}\t{parent}",
                field(&s.name),
                s.start_us,
                s.end_us
            );
        }
        for events in self.task_events.iter().filter(|e| !e.is_empty()) {
            let _ = writeln!(out, "tasks\t{}", field(events));
        }
        out
    }

    pub fn parse(text: &str) -> Result<OpReport, String> {
        let mut report = OpReport::default();
        let mut seen_ok = false;
        for line in text.lines() {
            let fields: Vec<&str> = line.split('\t').collect();
            let bad = || format!("malformed child record: {line:?}");
            let int = |s: &str| s.parse::<u64>().map_err(|_| bad());
            match fields.as_slice() {
                ["ok", v] => {
                    report.ok = *v == "1";
                    seen_ok = true;
                }
                ["digest", v] => report.digest = u64::from_str_radix(v, 16).map_err(|_| bad())?,
                ["rss_kb", v] => report.rss_kb = int(v)?,
                ["html_bytes", v] => report.html_bytes = int(v)?,
                ["stat", key, v] => {
                    report
                        .stats
                        .insert(key.to_string(), v.parse().map_err(|_| bad())?);
                }
                ["call", kind, call_us, render_us, reissue, ok] => report.calls.push(CallSample {
                    kind: kind.to_string(),
                    call_us: int(call_us)?,
                    render_us: int(render_us)?,
                    reissue: *reissue == "1",
                    ok: *ok == "1",
                }),
                ["span", name, start, end, parent] => report.spans.push(Span {
                    name: name.to_string(),
                    start_us: int(start)?,
                    end_us: int(end)?,
                    parent: if *parent == "-" {
                        None
                    } else {
                        Some(int(parent)? as usize)
                    },
                    op_id: 0,
                }),
                ["tasks", events] => report.task_events.push(events.to_string()),
                _ => return Err(bad()),
            }
        }
        if seen_ok {
            Ok(report)
        } else {
            Err("child printed no result".into())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_its_lines() {
        let report = OpReport {
            ok: true,
            digest: 0xDEAD_BEEF_0000_0001,
            rss_kb: 123_456,
            html_bytes: 789,
            stats: BTreeMap::from([
                ("tasks_run".to_string(), 781.0),
                ("exec_us".to_string(), 1.5e6),
            ]),
            calls: vec![CallSample {
                kind: "plot_x".into(),
                call_us: 13_000,
                render_us: 400,
                reissue: true,
                ok: true,
            }],
            spans: vec![
                Span {
                    name: "child".into(),
                    start_us: 5,
                    end_us: 90,
                    parent: None,
                    op_id: 0,
                },
                Span {
                    name: "io.load".into(),
                    start_us: 6,
                    end_us: 40,
                    parent: Some(0),
                    op_id: 0,
                },
            ],
            task_events: vec!["{\"name\":\"moments:num0\"}".into()],
        };
        assert_eq!(OpReport::parse(&report.to_lines()), Ok(report));
    }

    #[test]
    fn separators_in_names_cannot_break_a_record() {
        let report = OpReport {
            ok: true,
            spans: vec![Span {
                name: "a\tb\nc".into(),
                start_us: 1,
                end_us: 2,
                parent: None,
                op_id: 0,
            }],
            ..OpReport::default()
        };
        let parsed = OpReport::parse(&report.to_lines()).unwrap();
        assert_eq!(parsed.spans[0].name, "a b c");
    }

    #[test]
    fn garbage_and_empty_output_are_errors() {
        assert!(OpReport::parse("").is_err());
        assert!(OpReport::parse("ok\t1\nspan\tx\tnot-a-number\t2\t-\n").is_err());
        assert!(OpReport::parse("hello\n").is_err());
    }
}
