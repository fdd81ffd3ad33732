//! Spans recorded around the calls into each layer, from the benchmark's
//! own files: name, start, end, the span that caused it, and the op they
//! belong to. Kept in memory and written out when the run ends.

use std::time::Instant;

use dataprep_eda::core::json::JsonWriter;

/// Thread id of the benchmark's own lane in the Chrome trace; task spans
/// use their worker index (0, 1, ...) as thread id.
const BENCH_TID: u32 = 1000;

/// One timed interval. Times are microseconds on the parent's clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: String,
    pub start_us: u64,
    pub end_us: u64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
    pub op_id: usize,
}

impl Span {
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// Records nested spans against one clock. `base_us` is where that clock
/// starts on the parent's timeline, so a child process started at parent
/// time `t` records with `base_us = t` and its spans line up.
pub struct Recorder {
    origin: Instant,
    base_us: u64,
    op_id: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(base_us: u64) -> Recorder {
        Recorder {
            origin: Instant::now(),
            base_us,
            op_id: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn now_us(&self) -> u64 {
        self.base_us + self.origin.elapsed().as_micros() as u64
    }

    /// Spans opened from now on belong to this op.
    pub fn set_op(&mut self, op_id: usize) {
        self.op_id = op_id;
    }

    /// Open a span under the innermost open one; returns its index.
    pub fn enter(&mut self, name: &str) -> usize {
        let now = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            start_us: now,
            end_us: now,
            parent: self.open.last().copied(),
            op_id: self.op_id,
        });
        let idx = self.spans.len() - 1;
        self.open.push(idx);
        idx
    }

    /// Close span `idx` (and anything left open inside it); returns its
    /// duration in microseconds.
    pub fn exit(&mut self, idx: usize) -> u64 {
        let now = self.now_us();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_us = now;
            if top == idx {
                break;
            }
        }
        self.spans[idx].duration_us()
    }

    pub fn start_of(&self, idx: usize) -> u64 {
        self.spans[idx].start_us
    }

    /// Append spans recorded elsewhere (a child process) under span
    /// `under`: their parent indices are rebased, spans that had no parent
    /// hang off `under`, and all take its op.
    pub fn adopt(&mut self, under: usize, spans: &[Span]) {
        let offset = self.spans.len();
        let op_id = self.spans[under].op_id;
        self.spans.extend(spans.iter().map(|s| Span {
            parent: Some(s.parent.map_or(under, |p| p + offset)),
            op_id,
            ..s.clone()
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover (overlapping children are counted once).
pub fn self_times_us(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(list) = s.parent.and_then(|p| children.get_mut(p)) {
            list.push((s.start_us, s.end_us));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = span.start_us;
            for (start, end) in kids {
                let start = start.max(cursor);
                let end = end.min(span.end_us);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.duration_us() - covered
        })
        .collect()
}

/// Total duration of the spans named `name` that belong to op `op_id`.
pub fn total_us(spans: &[Span], op_id: usize, name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.op_id == op_id && s.name == name)
        .map(Span::duration_us)
        .sum()
}

/// Chrome `trace_event` JSON: the benchmark's spans as complete events on
/// their own lane, followed by the already-serialised task events.
pub fn chrome_trace(spans: &[Span], task_events: &[&str]) -> String {
    let mut events = vec![format!(
        "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{BENCH_TID},\
         \"args\":{{\"name\":\"bench spans\"}}}}"
    )];
    events.extend(spans.iter().map(|s| {
        format!(
            "{{\"name\":{},\"cat\":\"bench\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\
             \"tid\":{BENCH_TID},\"args\":{{\"op_id\":{}}}}}",
            JsonWriter::string(&s.name),
            s.start_us,
            s.duration_us(),
            s.op_id
        )
    }));
    events.extend(
        task_events
            .iter()
            .filter(|e| !e.is_empty())
            .map(|e| e.to_string()),
    );
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}]}}",
        events.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_us: u64, end_us: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_us,
            end_us,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("op", 0, 100, None),
            span("child", 10, 90, Some(0)),
            span("load", 10, 40, Some(1)),
            span("call", 40, 80, Some(1)),
            span("task", 45, 60, Some(3)),
        ];
        assert_eq!(self_times_us(&spans), vec![20, 10, 30, 25, 15]);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        let spans = vec![
            span("call", 0, 100, None),
            span("w0", 10, 60, Some(0)),
            span("w1", 40, 80, Some(0)),
            span("w0b", 50, 55, Some(0)),
        ];
        assert_eq!(self_times_us(&spans)[0], 30);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![
            span("p", 10, 20, None),
            span("early", 0, 15, Some(0)),
            span("late", 18, 50, Some(0)),
        ];
        assert_eq!(self_times_us(&spans)[0], 3);
    }

    #[test]
    fn childless_span_is_all_self_time() {
        assert_eq!(self_times_us(&[span("solo", 5, 12, None)]), vec![7]);
    }

    #[test]
    fn recorder_nests_and_adopts() {
        let mut rec = Recorder::new(1_000);
        rec.set_op(7);
        let op = rec.enter("op");
        let inner = rec.enter("inner");
        rec.exit(inner);
        rec.exit(op);
        rec.set_op(8);
        rec.adopt(
            op,
            &[
                span("child", 1_100, 1_200, None),
                span("load", 1_100, 1_150, Some(0)),
            ],
        );
        let spans = rec.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(
            spans[2].parent,
            Some(0),
            "parentless adopted span hangs off the named span"
        );
        assert_eq!(
            spans[3].parent,
            Some(2),
            "adopted parent indices are rebased"
        );
        assert!(
            spans.iter().all(|s| s.op_id == 7),
            "adopted spans take the op of the span they hang off"
        );
        assert!(spans[0].start_us >= 1_000);
        assert_eq!(total_us(spans, 7, "load"), 50);
        assert_eq!(total_us(spans, 8, "load"), 0);
    }

    #[test]
    fn exit_closes_spans_left_open_inside() {
        let mut rec = Recorder::new(0);
        let outer = rec.enter("outer");
        rec.enter("forgotten");
        rec.exit(outer);
        assert!(rec.spans().iter().all(|s| s.end_us >= s.start_us));
        let next = rec.enter("next");
        assert_eq!(rec.spans()[next].parent, None);
    }

    #[test]
    fn chrome_trace_escapes_hostile_names() {
        let doc = chrome_trace(&[span("a\"b\\c\nd", 1, 3, None)], &["{\"name\":\"t\"}", ""]);
        assert!(doc.contains(r#""name":"a\"b\\c\nd""#));
        assert!(doc.ends_with("{\"name\":\"t\"}]}"));
        assert!(!doc.contains(",,"));
    }
}
