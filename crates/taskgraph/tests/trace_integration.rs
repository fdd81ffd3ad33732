//! Tracer integration tests over the public scheduler API.
//!
//! The satellite acceptance bar: spans are emitted for every live node at
//! every worker count, worker ids stay within `0..workers`, span intervals
//! nest within `ExecStats.elapsed`, and the Chrome-trace JSON survives a
//! serde-free hand parse.

// Test code asserts freely; the package-level unwrap/expect deny
// targets shipped code.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing, clippy::panic)]

use std::time::Duration;

use eda_taskgraph::graph::Payload;
use eda_taskgraph::scheduler::{run, ExecOptions, ExecResult};
use eda_taskgraph::{FaultInjector, NodeId, SpanStatus, TaskGraph, TaskKey};

fn get(p: &Payload) -> i64 {
    *p.downcast_ref::<i64>().expect("i64")
}

/// A 3-layer graph wide enough to occupy several workers.
fn layered_graph() -> (TaskGraph, Vec<NodeId>) {
    let mut g = TaskGraph::new();
    let leaves: Vec<NodeId> = (0..8)
        .map(|i| g.source("leaf", TaskKey::leaf("leaf", i), move || i as i64))
        .collect();
    let mids: Vec<NodeId> = leaves
        .chunks(2)
        .map(|pair| g.op("add", 0, pair.to_vec(), |d| get(&d[0]) + get(&d[1])))
        .collect();
    let root = g.op("total", 0, mids.clone(), |d| d.iter().map(get).sum::<i64>());
    (g, vec![root])
}

fn traced() -> ExecOptions {
    ExecOptions { trace: true, ..ExecOptions::default() }
}

fn assert_trace_invariants(r: &ExecResult, workers: usize) {
    let trace = r.stats.trace.as_ref().expect("trace attached");
    // One span per live node — including skips.
    assert_eq!(trace.spans.len(), r.stats.live_nodes);
    assert_eq!(trace.workers, workers);
    for span in &trace.spans {
        assert!(span.worker < workers, "worker {} out of 0..{workers}", span.worker);
        assert!(span.start <= span.end, "span {:?} runs backwards", span.name);
        // Spans nest within the run's wall-clock window.
        assert!(
            span.end <= r.stats.elapsed,
            "span {} ends at {:?}, run elapsed {:?}",
            span.name,
            span.end,
            r.stats.elapsed
        );
    }
    // Node ids are unique (one span per node, not per attempt).
    let mut nodes: Vec<NodeId> = trace.spans.iter().map(|s| s.node).collect();
    nodes.sort_unstable();
    nodes.dedup();
    assert_eq!(nodes.len(), trace.spans.len());
}

#[test]
fn every_worker_count_emits_span_per_live_node() {
    for workers in [1, 2, 4] {
        let (g, outs) = layered_graph();
        let r = run(&g, &outs, workers, &traced());
        assert_eq!(r.stats.tasks_run, 13, "workers={workers}"); // 8 leaves + 4 mids + root
        assert_trace_invariants(&r, workers);
    }
}

#[test]
fn untraced_runs_attach_no_trace() {
    let (g, outs) = layered_graph();
    let r = run(&g, &outs, 2, &ExecOptions::default());
    assert!(r.stats.trace.is_none());
}

#[test]
fn skipped_nodes_get_spans_too() {
    let (mut g, outs) = layered_graph();
    g.set_fault_injector(FaultInjector::panic_on("add"));
    let r = run(&g, &outs, 2, &traced());
    assert!(r.stats.tasks_failed >= 1);
    assert!(r.stats.tasks_skipped >= 1);
    assert_trace_invariants(&r, 2);
    let trace = r.stats.trace.as_ref().unwrap();
    assert!(trace.spans.iter().any(|s| s.status == SpanStatus::Failed));
    assert!(trace.spans.iter().any(|s| s.status == SpanStatus::Skipped));
}

#[test]
fn queue_wait_never_precedes_dependencies() {
    let (g, outs) = layered_graph();
    let r = run(&g, &outs, 4, &traced());
    let trace = r.stats.trace.as_ref().unwrap();
    for span in trace.executed() {
        for &dep in &span.deps {
            let dep_span = trace.spans.iter().find(|s| s.node == dep).expect("dep traced");
            assert!(
                dep_span.end <= span.start + span.queue_wait + Duration::from_micros(1)
                    || dep_span.end <= span.start,
                "{} started before its dependency {} finished",
                span.name,
                dep_span.name
            );
        }
    }
}

/// Hand-rolled (serde-free) structural parse of the Chrome trace export.
#[test]
fn chrome_trace_roundtrips_through_hand_parsing() {
    let (g, outs) = layered_graph();
    let r = run(&g, &outs, 2, &traced());
    let trace = r.stats.trace.as_ref().unwrap();
    let json = trace.to_chrome_trace();

    // Shape: one top-level object with a traceEvents array.
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"traceEvents\":["));
    let balanced = |open: char, close: char| {
        json.matches(open).count() == json.matches(close).count()
    };
    assert!(balanced('{', '}'));
    assert!(balanced('[', ']'));

    // Complete ("ph":"X") event count equals executed task count.
    let x_events = json.matches("\"ph\":\"X\"").count();
    assert_eq!(
        x_events,
        r.stats.tasks_run + r.stats.tasks_failed + r.stats.tasks_timed_out
    );

    // Every X event carries numeric ts and dur fields; spot-parse them.
    for event in json.split("{\"name\"").skip(1) {
        if !event.contains("\"ph\":\"X\"") {
            continue;
        }
        let ts = event
            .split("\"ts\":")
            .nth(1)
            .and_then(|rest| rest.split([',', '}']).next())
            .expect("ts field");
        assert!(ts.parse::<u128>().is_ok(), "unparseable ts {ts:?} in {event:?}");
        let dur = event
            .split("\"dur\":")
            .nth(1)
            .and_then(|rest| rest.split([',', '}']).next())
            .expect("dur field");
        assert!(dur.parse::<u128>().is_ok(), "unparseable dur {dur:?} in {event:?}");
    }

    // Worker lanes appear as tids within range.
    for event in json.split("\"tid\":").skip(1) {
        let tid: usize = event
            .split([',', '}'])
            .next()
            .unwrap()
            .parse()
            .expect("numeric tid");
        assert!(tid < 2);
    }
}
