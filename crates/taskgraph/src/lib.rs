//! # eda-taskgraph
//!
//! A lazy task-graph execution engine: the "Dask role" substrate of the
//! `dataprep-eda` workspace (Rust reproduction of *DataPrep.EDA*, SIGMOD
//! 2021).
//!
//! The paper's central performance idea (§5.2) is to express **all** the
//! computations one EDA call needs as a *single* lazy graph, let the engine
//! deduplicate shared subcomputations, and execute the optimized graph in
//! parallel over data partitions. This crate provides exactly that:
//!
//! * [`graph::TaskGraph`] — a DAG of tasks whose payloads are type-erased
//!   `Arc` values. A task returns a typed value that prices itself
//!   (`eda_dataframe::HeapSize`), and the graph keeps each task's price
//!   function: the scheduler prices a payload once, where its body
//!   returns, and charges that one number to the result cache and the
//!   trace. Every task carries a **structural key** (op name +
//!   parameter hash + dependency keys); inserting a task whose key already
//!   exists returns the existing node, which is the
//!   *common-subexpression-elimination* that shares computations between
//!   visualizations (e.g. quantiles feeding stats table, box plot, and Q-Q
//!   plot are computed once).
//! * [`scheduler`] — the executor: one entry point, [`scheduler::run`],
//!   that runs ready tasks as their dependencies complete — on the
//!   calling thread with one worker, on a pool of threads (std `mpsc`
//!   channels) with more. It isolates panics per task
//!   ([`outcome::TaskOutcome`]), skips dependents of failed nodes instead
//!   of aborting the run, and supports per-task deadlines.
//! * [`inject`] — a deterministic fault-injection harness (panic / stall /
//!   garbage payload / wedge at a chosen task) used to test the fault
//!   tolerance end to end.
//! * [`govern`] — resource governance: cooperative cancellation tokens,
//!   inert unless attached via [`scheduler::ExecOptions`].
//! * [`partition`] — chunked dataframes with the *chunk-size precompute*
//!   stage the paper adds before graph construction; [`ops`] — the typed
//!   map/tree-reduce combinators over their partitions.

#![warn(missing_docs)]
// Test code asserts and indexes; the crate-wide panic-free denies (see
// Cargo.toml [lints]) apply to shipped code only.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing))]
#![cfg_attr(test, allow(clippy::panic, clippy::unreachable))]

pub mod cache;
pub mod govern;
pub mod graph;
pub mod inject;
pub mod key;
pub mod ops;
pub mod outcome;
pub mod partition;
pub mod scheduler;
pub mod stats;
pub mod trace;

pub use cache::{CacheHandle, ResultCache};
pub use govern::CancelToken;
pub use graph::{un, NodeId, Payload, TaskGraph};
pub use inject::{FaultInjector, FaultMode, FaultPlan, FaultTarget};
pub use key::TaskKey;
pub use outcome::{root_failure, TaskError, TaskFailure, TaskOutcome};
pub use partition::{ChunkMeta, PartitionedFrame};
pub use stats::ExecStats;
pub use trace::{RunTrace, SpanStatus, TaskSpan};
