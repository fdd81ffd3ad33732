//! Figure 6(a) reproduction: the time for different engines to compute
//! the intermediates of `plot(df)` on the bitcoin-shaped dataset.
//!
//! Usage: `cargo run -p eda-bench --release --bin figure6a [--rows 1000000]`
//!
//! The paper compares Dask, Modin, Koalas and PySpark and finds
//! Dask < Modin < Koalas/PySpark; the policies encode the first two
//! structural differences (shared lazy graph, eager per-op — see
//! `eda_bench::EnginePolicy`). Koalas/PySpark need a Spark runtime and
//! are not run.

use eda_bench::{arg_f64, fmt_secs, machine_context, measure, print_table, EnginePolicy};
use eda_core::compute::overview::plan_overview;
use eda_core::compute::ComputeContext;
use eda_core::Config;
use eda_datagen::bitcoin::bitcoin_spec;
use eda_datagen::generate;

fn main() {
    let rows = arg_f64("--rows", 1_000_000.0) as usize;
    println!("Figure 6(a): engine comparison, plot(df) intermediates on bitcoin[{rows} rows]");
    println!("{}", machine_context());
    println!();

    let spec = bitcoin_spec(rows);
    let df = generate(&spec, 42);
    let cfg = Config::default();
    let workers = cfg.engine.workers;

    let engines = [
        ("LazyParallel (Dask)", EnginePolicy::LazyParallel),
        ("EagerPerOp (Modin)", EnginePolicy::EagerPerOp),
        ("SingleThread (Pandas)", EnginePolicy::SingleThread),
    ];

    let mut rows_out = Vec::new();
    for (name, policy) in engines {
        let mut ctx = ComputeContext::new(&df, &cfg);
        let plan = plan_overview(&mut ctx);
        let outputs = plan.outputs();
        let ((_, tasks_run), d) = measure(|| policy.execute(&ctx.graph, &outputs, workers));
        rows_out.push(vec![name.to_string(), fmt_secs(d), tasks_run.to_string()]);
    }
    print_table(&["Engine", "Time", "Tasks run"], &rows_out);
    println!();
    println!("paper ordering: Dask fastest, then Modin (eager per-op), then Koalas/PySpark");
    println!("(not run here: no Spark runtime). EagerPerOp reruns shared work.");
}
