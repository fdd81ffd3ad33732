//! The paper's evaluation (§6) in one run: Table 2, the user-study
//! stand-in (Figure 7's measured input), Figure 5, Figure 6(a), Figure
//! 6(b), the Figure 6(c) stand-in and the design ablations of §5,
//! printed in that order.
//!
//! Usage: `cargo run -p eda-bench --release --bin eda-paper [--scale 1] [--commit <label>]`
//!
//! `--scale` multiplies every section's size; at 1 each runs at the
//! sizes of the constants below. `--commit` names the tree the numbers
//! were taken at, for the header. Every call is timed by
//! [`eda_bench::time_arms`]: each section's arms rotate, medians are
//! printed, and the run exits non-zero if the result cache served any
//! timed call. A call therefore runs either on a frame no earlier timed
//! call touched (Table 2 and the Figure 6(b) sweep, at the default
//! config) or with `engine.cache_budget_bytes=0` (everything else).
//!
//! The substrate differs from the paper's (Rust, not Python on an
//! 8-core server), so EXPERIMENTS.md compares shapes, not absolute
//! times.

use std::process::ExitCode;
use std::time::Duration;

use eda_bench::{
    fmt_secs, machine_context, print_table, time_arms, unshared_context, Args, Arm, CorrTiling,
    EnginePolicy, Timing,
};
use eda_core::compute::overview::plan_overview;
use eda_core::compute::ComputeContext;
use eda_core::dtype::{detect, SemanticType};
use eda_core::error::EdaResult;
use eda_core::{create_report, plot, plot_correlation, plot_missing, Analysis, Config, Report};
use eda_dataframe::DataFrame;
use eda_datagen::bitcoin::bitcoin_spec;
use eda_datagen::userstudy::{
    birdstrike_spec, delayed_flights_spec, BIRDSTRIKE_ROWS, DELAYED_FLIGHTS_ROWS,
};
use eda_datagen::{generate, kaggle_spec_by_name, kaggle_specs};

/// Repetitions of each ablation arm.
const ABLATION_REPS: usize = 10;
/// Repetitions of each call in Table 2 and Figures 5–7: one run each.
const FIGURE_REPS: usize = 1;
/// Pair tasks timed per dataset in Figure 5.
const MAX_PAIRS: usize = 25;
/// Rows the user-study latencies are measured on, before projection.
const USER_STUDY_ROWS: f64 = 50_000.0;
/// Rows of Figure 6(a)'s bitcoin frame.
const F6A_ROWS: f64 = 1_000_000.0;
/// Figure 6(b)'s largest size; the sweep takes even steps up to it.
const F6B_ROWS: f64 = 200_000.0;
const F6B_POINTS: usize = 5;
/// The ablations' frame: Table 2's adult shape at this multiple of its
/// rows (147,000).
const ABLATION_SCALE: f64 = 3.0;
/// The partition ablation's arms: the frame cut into each count through
/// `ComputeContext::partitioned`.
const NPARTITIONS: [usize; 5] = [1, 2, 4, 8, 16];
const THRESHOLDS: [f64; 4] = [0.5, 1.0, 2.0, 5.0];

type Section = fn(f64) -> Result<(), String>;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("eda-paper: {e}");
            return ExitCode::from(2);
        }
    };
    println!("eda-paper: the paper's evaluation  [scale {}]", args.scale);
    println!("{}", machine_context());
    if let Some(commit) = &args.commit {
        println!("commit: {commit}");
    }
    println!(
        "timing: median of {ABLATION_REPS} rotating repetitions per ablation arm, {FIGURE_REPS} elsewhere; no timed call served by the result cache"
    );
    let sections: [Section; 6] = [table2, user_study, figure5, figure6a, figure6bc, ablations];
    for section in sections {
        println!();
        if let Err(served) = section(args.scale) {
            eprintln!("eda-paper: {served}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Time a fixed set of arms: [`time_arms`] with one timing per arm.
fn time<const N: usize>(reps: usize, arms: [Arm<'_>; N]) -> Result<[Timing; N], String> {
    Ok(time_arms(reps, arms.into())?.try_into().expect("one timing per arm"))
}

/// The default config with the result cache off, plus `pairs`.
fn uncached(pairs: &[(&str, &str)]) -> Config {
    let mut pairs = pairs.to_vec();
    pairs.push(("engine.cache_budget_bytes", "0"));
    Config::from_pairs(pairs).expect("engine settings")
}

fn geometric_mean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

fn ratio(num: Duration, den: Duration) -> f64 {
    num.as_secs_f64() / den.as_secs_f64()
}

/// The baseline's profile and DataPrep's `create_report` of `df` at
/// `cfg`: both timings, then how many times faster DataPrep was.
fn pp_vs_dataprep(
    df: &DataFrame,
    cfg: &Config,
    name: &str,
) -> Result<(Timing, Timing, f64), String> {
    let [pp, dp] = time(
        FIGURE_REPS,
        [
            Arm::new("PP", || eda_baseline::profile(df)),
            Arm::new(format!("create_report({name})"), || create_report(df, cfg).expect("report")),
        ],
    )?;
    let speedup = ratio(pp.median, dp.median);
    Ok((pp, dp, speedup))
}

/// Table 2: full-report time on the 15 Kaggle shapes, the Pandas-profiling
/// baseline against DataPrep. The paper reports 4–20× speedups.
fn table2(scale: f64) -> Result<(), String> {
    println!("Table 2: create_report, baseline (PP) vs DataPrep; each frame fresh, default config");
    let cfg = Config::default();
    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    for spec in kaggle_specs() {
        let spec = spec.scaled(scale);
        let df = generate(&spec, 42);
        let (n, c) = spec.nc_split();
        let (pp, dp, speedup) = pp_vs_dataprep(&df, &cfg, &spec.name)?;
        speedups.push(speedup);
        rows.push(vec![
            spec.name.clone(),
            spec.rows.to_string(),
            format!("{} ({n}/{c})", spec.columns.len()),
            fmt_secs(pp.median),
            fmt_secs(dp.median),
            format!("{speedup:.1}x"),
            format!("{} shared", dp.stats.map_or(0, |s| s.cse_hits)),
        ]);
    }
    print_table(&["Dataset", "#Rows", "#Cols (N/C)", "PP", "DataPrep", "Faster", "CSE"], &rows);
    let min = speedups.iter().copied().fold(f64::INFINITY, f64::min);
    let max = speedups.iter().copied().fold(0.0f64, f64::max);
    println!();
    println!(
        "speedup range {min:.1}x – {max:.1}x (geometric mean {:.1}x); paper reports 4x – 20.8x",
        geometric_mean(&speedups)
    );
    Ok(())
}

/// The one measured input of the paper's user study (Figure 7, §6.3),
/// whose participants cannot be rerun: on the BirdStrike and
/// DelayedFlights shapes, a fine-grained task (the mean of `plot(df, x)`
/// and `plot_missing(df, x)`) against the baseline's full report, both
/// projected linearly to the full row count (both tools are linear in
/// rows, Figure 6(b)).
fn user_study(scale: f64) -> Result<(), String> {
    let rows = ((USER_STUDY_ROWS * scale) as usize).max(1000);
    println!("User-study shapes (Figure 7 stand-in): mean of plot(df, x) and plot_missing(df, x), cache off, vs the PP report; measured on {rows} rows, projected to full size");
    let cfg = uncached(&[]);
    let mut table = Vec::new();
    let shapes = [
        (birdstrike_spec(rows.min(BIRDSTRIKE_ROWS)), BIRDSTRIKE_ROWS),
        (delayed_flights_spec(rows.min(DELAYED_FLIGHTS_ROWS)), DELAYED_FLIGHTS_ROWS),
    ];
    for (spec, full_rows) in shapes {
        let df = generate(&spec, 42);
        let x = df.names()[6].as_str();
        let [plot_x, missing_x, pp] = time(
            FIGURE_REPS,
            [
                Arm::new("plot(df, x)", || plot(&df, &[x], &cfg).expect("plot")),
                Arm::new("plot_missing(df, x)", || plot_missing(&df, &[x], &cfg).expect("missing")),
                Arm::new("PP", || eda_baseline::profile(&df)),
            ],
        )?;
        let factor = full_rows as f64 / spec.rows as f64;
        let task = ((plot_x.median + missing_x.median) / 2).mul_f64(factor);
        let report = pp.median.mul_f64(factor);
        table.push(vec![
            spec.name.clone(),
            full_rows.to_string(),
            fmt_secs(task),
            fmt_secs(report),
            format!("{:.1}x", ratio(report, task)),
        ]);
    }
    print_table(&["Dataset", "#Rows", "DataPrep task", "PP report", "Ratio"], &table);
    Ok(())
}

type Call = fn(&DataFrame, &[&str], &Config) -> EdaResult<Analysis>;

/// An arm timing `name(df, columns)`.
fn call<'a>(
    f: Call,
    name: &'static str,
    df: &'a DataFrame,
    columns: &[&'a str],
    cfg: &'a Config,
) -> Arm<'a> {
    let columns = columns.to_vec();
    Arm::new(format!("{name}(df, {})", columns.join(", ")), move || {
        f(df, &columns, cfg).expect(name)
    })
}

/// The columns Figure 5 pairs: numeric ones, and categorical ones with
/// at most 100 distinct values, as the paper does.
fn eligible_pair_columns<'a>(df: &'a DataFrame, cfg: &Config) -> Vec<&'a str> {
    df.iter()
        .filter(|(_, c)| match detect(c, cfg.types.low_cardinality) {
            SemanticType::Numerical => true,
            SemanticType::Categorical => {
                let mut distinct = std::collections::HashSet::new();
                c.display_iter().flatten().all(|v| {
                    distinct.insert(v);
                    distinct.len() <= 100
                })
            }
        })
        .map(|(n, _)| n)
        .collect()
}

/// Figure 5: the share of fine-grained tasks finishing within 0.5 / 1 /
/// 2 / 5 s. `plot`, `plot_correlation` and `plot_missing` run for every
/// column of every Table 2 dataset, for the whole frame and for up to
/// [`MAX_PAIRS`] column pairs. The paper calls `plot_missing(df, x)` the
/// costliest task, about twice a `plot`: the two are compared over the
/// same columns, by time and by tasks run per call — `plot_missing(df, x)`
/// is a whole-frame call, both sides of every other column.
fn figure5(scale: f64) -> Result<(), String> {
    println!("Figure 5: fine-grained task latencies, cache off  [≤{MAX_PAIRS} pairs/dataset]");
    let cfg = uncached(&[]);
    // Indices into `times`: the table's four rows, then `plot(df, x)`
    // alone (also counted in the first row) for the ratio.
    const PLOT: usize = 0;
    const CORR: usize = 1;
    const MISSING: usize = 2;
    const MISSING_X: usize = 3;
    const PLOT_X: usize = 4;
    let mut times: [Vec<Duration>; 5] = Default::default();
    let mut tasks: [Vec<usize>; 5] = Default::default();
    for spec in kaggle_specs() {
        let df = generate(&spec.scaled(scale), 42);
        let is_numeric = |n: &str| {
            let column = df.column(n).expect("name");
            detect(column, cfg.types.low_cardinality) == SemanticType::Numerical
        };
        let names: Vec<&str> = df.names().iter().map(String::as_str).collect();
        let numeric: Vec<&str> = names.iter().copied().filter(|n| is_numeric(n)).collect();
        let correlated = numeric.len() >= 2;

        let mut arms = Vec::new();
        for &x in &names {
            arms.push((PLOT_X, call(plot, "plot", &df, &[x], &cfg)));
            arms.push((MISSING_X, call(plot_missing, "plot_missing", &df, &[x], &cfg)));
        }
        if correlated {
            for &x in &numeric {
                arms.push((CORR, call(plot_correlation, "plot_correlation", &df, &[x], &cfg)));
            }
        }
        arms.push((PLOT, call(plot, "plot", &df, &[], &cfg)));
        if correlated {
            arms.push((CORR, call(plot_correlation, "plot_correlation", &df, &[], &cfg)));
        }
        arms.push((MISSING, call(plot_missing, "plot_missing", &df, &[], &cfg)));
        let eligible = eligible_pair_columns(&df, &cfg);
        let pairs = eligible
            .iter()
            .enumerate()
            .flat_map(|(i, &a)| eligible[i + 1..].iter().map(move |&b| [a, b]))
            .take(MAX_PAIRS);
        for pair in pairs {
            arms.push((PLOT, call(plot, "plot", &df, &pair, &cfg)));
            arms.push((MISSING, call(plot_missing, "plot_missing", &df, &pair, &cfg)));
            if pair.iter().all(|c| numeric.contains(c)) {
                arms.push((CORR, call(plot_correlation, "plot_correlation", &df, &pair, &cfg)));
            }
        }

        let (kinds, arms): (Vec<usize>, Vec<Arm>) = arms.into_iter().unzip();
        for (kind, timing) in kinds.into_iter().zip(time_arms(FIGURE_REPS, arms)?) {
            times[kind].push(timing.median);
            tasks[kind].push(timing.tasks_run());
        }
    }

    let plot_all: Vec<Duration> = times[PLOT].iter().chain(&times[PLOT_X]).copied().collect();
    let mean = |ts: &[Duration]| ts.iter().sum::<Duration>().as_secs_f64() / ts.len().max(1) as f64;
    let functions = [
        ("plot(...)", plot_all.as_slice()),
        ("plot_correlation(...)", &times[CORR]),
        ("plot_missing(df)/(df,x,y)", &times[MISSING]),
        ("plot_missing(df,x)", &times[MISSING_X]),
    ];
    let rows: Vec<Vec<String>> = functions
        .iter()
        .map(|(name, ts)| {
            let mut row = vec![name.to_string(), ts.len().to_string()];
            for t in THRESHOLDS {
                let within = ts.iter().filter(|d| d.as_secs_f64() <= t).count();
                row.push(format!("{:.1}%", 100.0 * within as f64 / ts.len().max(1) as f64));
            }
            row.push(format!("{:.3}s", mean(ts)));
            row
        })
        .collect();
    print_table(&["Function", "#Tasks", "≤0.5s", "≤1s", "≤2s", "≤5s", "mean"], &rows);
    println!();
    let per_call = |ts: &[usize]| ts.iter().sum::<usize>() as f64 / ts.len().max(1) as f64;
    println!(
        "paper: most tasks finish within 1s for every function; plot_missing(df, x) computes two frequency"
    );
    println!("distributions per column, about 2x a plot. Here it is a whole-frame call (both sides of every");
    println!(
        "other column): over the same columns, plot_missing(df, x) {:.4}s and {:.1} tasks a call, plot(df, x) {:.4}s and {:.1}",
        mean(&times[MISSING_X]),
        per_call(&tasks[MISSING_X]),
        mean(&times[PLOT_X]),
        per_call(&tasks[PLOT_X]),
    );
    Ok(())
}

/// Figure 6(a): the engines computing `plot(df)`'s intermediates on the
/// bitcoin shape. The paper finds Dask < Modin < Koalas/PySpark; the
/// policies encode the first two (see [`EnginePolicy`]). Koalas/PySpark
/// need a Spark runtime and are not run.
fn figure6a(scale: f64) -> Result<(), String> {
    let rows = ((F6A_ROWS * scale) as usize).max(1000);
    println!("Figure 6(a): engine comparison, plot(df) intermediates on bitcoin[{rows} rows]");
    let df = generate(&bitcoin_spec(rows), 42);
    let cfg = Config::default();
    let mut ctx = ComputeContext::new(&df, &cfg);
    let outputs = plan_overview(&mut ctx).outputs();
    let engines = [
        ("LazyParallel (Dask)", EnginePolicy::LazyParallel),
        ("EagerPerOp (Modin)", EnginePolicy::EagerPerOp),
        ("SingleThread (Pandas)", EnginePolicy::SingleThread),
    ];
    let (graph, outputs, workers) = (&ctx.graph, &outputs, cfg.engine.workers);
    let arms = engines
        .map(|(name, policy)| Arm::new(name, move || policy.execute(graph, outputs, workers)));
    let rows: Vec<Vec<String>> = time(FIGURE_REPS, arms)?
        .iter()
        .map(|t| vec![t.name.clone(), fmt_secs(t.median), t.tasks_run().to_string()])
        .collect();
    print_table(&["Engine", "Time", "Tasks run"], &rows);
    println!();
    println!("paper ordering: Dask fastest, then Modin (eager per-op), then Koalas/PySpark");
    println!("(not run here: no Spark runtime). EagerPerOp reruns shared work.");
    Ok(())
}

/// Figure 6(b): `create_report` time against data size, DataPrep and the
/// baseline. The paper grows bitcoin from 10M to 100M rows and finds
/// both tools linear, DataPrep about 6× faster. Then the Figure 6(c)
/// stand-in: the paper adds workers on an 8-node cluster, which one
/// host cannot; the largest report runs on 1 → host-core workers.
fn figure6bc(scale: f64) -> Result<(), String> {
    let mut sizes: Vec<usize> = (1..=F6B_POINTS)
        .map(|i| ((F6B_ROWS * scale * i as f64 / F6B_POINTS as f64) as usize).max(1000))
        .collect();
    sizes.dedup();
    println!(
        "Figure 6(b): create_report vs data size on bitcoin; each frame fresh, default config"
    );
    let cfg = Config::default();
    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    let mut ns_per_row = Vec::new();
    for &n in &sizes {
        let df = generate(&bitcoin_spec(n), 42);
        let (pp, dp, speedup) = pp_vs_dataprep(&df, &cfg, &format!("bitcoin[{n}]"))?;
        speedups.push(speedup);
        ns_per_row.push(dp.median.as_secs_f64() * 1e9 / n as f64);
        rows.push(vec![
            n.to_string(),
            fmt_secs(pp.median),
            fmt_secs(dp.median),
            format!("{speedup:.1}x"),
        ]);
    }
    print_table(&["Rows", "PP", "DataPrep", "Faster"], &rows);
    println!();
    println!(
        "linearity: DataPrep ns/row first point {:.0}, last point {:.0} (paper: both tools linear)",
        ns_per_row[0],
        ns_per_row[ns_per_row.len() - 1]
    );
    println!("mean speedup {:.1}x (paper: ≈6x at these sizes)", geometric_mean(&speedups));

    let largest = sizes[sizes.len() - 1];
    let df = generate(&bitcoin_spec(largest), 42);
    let host_cores = eda_taskgraph::scheduler::cores();
    println!();
    println!("Figure 6(c) stand-in: create_report on {largest} rows vs engine.workers, cache off");
    let configs: Vec<Config> =
        (1..=host_cores).map(|w| uncached(&[("engine.workers", &w.to_string())])).collect();
    let arms = configs
        .iter()
        .map(|cfg| {
            let name = format!("create_report, {} workers", cfg.engine.workers);
            Arm::new(name, || create_report(&df, cfg).expect("report"))
        })
        .collect();
    let timed = time_arms(FIGURE_REPS, arms)?;
    let rows: Vec<Vec<String>> = timed
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let vs_one = ratio(timed[0].median, t.median);
            vec![(i + 1).to_string(), fmt_secs(t.median), format!("{vs_one:.2}x")]
        })
        .collect();
    print_table(&["Workers", "DataPrep", "vs 1 worker"], &rows);
    Ok(())
}

/// The design choices of paper §5, each against its opponent on one
/// frame: computation sharing (CSE on, or [`unshared_context`]), the
/// two-phase boundary ([`CorrTiling`]), and the partition count.
fn ablations(scale: f64) -> Result<(), String> {
    let spec = kaggle_spec_by_name("adult").expect("Table 2 spec").scaled(ABLATION_SCALE * scale);
    let df = generate(&spec, 42);
    println!(
        "Ablations (paper §5) on adult[{} rows], cache off, median of {ABLATION_REPS} rotating repetitions",
        spec.rows
    );
    let cfg = uncached(&[]);
    let sharing = time_arms(
        ABLATION_REPS,
        vec![
            Arm::new("CSE on", || Report::create(&df, &cfg).expect("report")),
            Arm::new("CSE off", || {
                Report::from_context(unshared_context(&df, &cfg)).expect("report")
            }),
        ],
    )?;
    let tiling = time_arms(
        ABLATION_REPS,
        vec![
            Arm::new("tiles per worker", || {
                CorrTiling::PerWorker.matrices(&df, &cfg).expect("corr")
            }),
            Arm::new("one task per pair", || {
                CorrTiling::PerPair.matrices(&df, &cfg).expect("corr")
            }),
        ],
    )?;
    // An arm that silently held fewer partitions than its label would
    // time another arm twice.
    for n in NPARTITIONS {
        let held = ComputeContext::partitioned(&df, &cfg, n).pf.npartitions();
        if held != n {
            return Err(format!("ablation arm partitions={n}: the context holds {held}"));
        }
    }
    let picked = ComputeContext::new(&df, &cfg).pf.npartitions();
    let (df, cfg) = (&df, &cfg);
    let arms = NPARTITIONS
        .into_iter()
        .map(|n| {
            let name = format!("partitions={n}{}", if n == picked { " *" } else { "" });
            Arm::new(name, move || {
                Report::from_context(ComputeContext::partitioned(df, cfg, n)).expect("report")
            })
        })
        .collect();
    let partitions = time_arms(ABLATION_REPS, arms)?;

    let choices = [
        ("sharing", "create_report", sharing),
        ("two-phase boundary", "plot_correlation(df) matrices", tiling),
        ("partitioning", "create_report", partitions),
    ];
    let rows: Vec<Vec<String>> = choices
        .iter()
        .flat_map(|(choice, call, timed)| {
            timed.iter().map(move |t| {
                let (median, tasks) = (fmt_secs(t.median), t.tasks_run().to_string());
                vec![choice.to_string(), call.to_string(), t.name.clone(), median, tasks]
            })
        })
        .collect();
    print_table(&["Design choice", "Call", "Arm", "Median", "Tasks run"], &rows);
    println!("* the partition count ComputeContext::new picks for this frame");
    Ok(())
}
