//! The Config Manager (paper §4.2.1).
//!
//! All tunable behaviour flows through one [`Config`] value that is
//! resolved up front and passed through the Compute and Render stages —
//! the paper's answer to "hundreds of parameters": parameters are grouped
//! per chart/task, every group has defaults, and users override them with
//! `"section.key"` strings exactly like the `{"hist.bins": 50}` snippets
//! the how-to guide shows.

mod howto;
mod params;

pub use howto::{howto_for, HowToEntry, HowToGuide};
pub use params::{describe, PARAMS};

use crate::error::{EdaError, EdaResult};

/// Histogram parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct HistConfig {
    /// Number of bins.
    pub bins: usize,
}

/// KDE plot parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct KdeConfig {
    /// Grid resolution of the density curve.
    pub grid: usize,
}

/// Normal Q-Q plot parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct QqConfig {
    /// Maximum number of plotted quantile points.
    pub points: usize,
}

/// Box-plot parameters (univariate, binned, and categorical variants).
#[derive(Debug, Clone, PartialEq)]
pub struct BoxConfig {
    /// Maximum outlier points materialized per box.
    pub max_outliers: usize,
    /// Number of x-bins for the binned box plot (N×N bivariate).
    pub bins: usize,
    /// Maximum category groups for the categorical box plot (N×C).
    pub ngroups: usize,
}

/// Bar-chart parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct BarConfig {
    /// Number of bars (top categories); the rest aggregate into "Other".
    pub ngroups: usize,
}

/// Pie-chart parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct PieConfig {
    /// Number of slices; the rest aggregate into "Other".
    pub slices: usize,
}

/// Word-cloud / word-frequency parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct WordConfig {
    /// Number of top words reported.
    pub top: usize,
}

/// Scatter-plot parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ScatterConfig {
    /// Maximum number of points drawn (reservoir-style thinning above it).
    pub sample: usize,
}

/// Hexbin parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct HexbinConfig {
    /// Hexagons across the x-range.
    pub gridsize: usize,
}

/// Crosstab-style parameters shared by heat map, nested and stacked bars.
#[derive(Debug, Clone, PartialEq)]
pub struct CrosstabConfig {
    /// Category groups on x.
    pub ngroups_x: usize,
    /// Category groups on y.
    pub ngroups_y: usize,
}

/// Multi-line chart parameters (N×C bivariate).
#[derive(Debug, Clone, PartialEq)]
pub struct LineConfig {
    /// Category groups (one line each).
    pub ngroups: usize,
    /// Histogram bins along the numeric axis.
    pub bins: usize,
}

/// Missing-spectrum parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SpectrumConfig {
    /// Number of row bins.
    pub bins: usize,
}

/// Time-series parameters (`ts.*`; the paper's §7 future-work task).
#[derive(Debug, Clone, PartialEq)]
pub struct TsConfig {
    /// Resampled points on the time axis.
    pub points: usize,
    /// Rolling-mean window (in resampled points).
    pub window: usize,
    /// Maximum autocorrelation lag.
    pub max_lag: usize,
}

/// Violin-plot parameters (`violin.*`). Off by default: the violin is
/// the community-suggested addition to `plot(df, x)` the paper's §3.2
/// describes, enabled with `("violin.enabled", "true")`.
#[derive(Debug, Clone, PartialEq)]
pub struct ViolinConfig {
    /// Whether the univariate numeric panel includes a violin plot.
    pub enabled: bool,
}

/// Insight thresholds (paper §4.2.2: "each insight has its own,
/// user-definable threshold").
#[derive(Debug, Clone, PartialEq)]
pub struct InsightConfig {
    /// Missing-rate fraction above which a column is flagged.
    pub missing: f64,
    /// |skewness| above which a distribution is flagged as skewed.
    pub skew: f64,
    /// Chi-square p-value above which a distribution is flagged uniform.
    pub uniform_p: f64,
    /// Distinct-count fraction above which a categorical column is flagged
    /// high-cardinality.
    pub high_cardinality: f64,
    /// |correlation| at which a pair is flagged highly correlated.
    pub correlation: f64,
    /// Outlier fraction above which a column is flagged outlier-heavy.
    pub outlier: f64,
    /// Two-sample KS distance *below* which distributions count as similar.
    pub similarity_ks: f64,
    /// Fraction of infinite values above which a column is flagged.
    pub infinite: f64,
    /// Fraction of zeros above which a column is flagged.
    pub zeros: f64,
    /// Fraction of negatives above which a column is flagged.
    pub negatives: f64,
    /// |trend slope| (per time-range, normalized) that flags a trend.
    pub trend: f64,
    /// |autocorrelation| that flags a seasonal/autocorrelated series.
    pub autocorr: f64,
}

/// Semantic type-detection parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeDetectionConfig {
    /// Max distinct values for an integer column to read as categorical.
    pub low_cardinality: usize,
}

/// Execution-engine parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Data partitions for the parallel phase.
    pub npartitions: usize,
    /// Worker threads.
    pub workers: usize,
    /// When non-zero and the frame is larger, compute on a systematic
    /// sample of about this many rows and flag the analysis as
    /// approximated (the paper's §7 sampling future-work, with the
    /// user-notification it calls for).
    pub sample_rows: usize,
    /// Per-task wall-clock budget in milliseconds (0 = unlimited). Tasks
    /// exceeding it are recorded as timed out and their dependents are
    /// skipped; the rest of the run completes and the report degrades
    /// gracefully.
    pub task_deadline_ms: u64,
    /// Record a per-task trace of the run and render a "Performance" tab
    /// in HTML output (worker Gantt, slowest tasks, critical path). Off
    /// by default: untraced runs skip span recording entirely.
    pub profile: bool,
    /// Byte budget for the process-wide cross-call result cache. Derived
    /// task results are memoized keyed by `(frame fingerprint, task key)`,
    /// so repeated EDA calls over the same frame skip recomputation; least
    /// recently used entries are evicted past the budget. `0` disables
    /// caching entirely — runs are then bit-identical to the pre-cache
    /// engine.
    pub cache_budget_bytes: usize,
    /// Per-run memory budget in bytes (0 = unlimited). The scheduler
    /// charges each materialized task result against a run-wide gauge;
    /// a charge that would exceed the budget fails that task with
    /// `BudgetExceeded` and the public API degrades the affected section
    /// to a sampled, approximate re-run instead of exhausting memory.
    pub memory_budget_bytes: usize,
    /// Whole-run wall-clock deadline in milliseconds (0 = unlimited).
    /// Unlike `task_deadline_ms` this cancels the *run*: in-flight
    /// kernels observe the cancellation at their next poll and stop,
    /// workers are reclaimed, and remaining tasks are cancelled.
    pub run_deadline_ms: u64,
}

/// Figure-size parameters consumed by the render layer.
#[derive(Debug, Clone, PartialEq)]
pub struct DisplayConfig {
    /// Figure width in pixels.
    pub width: usize,
    /// Figure height in pixels.
    pub height: usize,
}

/// The resolved configuration passed through the whole system.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// Histogram settings (`hist.*`).
    pub hist: HistConfig,
    /// KDE settings (`kde.*`).
    pub kde: KdeConfig,
    /// Q-Q settings (`qq.*`).
    pub qq: QqConfig,
    /// Box-plot settings (`box.*`).
    pub box_plot: BoxConfig,
    /// Bar-chart settings (`bar.*`).
    pub bar: BarConfig,
    /// Pie-chart settings (`pie.*`).
    pub pie: PieConfig,
    /// Word statistics settings (`word.*`).
    pub word: WordConfig,
    /// Scatter settings (`scatter.*`).
    pub scatter: ScatterConfig,
    /// Hexbin settings (`hexbin.*`).
    pub hexbin: HexbinConfig,
    /// Crosstab settings (`crosstab.*`).
    pub crosstab: CrosstabConfig,
    /// Multi-line settings (`line.*`).
    pub line: LineConfig,
    /// Missing-spectrum settings (`spectrum.*`).
    pub spectrum: SpectrumConfig,
    /// Time-series settings (`ts.*`).
    pub ts: TsConfig,
    /// Violin settings (`violin.*`).
    pub violin: ViolinConfig,
    /// Insight thresholds (`insight.*`).
    pub insight: InsightConfig,
    /// Type-detection settings (`types.*`).
    pub types: TypeDetectionConfig,
    /// Engine settings (`engine.*`).
    pub engine: EngineConfig,
    /// Figure sizes (`display.*`).
    pub display: DisplayConfig,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            hist: HistConfig { bins: 50 },
            kde: KdeConfig { grid: 200 },
            qq: QqConfig { points: 100 },
            box_plot: BoxConfig { max_outliers: 50, bins: 10, ngroups: 10 },
            bar: BarConfig { ngroups: 10 },
            pie: PieConfig { slices: 6 },
            word: WordConfig { top: 30 },
            scatter: ScatterConfig { sample: 1000 },
            hexbin: HexbinConfig { gridsize: 20 },
            crosstab: CrosstabConfig { ngroups_x: 10, ngroups_y: 5 },
            line: LineConfig { ngroups: 5, bins: 20 },
            spectrum: SpectrumConfig { bins: 20 },
            ts: TsConfig { points: 100, window: 7, max_lag: 24 },
            violin: ViolinConfig { enabled: false },
            insight: InsightConfig {
                missing: 0.05,
                skew: 1.0,
                uniform_p: 0.99,
                high_cardinality: 0.5,
                correlation: 0.8,
                outlier: 0.05,
                similarity_ks: 0.05,
                infinite: 0.0,
                zeros: 0.5,
                negatives: 0.0,
                trend: 0.3,
                autocorr: 0.5,
            },
            types: TypeDetectionConfig { low_cardinality: 10 },
            engine: EngineConfig {
                npartitions: default_npartitions(),
                workers: default_workers(),
                sample_rows: 0,
                task_deadline_ms: 0,
                profile: false,
                cache_budget_bytes: 256 << 20,
                memory_budget_bytes: 0,
                run_deadline_ms: 0,
            },
            display: DisplayConfig { width: 450, height: 300 },
        }
    }
}

fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn default_npartitions() -> usize {
    (default_workers() * 2).max(2)
}

impl Config {
    /// Build a config from `("section.key", "value")` override pairs — the
    /// programmatic equivalent of the paper's `plot(df, x, config)` dict.
    pub fn from_pairs<'a, I>(pairs: I) -> EdaResult<Config>
    where
        I: IntoIterator<Item = (&'a str, &'a str)>,
    {
        let mut cfg = Config::default();
        for (k, v) in pairs {
            cfg.set(k, v)?;
        }
        Ok(cfg)
    }

    /// Override one parameter by its string key.
    pub fn set(&mut self, key: &str, value: &str) -> EdaResult<()> {
        fn usize_of(key: &str, v: &str) -> EdaResult<usize> {
            v.trim().parse().map_err(|_| EdaError::Config {
                key: key.to_string(),
                message: format!("expected a non-negative integer, got {v:?}"),
            })
        }
        fn f64_of(key: &str, v: &str) -> EdaResult<f64> {
            v.trim().parse().map_err(|_| EdaError::Config {
                key: key.to_string(),
                message: format!("expected a number, got {v:?}"),
            })
        }
        fn bool_of(key: &str, v: &str) -> EdaResult<bool> {
            match v.trim() {
                "true" | "True" => Ok(true),
                "false" | "False" => Ok(false),
                _ => Err(EdaError::Config {
                    key: key.to_string(),
                    message: format!("expected true/false, got {v:?}"),
                }),
            }
        }
        match key {
            "hist.bins" => self.hist.bins = usize_of(key, value)?.max(1),
            "kde.grid" => self.kde.grid = usize_of(key, value)?.max(2),
            "qq.points" => self.qq.points = usize_of(key, value)?.max(2),
            "box.max_outliers" => self.box_plot.max_outliers = usize_of(key, value)?,
            "box.bins" => self.box_plot.bins = usize_of(key, value)?.max(1),
            "box.ngroups" => self.box_plot.ngroups = usize_of(key, value)?.max(1),
            "bar.ngroups" => self.bar.ngroups = usize_of(key, value)?.max(1),
            "pie.slices" => self.pie.slices = usize_of(key, value)?.max(1),
            "word.top" => self.word.top = usize_of(key, value)?.max(1),
            "scatter.sample" => self.scatter.sample = usize_of(key, value)?.max(1),
            "hexbin.gridsize" => self.hexbin.gridsize = usize_of(key, value)?.max(2),
            "crosstab.ngroups_x" => self.crosstab.ngroups_x = usize_of(key, value)?.max(1),
            "crosstab.ngroups_y" => self.crosstab.ngroups_y = usize_of(key, value)?.max(1),
            "line.ngroups" => self.line.ngroups = usize_of(key, value)?.max(1),
            "line.bins" => self.line.bins = usize_of(key, value)?.max(1),
            "spectrum.bins" => self.spectrum.bins = usize_of(key, value)?.max(1),
            "ts.points" => self.ts.points = usize_of(key, value)?.max(2),
            "ts.window" => self.ts.window = usize_of(key, value)?.max(1),
            "ts.max_lag" => self.ts.max_lag = usize_of(key, value)?.max(1),
            "violin.enabled" => self.violin.enabled = bool_of(key, value)?,
            "insight.missing" => self.insight.missing = f64_of(key, value)?,
            "insight.skew" => self.insight.skew = f64_of(key, value)?,
            "insight.uniform_p" => self.insight.uniform_p = f64_of(key, value)?,
            "insight.high_cardinality" => self.insight.high_cardinality = f64_of(key, value)?,
            "insight.correlation" => self.insight.correlation = f64_of(key, value)?,
            "insight.outlier" => self.insight.outlier = f64_of(key, value)?,
            "insight.similarity_ks" => self.insight.similarity_ks = f64_of(key, value)?,
            "insight.infinite" => self.insight.infinite = f64_of(key, value)?,
            "insight.zeros" => self.insight.zeros = f64_of(key, value)?,
            "insight.negatives" => self.insight.negatives = f64_of(key, value)?,
            "insight.trend" => self.insight.trend = f64_of(key, value)?,
            "insight.autocorr" => self.insight.autocorr = f64_of(key, value)?,
            "types.low_cardinality" => self.types.low_cardinality = usize_of(key, value)?,
            "engine.npartitions" => self.engine.npartitions = usize_of(key, value)?.max(1),
            "engine.workers" => self.engine.workers = usize_of(key, value)?.max(1),
            "engine.sample_rows" => self.engine.sample_rows = usize_of(key, value)?,
            "engine.task_deadline_ms" => {
                self.engine.task_deadline_ms = usize_of(key, value)? as u64
            }
            "engine.profile" => self.engine.profile = bool_of(key, value)?,
            "engine.cache_budget_bytes" => {
                self.engine.cache_budget_bytes = usize_of(key, value)?
            }
            "engine.memory_budget_bytes" => {
                self.engine.memory_budget_bytes = usize_of(key, value)?
            }
            "engine.run_deadline_ms" => {
                self.engine.run_deadline_ms = usize_of(key, value)? as u64
            }
            "display.width" => self.display.width = usize_of(key, value)?.max(50),
            "display.height" => self.display.height = usize_of(key, value)?.max(50),
            _ => {
                return Err(EdaError::Config {
                    key: key.to_string(),
                    message: "unknown parameter (see Config docs / how-to guide)".into(),
                })
            }
        }
        Ok(())
    }

    /// A stable hash of every parameter that affects computed results —
    /// used in task keys so that differently-configured computations never
    /// share graph nodes.
    pub fn compute_hash(&self) -> u64 {
        use eda_taskgraph::key::Fnv1a;
        use std::hash::{Hash, Hasher};
        // FNV with a fixed seed, like the task keys it feeds into: the
        // hash must come out identical in every process or cross-call
        // cache keys would never line up after a restart.
        let mut h = Fnv1a::new();
        self.hist.bins.hash(&mut h);
        self.kde.grid.hash(&mut h);
        self.qq.points.hash(&mut h);
        self.box_plot.max_outliers.hash(&mut h);
        self.box_plot.bins.hash(&mut h);
        self.box_plot.ngroups.hash(&mut h);
        self.bar.ngroups.hash(&mut h);
        self.pie.slices.hash(&mut h);
        self.word.top.hash(&mut h);
        self.scatter.sample.hash(&mut h);
        self.hexbin.gridsize.hash(&mut h);
        self.crosstab.ngroups_x.hash(&mut h);
        self.crosstab.ngroups_y.hash(&mut h);
        self.line.ngroups.hash(&mut h);
        self.line.bins.hash(&mut h);
        self.spectrum.bins.hash(&mut h);
        self.ts.points.hash(&mut h);
        self.ts.window.hash(&mut h);
        self.ts.max_lag.hash(&mut h);
        self.violin.enabled.hash(&mut h);
        self.types.low_cardinality.hash(&mut h);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_front_end() {
        let c = Config::default();
        assert_eq!(c.hist.bins, 50); // Figure 1's how-to guide example
        assert!(c.engine.workers >= 1);
    }

    #[test]
    fn set_overrides_values() {
        let mut c = Config::default();
        c.set("hist.bins", "200").unwrap();
        assert_eq!(c.hist.bins, 200);
        c.set("insight.skew", "2.5").unwrap();
        assert_eq!(c.insight.skew, 2.5);
        c.set("engine.profile", "true").unwrap();
        assert!(c.engine.profile);
    }

    #[test]
    fn from_pairs_applies_all() {
        let c = Config::from_pairs(vec![("hist.bins", "25"), ("bar.ngroups", "3")]).unwrap();
        assert_eq!(c.hist.bins, 25);
        assert_eq!(c.bar.ngroups, 3);
    }

    #[test]
    fn unknown_key_errors() {
        // A typo, and the five engine keys that left with their mechanisms.
        let mut c = Config::default();
        for key in [
            "nope.nothing",
            "engine.morsel_bytes",
            "engine.metrics",
            "engine.max_concurrent_runs",
            "engine.task_retries",
            "engine.eager_finish",
        ] {
            let e = c.set(key, "1").unwrap_err();
            assert!(
                matches!(&e, EdaError::Config { message, .. } if message.contains("unknown parameter")),
                "{key}: {e}"
            );
        }
    }

    #[test]
    fn bad_values_error() {
        let mut c = Config::default();
        assert!(c.set("hist.bins", "many").is_err());
        assert!(c.set("insight.skew", "x").is_err());
        assert!(c.set("engine.profile", "maybe").is_err());
    }

    #[test]
    fn zero_bins_clamped() {
        let mut c = Config::default();
        c.set("hist.bins", "0").unwrap();
        assert_eq!(c.hist.bins, 1);
    }

    #[test]
    fn compute_hash_tracks_compute_params_only() {
        let a = Config::default();
        let mut b = Config::default();
        b.set("display.width", "900").unwrap();
        assert_eq!(a.compute_hash(), b.compute_hash(), "display is render-only");
        let mut c = Config::default();
        c.set("hist.bins", "51").unwrap();
        assert_ne!(a.compute_hash(), c.compute_hash());
    }

    #[test]
    fn default_compute_hash_is_pinned() {
        // Feeds every task key (`ComputeContext::params`): a value that
        // changed from one process to the next would make every
        // cross-call cache key miss. 64-bit targets.
        assert_eq!(Config::default().compute_hash(), 0x40ca_122f_b969_1b1b);
    }
}
