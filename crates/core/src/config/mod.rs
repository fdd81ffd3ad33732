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

use std::hash::Hasher;

use crate::error::{EdaError, EdaResult};

/// Histogram parameters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistConfig {
    /// Number of bins.
    pub bins: usize,
}

/// KDE plot parameters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KdeConfig {
    /// Grid resolution of the density curve.
    pub grid: usize,
}

/// Normal Q-Q plot parameters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QqConfig {
    /// Maximum number of plotted quantile points.
    pub points: usize,
}

/// Box-plot parameters (univariate, binned, and categorical variants).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BoxConfig {
    /// Maximum outlier points materialized per box.
    pub max_outliers: usize,
    /// Number of x-bins for the binned box plot (N×N bivariate).
    pub bins: usize,
    /// Maximum category groups for the categorical box plot (N×C).
    pub ngroups: usize,
}

/// Bar-chart parameters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BarConfig {
    /// Number of bars (top categories); the rest aggregate into "Other".
    pub ngroups: usize,
}

/// Pie-chart parameters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PieConfig {
    /// Number of slices; the rest aggregate into "Other".
    pub slices: usize,
}

/// Word-cloud / word-frequency parameters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WordConfig {
    /// Number of top words reported.
    pub top: usize,
}

/// Scatter-plot parameters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScatterConfig {
    /// Maximum number of points drawn (reservoir-style thinning above it).
    pub sample: usize,
}

/// Hexbin parameters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HexbinConfig {
    /// Hexagons across the x-range.
    pub gridsize: usize,
}

/// Crosstab-style parameters shared by heat map, nested and stacked bars.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CrosstabConfig {
    /// Category groups on x.
    pub ngroups_x: usize,
    /// Category groups on y.
    pub ngroups_y: usize,
}

/// Multi-line chart parameters (N×C bivariate).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LineConfig {
    /// Category groups (one line each).
    pub ngroups: usize,
    /// Histogram bins along the numeric axis.
    pub bins: usize,
}

/// Missing-spectrum parameters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpectrumConfig {
    /// Number of row bins.
    pub bins: usize,
}

/// Time-series parameters (`ts.*`; the paper's §7 future-work task).
#[derive(Debug, Clone, Default, PartialEq)]
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
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ViolinConfig {
    /// Whether the univariate numeric panel includes a violin plot.
    pub enabled: bool,
}

/// Insight thresholds (paper §4.2.2: "each insight has its own,
/// user-definable threshold").
#[derive(Debug, Clone, Default, PartialEq)]
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
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TypeDetectionConfig {
    /// Max distinct values for an integer column to read as categorical.
    pub low_cardinality: usize,
}

/// Execution-engine parameters: the six `engine.*` keys. Every public
/// call is one scheduler run; `sample_rows` bounds what it computes
/// over, and the two deadlines bound how long it may take.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineConfig {
    /// Worker threads.
    pub workers: usize,
    /// When non-zero and the frame is larger, compute on a systematic
    /// sample of about this many rows and flag the analysis as
    /// approximated (the paper's §7 sampling future-work, with the
    /// user-notification it calls for). The one way to bound what a
    /// call computes over.
    pub sample_rows: usize,
    /// Per-task wall-clock budget in milliseconds (0 = unlimited). Tasks
    /// exceeding it are recorded as timed out and their dependents are
    /// skipped; the rest of the run completes and the report degrades
    /// gracefully. This is what `run_deadline_ms` cannot do: a run
    /// deadline stops every task still queued behind a slow one.
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
    /// Whole-run wall-clock deadline in milliseconds (0 = unlimited).
    /// Unlike `task_deadline_ms` this cancels the *run*: in-flight
    /// kernels observe the cancellation at their next poll and stop,
    /// workers are reclaimed, and remaining tasks are cancelled.
    pub run_deadline_ms: u64,
}

/// Figure-size parameters consumed by the render layer.
#[derive(Debug, Clone, Default, PartialEq)]
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
    /// Every [`PARAMS`] row's default, applied to a blank config.
    fn default() -> Self {
        let mut cfg = Config {
            hist: HistConfig::default(),
            kde: KdeConfig::default(),
            qq: QqConfig::default(),
            box_plot: BoxConfig::default(),
            bar: BarConfig::default(),
            pie: PieConfig::default(),
            word: WordConfig::default(),
            scatter: ScatterConfig::default(),
            hexbin: HexbinConfig::default(),
            crosstab: CrosstabConfig::default(),
            line: LineConfig::default(),
            spectrum: SpectrumConfig::default(),
            ts: TsConfig::default(),
            violin: ViolinConfig::default(),
            insight: InsightConfig::default(),
            types: TypeDetectionConfig::default(),
            engine: EngineConfig::default(),
            display: DisplayConfig::default(),
        };
        for p in PARAMS {
            (p.slot)(&mut cfg).set(p.key, p.default).expect("every registry default parses");
        }
        cfg
    }
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
        let spec = describe(key).ok_or_else(|| EdaError::Config {
            key: key.to_string(),
            message: "unknown parameter (see Config docs / how-to guide)".into(),
        })?;
        (spec.slot)(self).set(key, value)
    }

    /// A stable hash of every parameter that affects computed results —
    /// used in task keys so that differently-configured computations never
    /// share graph nodes. It covers every section but `insight`, `engine`
    /// and `display`: no statistic reads them.
    pub fn compute_hash(&self) -> u64 {
        self.hash_sections(|section| !matches!(section, "insight" | "engine" | "display"))
    }

    /// A stable hash of every `insight.*` threshold. The section nodes
    /// that find insights mix it into their keys.
    pub fn thresholds_hash(&self) -> u64 {
        self.hash_sections(|section| section == "insight")
    }

    /// Hash the fields of the [`PARAMS`] rows whose section is `hashed`,
    /// in table order. FNV with a fixed seed, like the task keys it feeds
    /// into: the hash must come out identical in every process or
    /// cross-call cache keys would never line up after a restart.
    fn hash_sections(&self, hashed: impl Fn(&str) -> bool) -> u64 {
        let mut h = eda_taskgraph::key::Fnv1a::new();
        // A row's slot borrows its field mutably: walk a copy.
        let mut cfg = self.clone();
        for p in PARAMS.iter().filter(|p| p.key.split_once('.').is_some_and(|(s, _)| hashed(s))) {
            (p.slot)(&mut cfg).hash(&mut h);
        }
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
        c.set("engine.workers", "1").unwrap();
        c.set("engine.workers", "cores").unwrap();
        assert_eq!(c.engine.workers, Config::default().engine.workers);
    }

    #[test]
    fn from_pairs_applies_all() {
        let c = Config::from_pairs(vec![("hist.bins", "25"), ("bar.ngroups", "3")]).unwrap();
        assert_eq!(c.hist.bins, 25);
        assert_eq!(c.bar.ngroups, 3);
    }

    #[test]
    fn unknown_key_errors() {
        // A typo, and the seven engine keys that left with their mechanisms.
        let mut c = Config::default();
        for key in [
            "nope.nothing",
            "engine.morsel_bytes",
            "engine.metrics",
            "engine.max_concurrent_runs",
            "engine.task_retries",
            "engine.eager_finish",
            "engine.memory_budget_bytes",
            "engine.npartitions",
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
        // The parameter slot of every task key (`ComputeContext::op`): a
        // value that changed from one process to the next would make
        // every cross-call cache key miss. 64-bit targets.
        assert_eq!(Config::default().compute_hash(), 0x40ca_122f_b969_1b1b);
    }
}
