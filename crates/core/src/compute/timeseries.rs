//! Time-series analysis: `plot_timeseries(df, time, value)`.
//!
//! The paper's §7 names time-series analysis ("a common EDA task in
//! finance, e.g. stock price analysis") as the first future-work task for
//! the task-centric design. This module implements it with the same
//! architecture as the built-in tasks: the (time, value) pairs gather in
//! the parallel graph; the section node resamples the series, overlays a
//! rolling mean, computes the autocorrelation function, fits a trend
//! line, and emits insights.

use std::sync::Arc;

use eda_stats::moments::Moments;
use eda_stats::regression::LinearFit;
use eda_stats::timeseries::{acf, resample_mean, rolling_mean};
use eda_taskgraph::NodeId;

use crate::error::{EdaError, EdaResult};
use crate::insights::{autocorr_insight, trend_insight};
use crate::intermediate::{Inter, Intermediates, StatRow};

use super::ctx::{un, ComputeContext};
use super::kernels;
use super::univariate::fmt_num;

/// The fewest complete `(time, value)` pairs a series is analyzed over.
const MIN_POINTS: usize = 3;
const TOO_FEW: &str = "need at least 3 complete (time, value) pairs";

/// Plan `plot_timeseries(df, time, value)`: the pair gather, the value
/// moments and the section node over them.
///
/// `time` must be numeric (epoch seconds, ordinal dates, any monotone
/// encoding); `value` must be numeric. A frame of fewer than 3 rows is an
/// error; one with fewer than 3 complete pairs fails its section.
pub fn compute_timeseries(
    ctx: &mut ComputeContext<'_>,
    time: &str,
    value: &str,
) -> EdaResult<NodeId> {
    for c in [time, value] {
        let col = ctx.df.column(c)?;
        if !col.dtype().is_numeric() {
            return Err(EdaError::NotNumeric(c.to_string()));
        }
    }
    if ctx.df.nrows() < MIN_POINTS {
        return Err(EdaError::EmptyInput(TOO_FEW));
    }
    let deps = vec![kernels::pair_values(ctx, time, value), kernels::moments(ctx, value)];
    let config = Arc::clone(&ctx.config);
    let value = value.to_string();
    Ok(ctx.section(&format!("section:timeseries:{time}:{value}"), deps, move |outs| {
        let pairs = un::<Vec<(f64, f64)>>(&outs[0]);
        let moments = un::<Moments>(&outs[1]);
        assert!(pairs.len() >= MIN_POINTS, "{TOO_FEW}");

        // Order by time, resample, smooth, correlate.
        let mut ordered = pairs.clone();
        ordered.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("no NaNs in pairs"));

        let (ts, vs) = resample_mean(&ordered, config.ts.points);
        let smooth = rolling_mean(&vs, config.ts.window);
        let correlations = acf(&vs, config.ts.max_lag);

        let mut ims = Intermediates::new();
        ims.push("line", Inter::Line { xs: ts.clone(), ys: vs.clone() });
        ims.push("rolling_mean", Inter::Line { xs: ts.clone(), ys: smooth });
        // ACF as a bar chart over lag labels.
        ims.push(
            "acf",
            Inter::Bar {
                categories: (1..=correlations.len()).map(|l| format!("lag {l}")).collect(),
                counts: correlations
                    .iter()
                    .map(|r| (r.abs() * 1000.0).round() as u64)
                    .collect(),
                other: 0,
                total_distinct: correlations.len(),
            },
        );

        // Trend: OLS of value on time, slope normalized to σ over the range.
        let times: Vec<f64> = ordered.iter().map(|(t, _)| *t).collect();
        let values: Vec<f64> = ordered.iter().map(|(_, v)| *v).collect();
        let fit = LinearFit::fit(&times, &values);
        let mut insights = Vec::new();
        let mut stats = vec![
            StatRow::new("points", pairs.len().to_string()),
            StatRow::new(
                "time range",
                format!("{} – {}", fmt_num(times[0]), fmt_num(times[times.len() - 1])),
            ),
            StatRow::new("mean", fmt_num(moments.mean)),
            StatRow::new("std", moments.std().map_or("-".into(), fmt_num)),
        ];
        if let (Some(fit), Some(std)) = (&fit, moments.std()) {
            let range = times[times.len() - 1] - times[0];
            let normalized = if std > 0.0 { fit.slope * range / std } else { 0.0 };
            stats.push(StatRow::new("trend slope", fmt_num(fit.slope)));
            stats.push(StatRow::new("trend (σ over range)", fmt_num(normalized)));
            stats.push(StatRow::new("trend R²", fmt_num(fit.r2)));
            if let Some(i) = trend_insight(&value, normalized, &config.insight) {
                insights.push(i);
            }
        }
        if let Some((lag, &r)) = correlations
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).expect("finite"))
        {
            stats.push(StatRow::new("strongest ACF", format!("lag {} (r = {r:.2})", lag + 1)));
            if let Some(i) = autocorr_insight(&value, lag + 1, r, &config.insight) {
                insights.push(i);
            }
        }
        ims.push("stats", Inter::StatsTable(stats));
        (ims, insights)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use eda_dataframe::{Column, DataFrame};

    /// A rising series with a period-10 seasonal component.
    fn frame() -> DataFrame {
        let n = 500;
        DataFrame::new(vec![
            (
                "t".into(),
                Column::from_f64((0..n).map(|i| i as f64).collect()),
            ),
            (
                "price".into(),
                Column::from_f64(
                    (0..n)
                        .map(|i| {
                            let trend = 0.05 * i as f64;
                            let season =
                                3.0 * (std::f64::consts::TAU * i as f64 / 10.0).sin();
                            100.0 + trend + season
                        })
                        .collect(),
                ),
            ),
            (
                "label".into(),
                Column::from_string((0..n).map(|i| format!("d{i}")).collect()),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn produces_line_rolling_acf_stats() {
        let df = frame();
        let cfg = Config::default();
        let mut ctx = ComputeContext::new(&df, &cfg);
        let node = compute_timeseries(&mut ctx, "t", "price").unwrap();
        let (ims, _) = ctx.run_section(node).unwrap();
        for chart in ["line", "rolling_mean", "acf", "stats"] {
            assert!(ims.get(chart).is_some(), "missing {chart}");
        }
        let Some(Inter::Line { xs, ys }) = ims.get("line") else { panic!() };
        assert_eq!(xs.len(), cfg.ts.points);
        assert_eq!(xs.len(), ys.len());
        assert!(xs.windows(2).all(|w| w[0] < w[1]), "time axis sorted");
    }

    #[test]
    fn detects_trend_and_autocorrelation() {
        let df = frame();
        let cfg = Config::default();
        let mut ctx = ComputeContext::new(&df, &cfg);
        let node = compute_timeseries(&mut ctx, "t", "price").unwrap();
        let (_, insights) = ctx.run_section(node).unwrap();
        assert!(insights
            .iter()
            .any(|i| i.kind == crate::insights::InsightKind::Trend));
    }

    #[test]
    fn rolling_mean_smooths_seasonality() {
        let df = frame();
        // Window spanning one season kills the oscillation.
        let cfg = Config::from_pairs(vec![("ts.points", "500"), ("ts.window", "11")]).unwrap();
        let mut ctx = ComputeContext::new(&df, &cfg);
        let node = compute_timeseries(&mut ctx, "t", "price").unwrap();
        let (ims, _) = ctx.run_section(node).unwrap();
        let Some(Inter::Line { ys: raw, .. }) = ims.get("line") else { panic!() };
        let Some(Inter::Line { ys: smooth, .. }) = ims.get("rolling_mean") else {
            panic!()
        };
        let wiggle = |ys: &[f64]| {
            ys.windows(2).map(|w| (w[1] - w[0]).abs()).sum::<f64>() / ys.len() as f64
        };
        assert!(wiggle(smooth) < wiggle(raw) * 0.5);
    }

    #[test]
    fn rejects_non_numeric_columns() {
        let df = frame();
        let cfg = Config::default();
        let mut ctx = ComputeContext::new(&df, &cfg);
        assert!(matches!(
            compute_timeseries(&mut ctx, "label", "price"),
            Err(EdaError::NotNumeric(_))
        ));
        let mut ctx = ComputeContext::new(&df, &cfg);
        assert!(matches!(
            compute_timeseries(&mut ctx, "t", "label"),
            Err(EdaError::NotNumeric(_))
        ));
    }

    #[test]
    fn too_few_points_errors() {
        let df = DataFrame::new(vec![
            ("t".into(), Column::from_f64(vec![1.0, 2.0])),
            ("v".into(), Column::from_f64(vec![1.0, 2.0])),
        ])
        .unwrap();
        let cfg = Config::default();
        let mut ctx = ComputeContext::new(&df, &cfg);
        assert!(matches!(
            compute_timeseries(&mut ctx, "t", "v"),
            Err(EdaError::EmptyInput(_))
        ));
        // Enough rows but two complete pairs: the section node refuses them.
        let df = DataFrame::new(vec![
            ("t".into(), Column::from_opt_f64(vec![Some(1.0), None, Some(3.0), Some(4.0)])),
            ("v".into(), Column::from_opt_f64(vec![Some(1.0), Some(2.0), None, Some(4.0)])),
        ])
        .unwrap();
        let mut ctx = ComputeContext::new(&df, &cfg);
        let node = compute_timeseries(&mut ctx, "t", "v").unwrap();
        match ctx.run_section(node) {
            Err(EdaError::Task(err)) => {
                assert_eq!(err.name, "section:timeseries:t:v");
                assert!(err.to_string().contains(TOO_FEW), "{err}");
            }
            other => panic!("expected a failed section, got {other:?}"),
        }
    }

    #[test]
    fn unsorted_time_is_handled() {
        // Same data, shuffled rows: the series must come out identical.
        let df = frame();
        let n = df.nrows();
        let perm: Vec<usize> = (0..n).map(|i| (i * 7) % n).collect();
        let t: Vec<f64> = perm.iter().map(|&i| i as f64).collect();
        let v: Vec<f64> = perm
            .iter()
            .map(|&i| {
                df.get(i, "price").unwrap().as_f64().unwrap()
            })
            .collect();
        let shuffled = DataFrame::new(vec![
            ("t".into(), Column::from_f64(t)),
            ("price".into(), Column::from_f64(v)),
        ])
        .unwrap();
        let cfg = Config::default();
        let mut ctx = ComputeContext::new(&df, &cfg);
        let node = compute_timeseries(&mut ctx, "t", "price").unwrap();
        let (a, _) = ctx.run_section(node).unwrap();
        let mut ctx2 = ComputeContext::new(&shuffled, &cfg);
        let node = compute_timeseries(&mut ctx2, "t", "price").unwrap();
        let (b, _) = ctx2.run_section(node).unwrap();
        assert_eq!(a.get("line"), b.get("line"));
    }
}
