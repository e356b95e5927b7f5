//! Fig. 17: impact of spot-capacity under-prediction.
//!
//! The operator can predict conservatively (scale the raw prediction by
//! 1 − x%). Because the profit-maximizing price rarely sells the last
//! available watt anyway, moderate under-prediction has nearly no
//! effect on profit or tenant performance — the safety margin is free.

use spotdc_core::{OperatorConfig, SpotPredictor};

use crate::accounting::Billing;
use crate::baselines::Mode;
use crate::engine::EngineConfig;
use crate::experiments::common::{run_engines, ExpConfig, ExpOutput};
use crate::report::TextTable;
use crate::scenario::Scenario;

/// One under-prediction level's outcome.
#[derive(Debug, Clone, Copy)]
pub struct Fig17Point {
    /// Under-prediction percentage applied.
    pub under_percent: f64,
    /// Operator extra profit, %.
    pub extra_percent: f64,
    /// Average tenant performance ratio vs PowerCapped.
    pub perf_ratio: f64,
    /// Average spot sold, W.
    pub avg_sold: f64,
}

/// Runs the under-prediction sweep.
#[must_use]
pub fn compute(cfg: &ExpConfig) -> Vec<Fig17Point> {
    let billing = Billing::paper_defaults();
    let levels: Vec<f64> = if cfg.quick {
        vec![0.0, 15.0]
    } else {
        vec![0.0, 5.0, 15.0, 30.0]
    };
    let scenario = Scenario::testbed(cfg.seed);
    // The capped reference and every under-prediction level run
    // concurrently over one shared scenario.
    let mut engines = vec![EngineConfig::new(Mode::PowerCapped)];
    engines.extend(levels.iter().map(|&pct| EngineConfig {
        operator: OperatorConfig {
            predictor: SpotPredictor::under_predicting(pct),
            ..OperatorConfig::default()
        },
        ..EngineConfig::new(Mode::SpotDc)
    }));
    let mut reports = run_engines(cfg, &scenario, &engines).into_iter();
    let capped = reports.next().expect("capped reference run");
    levels
        .into_iter()
        .zip(reports)
        .map(|(pct, report)| {
            let perf_ratio = report.avg_perf_ratio_vs(&capped);
            Fig17Point {
                under_percent: pct,
                extra_percent: report.profit(&billing).extra_percent(),
                perf_ratio,
                avg_sold: report.avg_spot_sold(),
            }
        })
        .collect()
}

/// Renders Fig. 17.
#[must_use]
pub fn run(cfg: &ExpConfig) -> ExpOutput {
    let points = compute(cfg);
    let mut table = TextTable::new(vec![
        "under-prediction",
        "extra profit",
        "tenant perf (vs PC)",
        "avg sold (W)",
    ]);
    for p in &points {
        table.row(vec![
            format!("{:.0}%", p.under_percent),
            format!("{:+.2}%", p.extra_percent),
            format!("{:.2}x", p.perf_ratio),
            format!("{:.1}", p.avg_sold),
        ]);
    }
    ExpOutput {
        id: "fig17".into(),
        title: "Impact of spot capacity under-prediction".into(),
        body: table.render(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn under_prediction_has_marginal_impact() {
        let points = compute(&ExpConfig {
            days: 3.0,
            ..ExpConfig::quick()
        });
        let exact = &points[0];
        for p in &points[1..] {
            assert!(
                (p.extra_percent - exact.extra_percent).abs() < 0.2 * exact.extra_percent.max(1.0),
                "profit moved from {:+.2}% to {:+.2}% at {}%",
                exact.extra_percent,
                p.extra_percent,
                p.under_percent
            );
            assert!(
                (p.perf_ratio - exact.perf_ratio).abs() < 0.05,
                "performance moved at {}% under-prediction",
                p.under_percent
            );
        }
    }

    #[test]
    fn sold_volume_never_increases_with_under_prediction() {
        let points = compute(&ExpConfig {
            days: 3.0,
            ..ExpConfig::quick()
        });
        for pair in points.windows(2) {
            assert!(pair[1].avg_sold <= pair[0].avg_sold + 2.0);
        }
    }
}
