//! Market power (Section III-C): can a dominant tenant move the price?
//!
//! The paper argues strategic price manipulation is unlikely in
//! practice because tenants cannot see each other. This experiment
//! quantifies the *upper bound* of what shading could achieve: the
//! largest opportunistic tenants understate their willingness to pay
//! (lower `q_max`), and we measure what happens to the clearing price,
//! their own bills and performance, and the operator's profit.

use spotdc_tenants::Strategy;

use crate::accounting::Billing;
use crate::baselines::Mode;
use crate::experiments::common::{fan_out, run_mode, ExpConfig, ExpOutput};
use crate::report::TextTable;
use crate::scenario::Scenario;

/// One shading level's outcome.
#[derive(Debug, Clone, Copy)]
pub struct ShadingPoint {
    /// Multiplier applied to the shading tenants' `q_max`.
    pub shading: f64,
    /// Mean market price, $/kW/h.
    pub mean_price: f64,
    /// Operator extra profit, %.
    pub operator_extra_percent: f64,
    /// The shading tenants' combined spot payments, $.
    pub shader_payments: f64,
    /// The shading tenants' average performance index (wanting slots).
    pub shader_perf: f64,
}

/// Runs the shading sweep: all opportunistic tenants shade together
/// (the strongest collusion the paper contemplates).
#[must_use]
pub fn compute(cfg: &ExpConfig) -> Vec<ShadingPoint> {
    let billing = Billing::paper_defaults();
    let levels: &[f64] = if cfg.quick {
        &[1.0, 0.6]
    } else {
        &[1.0, 0.8, 0.6, 0.4]
    };
    let base = Scenario::testbed(cfg.seed);
    let shader_idx: Vec<usize> = base
        .specs
        .iter()
        .enumerate()
        .filter(|(_, s)| !s.kind.is_sprinting())
        .map(|(i, _)| i)
        .collect();
    // Shading only rewrites bid strategies: every level's clone runs
    // the base scenario's load traces.
    fan_out(levels, |&shading| {
        let mut scenario = base.clone();
        for &i in &shader_idx {
            if let Strategy::Elastic { q_min, q_max } = scenario.agents[i].strategy().clone() {
                scenario.agents[i]
                    .set_strategy(Strategy::elastic(q_min * shading, q_max * shading));
            }
        }
        let report = run_mode(cfg, scenario, Mode::SpotDc);
        let mut payments = 0.0;
        for rec in &report.records {
            for &i in &shader_idx {
                payments += rec.tenants[i].payment;
            }
        }
        let perf = shader_idx
            .iter()
            .map(|&i| report.tenant_avg_perf(i, true))
            .sum::<f64>()
            / shader_idx.len() as f64;
        ShadingPoint {
            shading,
            mean_price: report.price_cdf().mean(),
            operator_extra_percent: report.profit(&billing).extra_percent(),
            shader_payments: payments,
            shader_perf: perf,
        }
    })
}

/// Renders the market-power study.
#[must_use]
pub fn run(cfg: &ExpConfig) -> ExpOutput {
    let points = compute(cfg);
    let mut table = TextTable::new(vec![
        "q_max shading",
        "mean price",
        "operator extra",
        "shaders' payments ($)",
        "shaders' perf",
    ]);
    for p in &points {
        table.row(vec![
            format!("×{:.1}", p.shading),
            format!("{:.3}", p.mean_price),
            format!("{:+.2}%", p.operator_extra_percent),
            format!("{:.2}", p.shader_payments),
            format!("{:.2}", p.shader_perf),
        ]);
    }
    let mut body = table.render();
    body.push_str(
        "\ncoordinated shading cuts the shaders' bills at essentially no\n\
         performance cost — buyer-side collusion WOULD pay. This is exactly\n\
         why the paper leans on tenants' mutual invisibility (no tenant\n\
         knows who shares its PDU, let alone when they bid) rather than\n\
         incentives to rule it out; the operator's residual profit comes\n\
         from the sprinting demand the shaders cannot influence.\n",
    );
    ExpOutput {
        id: "market_power".into(),
        title: "Market power: collusive bid shading (Section III-C)".into(),
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn points() -> Vec<ShadingPoint> {
        // Six days, not fewer: payment totals at shorter horizons swing a
        // few percent either way on the seeded arrival noise, which is
        // larger than the shading effect being asserted below.
        compute(&ExpConfig {
            days: 6.0,
            ..ExpConfig::quick()
        })
    }

    #[test]
    fn shading_lowers_prices_and_payments() {
        let p = points();
        let honest = &p[0];
        let shaded = p.last().unwrap();
        assert!(shaded.mean_price <= honest.mean_price + 1e-9);
        assert!(shaded.shader_payments <= honest.shader_payments + 1e-9);
    }

    #[test]
    fn shading_barely_moves_the_shaders_performance() {
        // The striking (and honest) result: coordinated shading keeps
        // performance within a few percent while cutting payments —
        // collusion would pay, which is why the paper's defence is
        // tenants' mutual invisibility rather than incentives.
        let p = points();
        let honest = &p[0];
        let shaded = p.last().unwrap();
        let ratio = shaded.shader_perf / honest.shader_perf.max(1e-12);
        assert!(
            (0.9..=1.1).contains(&ratio),
            "performance moved too much: {ratio}"
        );
    }

    #[test]
    fn operator_profit_degrades_gracefully() {
        let p = points();
        let honest = p[0].operator_extra_percent;
        for point in &p {
            assert!(
                point.operator_extra_percent > 0.2 * honest,
                "profit collapsed at shading {}: {}",
                point.shading,
                point.operator_extra_percent
            );
        }
    }
}
