//! Ablations of SpotDC's design choices (beyond the paper's figures).
//!
//! * **Clearing search**: the paper's grid scan at its finest and
//!   coarsest step (0.1 ¢ vs 1 ¢) — what resolution buys;
//! * **Message loss**: 5 % of bids, then 5 % of price broadcasts, lost
//!   (the two message channels of the fault plan) — the no-spot
//!   fallback's cost;
//! * **Allocation granularity**: the paper argues allocation must be
//!   rack-granular because a tenant-level grant lets tenants
//!   concentrate power on one PDU — quantified here by adversarially
//!   redistributing cleared multi-rack grants.

use spotdc_core::{ClearingConfig, ConstraintSet, MarketClearing, OperatorConfig, SpotPredictor};
use spotdc_faults::FaultConfig;
use spotdc_power::topology::TopologyBuilder;
use spotdc_tenants::bundle_bid;
use spotdc_units::{Price, RackId, Slot, TenantId, Watts};
use spotdc_workloads::GainCurve;

use crate::accounting::Billing;
use crate::baselines::Mode;
use crate::engine::EngineConfig;
use crate::experiments::common::{run_engines, ExpConfig, ExpOutput};
use crate::report::TextTable;
use crate::scenario::Scenario;

/// One ablation row.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Variant label.
    pub label: String,
    /// Operator extra profit, %.
    pub extra_percent: f64,
    /// Average spot sold, W.
    pub avg_sold: f64,
}

/// Runs the ablation battery.
#[must_use]
pub fn compute(cfg: &ExpConfig) -> Vec<AblationRow> {
    let billing = Billing::paper_defaults();
    let scenario = Scenario::testbed(cfg.seed);
    let variants: Vec<(&str, EngineConfig)> = vec![
        ("grid scan 0.1¢ (paper)", EngineConfig::new(Mode::SpotDc)),
        (
            "grid scan 1¢ (coarse)",
            EngineConfig {
                operator: OperatorConfig {
                    clearing: ClearingConfig::grid(Price::cents_per_kw_hour(1.0)),
                    ..OperatorConfig::default()
                },
                ..EngineConfig::new(Mode::SpotDc)
            },
        ),
        (
            "per-PDU localized pricing",
            EngineConfig {
                per_pdu_pricing: true,
                ..EngineConfig::new(Mode::SpotDc)
            },
        ),
        (
            "adaptive predictor (worst ramp)",
            EngineConfig {
                operator: OperatorConfig {
                    predictor: SpotPredictor::adaptive(1.0),
                    ..OperatorConfig::default()
                },
                ..EngineConfig::new(Mode::SpotDc)
            },
        ),
        (
            "5% bid loss",
            EngineConfig {
                faults: FaultConfig {
                    seed: cfg.seed,
                    bid_loss: 0.05,
                    ..FaultConfig::disabled()
                },
                ..EngineConfig::new(Mode::SpotDc)
            },
        ),
        (
            "5% broadcast loss",
            EngineConfig {
                faults: FaultConfig {
                    seed: cfg.seed,
                    broadcast_loss: 0.05,
                    ..FaultConfig::disabled()
                },
                ..EngineConfig::new(Mode::SpotDc)
            },
        ),
    ];
    let engines: Vec<EngineConfig> = variants.iter().map(|(_, engine)| engine.clone()).collect();
    let reports = run_engines(cfg, &scenario, &engines);
    variants
        .iter()
        .zip(reports)
        .map(|(&(label, _), report)| AblationRow {
            label: label.into(),
            extra_percent: report.profit(&billing).extra_percent(),
            avg_sold: report.avg_spot_sold(),
        })
        .collect()
}

/// The rack-vs-tenant allocation-granularity study (Section III-A's
/// argument): clear a market of multi-rack tenants at rack granularity,
/// then ask what happens if the operator had instead handed each tenant
/// its *total* as one lump and the tenant concentrated it on one rack.
#[derive(Debug, Clone, Copy)]
pub struct GranularityStudy {
    /// Slots sampled.
    pub samples: usize,
    /// Fraction of samples where concentration overloads a rack limit.
    pub rack_overload_fraction: f64,
    /// Fraction of samples where concentration overloads a PDU.
    pub pdu_overload_fraction: f64,
}

/// Runs the granularity study: two 3-rack tenants on one PDU, random
/// gain curves per sample.
#[must_use]
pub fn granularity_study(cfg: &ExpConfig) -> GranularityStudy {
    use spotdc_traces::Sampler;
    let mut rng = Sampler::seeded(cfg.seed ^ 0x97a1);
    let samples = if cfg.quick { 50 } else { 400 };
    // Two tenants, three racks each, one shared PDU.
    let mut builder = TopologyBuilder::new(Watts::new(2000.0)).pdu(Watts::new(900.0));
    for tenant in 0..2 {
        for _ in 0..3 {
            builder = builder.rack(TenantId::new(tenant), Watts::new(120.0), Watts::new(60.0));
        }
    }
    let topology = builder.build().expect("valid granularity topology");
    let mut rack_overloads = 0usize;
    let mut pdu_overloads = 0usize;
    for _ in 0..samples {
        let spot = Watts::new(rng.uniform_in(60.0, 240.0));
        let constraints = ConstraintSet::new(&topology, vec![spot], spot);
        let mut bids = Vec::new();
        for tenant in 0..2usize {
            let racks: Vec<(RackId, GainCurve, Watts)> = (0..3)
                .map(|r| {
                    let rack = RackId::new(tenant * 3 + r);
                    let width = rng.uniform_in(20.0, 60.0);
                    let slope = rng.uniform_in(0.000_1, 0.000_6);
                    (
                        rack,
                        GainCurve::from_samples([(width, slope * width)]),
                        Watts::new(60.0),
                    )
                })
                .collect();
            if let Ok(bid) = bundle_bid(
                TenantId::new(tenant),
                &racks,
                Price::per_kw_hour(0.02),
                Price::per_kw_hour(0.3),
            ) {
                bids.extend(bid.rack_bids().iter().cloned());
            }
        }
        let outcome = MarketClearing::default().clear(Slot::ZERO, &bids, &constraints);
        // Tenant-level grant: the per-tenant sum, concentrated on the
        // tenant's first rack (the adversarial redistribution).
        let mut concentrated: std::collections::BTreeMap<RackId, Watts> =
            std::collections::BTreeMap::new();
        for tenant in 0..2usize {
            let total: Watts = (0..3)
                .map(|r| outcome.allocation().grant(RackId::new(tenant * 3 + r)))
                .sum();
            concentrated.insert(RackId::new(tenant * 3), total);
        }
        let rack_violated = concentrated.values().any(|&g| g > Watts::new(60.0 + 1e-9));
        if rack_violated {
            rack_overloads += 1;
        }
        // Rack-level physical limits would clip, but if they did not,
        // a PDU whose breaker sized only for the cleared total is safe;
        // the danger the paper names is local (rack strip / hot spot).
        if !constraints.is_feasible(&concentrated) {
            pdu_overloads += 1;
        }
    }
    GranularityStudy {
        samples,
        rack_overload_fraction: rack_overloads as f64 / samples as f64,
        pdu_overload_fraction: pdu_overloads as f64 / samples as f64,
    }
}

/// Renders the ablation table.
#[must_use]
pub fn run(cfg: &ExpConfig) -> ExpOutput {
    let rows = compute(cfg);
    let mut table = TextTable::new(vec!["variant", "extra profit", "avg sold (W)"]);
    for r in &rows {
        table.row(vec![
            r.label.clone(),
            format!("{:+.2}%", r.extra_percent),
            format!("{:.1}", r.avg_sold),
        ]);
    }
    let mut body = table.render();
    let g = granularity_study(cfg);
    body.push_str(&format!(
        "\nallocation granularity (rack vs tenant level, {} sampled markets):\n\
         tenant-level grants concentrated on one rack overload a rack limit\n\
         in {:.0}% of markets (constraint violations incl. headroom: {:.0}%) --\n\
         rack-granular allocation eliminates both by construction.\n",
        g.samples,
        100.0 * g.rack_overload_fraction,
        100.0 * g.pdu_overload_fraction,
    ));
    ExpOutput {
        id: "ablations".into(),
        title: "Design-choice ablations".into(),
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<AblationRow> {
        compute(&ExpConfig {
            days: 2.0,
            ..ExpConfig::quick()
        })
    }

    #[test]
    fn losses_reduce_but_do_not_break_the_market() {
        let r = rows();
        let clean = r[0].avg_sold;
        for lossy in &r[4..] {
            assert!(lossy.avg_sold <= clean + 1.0);
            assert!(lossy.avg_sold > 0.2 * clean, "{} collapsed", lossy.label);
        }
    }

    #[test]
    fn per_pdu_pricing_is_at_least_competitive() {
        let r = rows();
        let uniform = r[0].extra_percent;
        let local = r[2].extra_percent;
        assert!(
            local > 0.5 * uniform,
            "localized pricing collapsed: {local} vs uniform {uniform}"
        );
    }

    #[test]
    fn adaptive_predictor_stays_close_to_exact() {
        let r = rows();
        let exact = r[0].extra_percent;
        let adaptive = r[3].extra_percent;
        assert!(
            (adaptive - exact).abs() < 0.25 * exact.max(1.0),
            "adaptive {adaptive} vs exact {exact}"
        );
    }

    #[test]
    fn granularity_concentration_is_dangerous() {
        let g = granularity_study(&ExpConfig::quick());
        assert!(
            g.rack_overload_fraction > 0.2,
            "concentration should overload racks often: {}",
            g.rack_overload_fraction
        );
    }

    #[test]
    fn coarse_grid_close_to_fine_grid() {
        let r = rows();
        assert!((r[0].extra_percent - r[1].extra_percent).abs() < 1.0);
    }
}
