//! Robustness: profit and safety under injected telemetry faults.
//!
//! Sweeps a uniform fault rate (meter dropouts/freezes/noise, lost and
//! late bids, delayed prediction inputs — see `spotdc-faults`) and runs
//! each level twice over the identical fault plan: PowerCapped as the
//! physical baseline, and SpotDC with every degradation path armed —
//! staleness-aware prediction, the spot-first cap controller, and the
//! post-clearing invariant checker. The claim under test is the
//! paper's safety argument carried over to a faulty world: selling
//! spot capacity must add **no emergencies** beyond the baseline, and
//! the market must never emit an infeasible allocation, even when its
//! inputs are corrupted.

use spotdc_core::{OperatorConfig, StalenessPolicy};
use spotdc_faults::FaultConfig;
use spotdc_power::CapConfig;

use crate::accounting::Billing;
use crate::baselines::Mode;
use crate::engine::EngineConfig;
use crate::experiments::common::{run_engines, ExpConfig, ExpOutput};
use crate::report::TextTable;
use crate::scenario::Scenario;

/// Salt mixed into the experiment seed to derive the fault-plan seed,
/// so fault schedules decorrelate from the trace streams.
const FAULT_SEED_SALT: u64 = 0x00fa_0175;

/// One fault-rate level's outcome.
#[derive(Debug, Clone, Copy)]
pub struct RobustnessPoint {
    /// Per-channel fault rate applied.
    pub fault_rate: f64,
    /// SpotDC operator extra profit, %.
    pub extra_percent: f64,
    /// Emergencies in the PowerCapped baseline run.
    pub pc_emergencies: usize,
    /// Emergencies in the degradation-armed SpotDC run.
    pub dc_emergencies: usize,
    /// SpotDC slots in which a degradation path fired.
    pub degraded_slots: usize,
    /// Faults the plan actually injected into the SpotDC run.
    pub faults_injected: usize,
    /// Invariant violations found by the per-slot validator.
    pub invariant_violations: usize,
    /// Average spot sold, W.
    pub avg_sold: f64,
}

/// The engine configuration pair (PowerCapped baseline, armed SpotDC)
/// for one fault rate.
fn engines_for(rate: f64, seed: u64) -> [EngineConfig; 2] {
    let faults = FaultConfig::uniform(rate, seed ^ FAULT_SEED_SALT);
    [
        EngineConfig {
            faults,
            ..EngineConfig::new(Mode::PowerCapped)
        },
        EngineConfig {
            faults,
            cap: CapConfig::paper_default(),
            operator: OperatorConfig {
                staleness: Some(StalenessPolicy::paper_default()),
                ..OperatorConfig::default()
            },
            validate: true,
            ..EngineConfig::new(Mode::SpotDc)
        },
    ]
}

/// Runs the fault-rate sweep.
#[must_use]
pub fn compute(cfg: &ExpConfig) -> Vec<RobustnessPoint> {
    let billing = Billing::paper_defaults();
    let rates: Vec<f64> = if cfg.quick {
        vec![0.0, 0.05]
    } else {
        vec![0.0, 0.01, 0.05, 0.10]
    };
    let scenario = Scenario::testbed(cfg.seed);
    let engines: Vec<EngineConfig> = rates
        .iter()
        .flat_map(|&rate| engines_for(rate, cfg.seed))
        .collect();
    let reports = run_engines(cfg, &scenario, &engines);
    rates
        .iter()
        .zip(reports.chunks_exact(2))
        .map(|(&rate, pair)| {
            let (pc, dc) = (&pair[0], &pair[1]);
            RobustnessPoint {
                fault_rate: rate,
                extra_percent: dc.profit(&billing).extra_percent(),
                pc_emergencies: pc.emergencies,
                dc_emergencies: dc.emergencies,
                degraded_slots: dc.degraded_slots,
                faults_injected: dc.faults_injected,
                invariant_violations: dc.invariant_violations + pc.invariant_violations,
                avg_sold: dc.avg_spot_sold(),
            }
        })
        .collect()
}

/// Renders the robustness sweep.
#[must_use]
pub fn run(cfg: &ExpConfig) -> ExpOutput {
    let points = compute(cfg);
    let mut table = TextTable::new(vec![
        "fault rate",
        "extra profit",
        "emergencies (PC→DC)",
        "degraded slots",
        "faults injected",
        "invariant violations",
        "avg sold (W)",
    ]);
    for p in &points {
        table.row(vec![
            format!("{:.0}%", p.fault_rate * 100.0),
            format!("{:+.2}%", p.extra_percent),
            format!("{}→{}", p.pc_emergencies, p.dc_emergencies),
            format!("{}", p.degraded_slots),
            format!("{}", p.faults_injected),
            format!("{}", p.invariant_violations),
            format!("{:.1}", p.avg_sold),
        ]);
    }
    ExpOutput {
        id: "robustness".into(),
        title: "Fault injection: emergencies, degradation and invariants".into(),
        body: table.render(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn points() -> Vec<RobustnessPoint> {
        compute(&ExpConfig {
            days: 2.0,
            ..ExpConfig::quick()
        })
    }

    #[test]
    fn faults_never_add_emergencies_or_break_invariants() {
        for p in points() {
            assert!(
                p.dc_emergencies <= p.pc_emergencies,
                "SpotDC added emergencies at rate {}: {} vs {}",
                p.fault_rate,
                p.dc_emergencies,
                p.pc_emergencies
            );
            assert_eq!(
                p.invariant_violations, 0,
                "invariant violations at rate {}",
                p.fault_rate
            );
        }
    }

    #[test]
    fn clean_level_is_clean_and_faulty_levels_degrade() {
        let pts = points();
        let clean = &pts[0];
        assert_eq!(clean.fault_rate, 0.0);
        assert_eq!(clean.faults_injected, 0);
        assert_eq!(clean.degraded_slots, 0);
        let faulty = &pts[pts.len() - 1];
        assert!(faulty.faults_injected > 0, "no faults fired");
        assert!(faulty.degraded_slots > 0, "degradation paths never fired");
        // Degradation costs sales, never gains them.
        assert!(faulty.avg_sold <= clean.avg_sold + 1e-9);
    }
}
