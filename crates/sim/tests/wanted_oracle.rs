//! Every slot record's `wanted` is the tenant's SLO test at that slot's
//! load, recomputed here from the scenario's own trace — never read
//! back from an agent. Agents decide once per slot, when `Sense` feeds
//! them their load, and `CollectBids`, `CollectGains` and `Settle` all
//! read that one decision; a decision left over from an earlier load
//! (the slot-0 warm-up, a clone, a restored checkpoint) would show here
//! as a mismatch. Lost, late and noisy messages are armed throughout,
//! and one leg stops and resumes a durable run.

use spotdc_faults::FaultConfig;
use spotdc_sim::engine::{DurabilityConfig, EngineConfig, Simulation};
use spotdc_sim::metrics::SimReport;
use spotdc_sim::{Mode, Scenario};

const SLOTS: u64 = 120;

fn lossy(mode: Mode, per_pdu_pricing: bool) -> EngineConfig {
    EngineConfig {
        faults: FaultConfig {
            seed: 5,
            bid_loss: 0.15,
            bid_delay: 0.3,
            meter_dropout: 0.05,
            meter_freeze: 0.05,
            meter_noise: 0.05,
            noise_magnitude: 0.1,
            ..FaultConfig::disabled()
        },
        per_pdu_pricing,
        ..EngineConfig::new(mode)
    }
}

/// Holds every record of `report` to the model's answer at the trace's
/// load, and requires both answers to occur.
fn check(scenario: &Scenario, report: &SimReport, leg: &str) {
    let loads = &scenario.traces(SLOTS as usize).loads;
    assert_eq!(report.records.len(), SLOTS as usize, "{leg}");
    let mut wanted = 0;
    for (t, record) in report.records.iter().enumerate() {
        assert_eq!(record.tenants.len(), scenario.agents.len(), "{leg}");
        for (i, (metrics, agent)) in record.tenants.iter().zip(&scenario.agents).enumerate() {
            let load = loads[i][t].clamp(0.0, 1.0);
            let want = agent.model().wants_spot(agent.reserved(), load);
            assert_eq!(
                metrics.wanted, want,
                "{leg}: tenant {i}, slot {t}, load {load}"
            );
            wanted += usize::from(want);
        }
    }
    let all = report.records.len() * scenario.agents.len();
    assert!(
        wanted > 0 && wanted < all,
        "{leg}: {wanted} of {all} wanted spot"
    );
}

#[test]
fn wanted_is_the_slo_test_at_the_traced_load_in_every_mode() {
    let testbed = Scenario::testbed(42);
    for mode in [Mode::PowerCapped, Mode::SpotDc, Mode::MaxPerf] {
        let report = Simulation::new(testbed.clone(), lossy(mode, false)).run(SLOTS);
        check(&testbed, &report, &format!("testbed, {mode:?}"));
    }
    let wide = Scenario::hyperscale(42, 64);
    let report = Simulation::new(wide.clone(), lossy(Mode::SpotDc, true)).run(SLOTS);
    check(&wide, &report, "hyperscale, per-PDU");
}

#[test]
fn wanted_survives_a_durable_stop_and_resume() {
    let scenario = Scenario::testbed(42);
    let dir = std::env::temp_dir().join(format!("spotdc-wanted-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = EngineConfig {
        durability: DurabilityConfig {
            dir: Some(dir.clone()),
            checkpoint_every: 10,
            // Between checkpoints, so the resume restores one and
            // replays the logged slots after it.
            stop_after: Some(47),
            ..DurabilityConfig::default()
        },
        ..lossy(Mode::SpotDc, false)
    };
    let stopped = Simulation::new(scenario.clone(), config.clone())
        .run_durable(SLOTS)
        .expect("stopped run");
    assert_eq!(stopped.stopped_after, Some(47));

    config.durability.stop_after = None;
    config.durability.resume = true;
    let resumed = Simulation::new(scenario.clone(), config)
        .run_durable(SLOTS)
        .expect("resumed run");
    assert!(resumed.recovery.is_some(), "the run did not resume");
    check(&scenario, &resumed.report, "testbed, resumed");
    let _ = std::fs::remove_dir_all(&dir);
}
