//! Message loss is accounted the same wherever the slot clears: with
//! lost bids and lost price broadcasts armed, a run reports one
//! `faults_injected` under uniform pricing, per-PDU pricing and two
//! shard agents — the number of `bid-lost` / `broadcast-lost` events it
//! logged — and a tenant whose broadcast was lost holds no grant.
//! One `#[test]`: the legs read the process-global telemetry sink.

use spotdc_faults::{FaultConfig, FaultPlan};
use spotdc_sim::{
    baselines::Mode,
    engine::{EngineConfig, Simulation},
    metrics::SimReport,
    scenario::Scenario,
};
use spotdc_telemetry::{Event, TelemetryConfig};
use spotdc_units::Slot;

const SLOTS: u64 = 200;

/// Runs the testbed with `faults` armed and drains the in-memory sink,
/// so each leg sees its own events only.
fn traced_run(
    scenario: &Scenario,
    faults: FaultConfig,
    per_pdu_pricing: bool,
    shards: usize,
) -> (SimReport, Vec<Event>) {
    let config = EngineConfig {
        faults,
        per_pdu_pricing,
        shards,
        validate: true,
        telemetry: TelemetryConfig::in_memory(),
        ..EngineConfig::new(Mode::SpotDc)
    };
    spotdc_telemetry::set_enabled(spotdc_telemetry::is_installed());
    let report = Simulation::new(scenario.clone(), config).run(SLOTS);
    spotdc_telemetry::flush();
    let events = spotdc_telemetry::memory_sink().take();
    spotdc_telemetry::set_enabled(false);
    (report, events)
}

#[test]
fn lost_messages_are_counted_once_under_every_pricing_and_backend() {
    let scenario = Scenario::testbed(42);
    let faults = FaultConfig {
        seed: 7,
        bid_loss: 0.2,
        broadcast_loss: 0.3,
        ..FaultConfig::disabled()
    };
    let plan = FaultPlan::new(faults);

    let mut counts = Vec::new();
    for (leg, per_pdu_pricing, shards) in [
        ("uniform", false, 1),
        ("per-PDU", true, 1),
        ("per-PDU, two shards", true, 2),
    ] {
        let disabled = FaultConfig::disabled();
        let (clean, _) = traced_run(&scenario, disabled, per_pdu_pricing, shards);
        let (lossy, events) = traced_run(&scenario, faults, per_pdu_pricing, shards);
        assert!(lossy.avg_spot_sold() > 0.0, "{leg}: the market collapsed");
        assert!(lossy.avg_spot_sold() < clean.avg_spot_sold(), "{leg}");
        assert_eq!(lossy.invariant_violations, 0, "{leg}");

        // Every injected fault is a logged lost message, and both
        // directions fired.
        let logged = |wanted: &str| {
            let is_wanted =
                |e: &&Event| matches!(e, Event::FaultInjected { kind, .. } if kind == wanted);
            events.iter().filter(is_wanted).count()
        };
        let (bids, broadcasts) = (logged("bid-lost"), logged("broadcast-lost"));
        assert!(bids > 0 && broadcasts > 0, "{leg}: {bids} / {broadcasts}");
        assert_eq!(lossy.faults_injected, bids + broadcasts, "{leg}");
        counts.push(lossy.faults_injected);

        // A tenant that did not hear the price holds (and owes) nothing.
        for (t, record) in lossy.records.iter().enumerate() {
            for (agent, tenant) in scenario.agents.iter().zip(&record.tenants) {
                if plan.broadcast_lost(Slot::new(t as u64), agent.tenant()) {
                    let held = (tenant.grant, tenant.payment);
                    assert_eq!(held, (0.0, 0.0), "{leg}: slot {t}, {}", agent.tenant());
                }
            }
        }
    }
    assert!(
        counts.iter().all(|&n| n == counts[0]),
        "faults_injected differs across legs: {counts:?}"
    );
}
