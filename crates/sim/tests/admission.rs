//! Admission holds under every pricing and every clearing backend: a
//! tenant whose bids name a rack it does not own is granted nothing,
//! whichever `Clear` stage the slot runs and wherever its tasks clear.
//! One `#[test]`: the legs drain the process-global memory sink.

use spotdc_sim::{
    baselines::Mode,
    engine::{EngineConfig, Simulation},
    scenario::Scenario,
};
use spotdc_telemetry::{Event, TelemetryConfig};
use spotdc_tenants::TenantAgent;
use spotdc_units::TenantId;

#[test]
fn a_bid_for_a_rack_the_bidder_does_not_own_is_never_granted() {
    // Testbed agent 2 bids under a tenant id the topology never leased to.
    const IMPOSTOR: usize = 2;
    let mut scenario = Scenario::testbed(42);
    let owner = &scenario.agents[IMPOSTOR];
    scenario.agents[IMPOSTOR] = TenantAgent::new(
        TenantId::new(1_000),
        owner.rack(),
        owner.reserved(),
        owner.headroom(),
        owner.model().clone(),
        owner.strategy().clone(),
    );

    // Rejected racks this leg, summed over its `BidRejected` events.
    let rejected = || -> u64 {
        spotdc_telemetry::flush();
        let events = spotdc_telemetry::memory_sink().take();
        events
            .iter()
            .map(|e| match e {
                Event::BidRejected { racks, .. } => *racks,
                _ => 0,
            })
            .sum()
    };
    let mut per_pdu_rejections = Vec::new();
    for (leg, per_pdu_pricing, shards) in [
        ("uniform", false, 1),
        ("per-PDU", true, 1),
        ("per-PDU, two shards", true, 2),
    ] {
        let config = EngineConfig {
            per_pdu_pricing,
            shards,
            validate: true,
            telemetry: TelemetryConfig::in_memory(),
            ..EngineConfig::new(Mode::SpotDc)
        };
        let report = Simulation::new(scenario.clone(), config).run(200);
        let granted =
            |tenant: usize| -> f64 { report.records.iter().map(|r| r.tenants[tenant].grant).sum() };
        assert!(
            report.records.iter().any(|r| r.tenants[IMPOSTOR].wanted),
            "{leg}: the impostor never asked, so the leg checks nothing"
        );
        assert_eq!(granted(IMPOSTOR), 0.0, "{leg}: granted on a foreign bid");
        let others: f64 = (0..report.tenant_count())
            .filter(|&i| i != IMPOSTOR)
            .map(granted)
            .sum();
        assert!(others > 0.0, "{leg}: nobody else bought spot");
        assert_eq!(report.invariant_violations, 0, "{leg}");
        let racks = rejected();
        assert!(racks > 0, "{leg}: no rejection logged");
        if per_pdu_pricing {
            per_pdu_rejections.push(racks);
        }
    }
    // Admission runs once per slot on the controller, before any task
    // is built, so the shard count cannot change what it turns away.
    assert_eq!(per_pdu_rejections[0], per_pdu_rejections[1]);
}
