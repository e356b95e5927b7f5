//! Admission holds under every pricing and every clearing backend: a
//! tenant whose bids name a rack it does not own is granted nothing,
//! whichever `Clear` stage the slot runs and wherever its tasks clear.
//! One `#[test]`: the legs read the process-global telemetry registry.

use spotdc_sim::{
    baselines::Mode,
    engine::{EngineConfig, Simulation},
    scenario::Scenario,
};
use spotdc_telemetry::TelemetryConfig;
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

    let rejected = || spotdc_telemetry::registry().counter("spotdc_bids_rejected_total");
    for (leg, per_pdu_pricing, shards) in [
        ("uniform", false, 1),
        ("per-PDU", true, 1),
        ("per-PDU, two shards", true, 2),
    ] {
        let rejected_before = rejected();
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
        assert!(rejected() > rejected_before, "{leg}: no rejection counted");
    }
}
