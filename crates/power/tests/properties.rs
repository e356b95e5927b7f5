//! Property-based tests for the power infrastructure simulator.

use proptest::prelude::*;
use spotdc_power::topology::TopologyBuilder;
use spotdc_power::{EmergencyLog, PowerMeter, RackPduBank};
use spotdc_units::{RackId, Slot, TenantId, Watts};

fn rack_specs() -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((1.0..500.0f64, 0.0..200.0f64), 1..30)
}

fn build_topology(specs: &[(f64, f64)]) -> spotdc_power::PowerTopology {
    let mut b = TopologyBuilder::new(Watts::new(1e6)).pdu(Watts::new(1e6));
    for (i, &(g, h)) in specs.iter().enumerate() {
        b = b.rack(TenantId::new(i), Watts::new(g), Watts::new(h));
    }
    b.build().expect("valid topology")
}

proptest! {
    #[test]
    fn leased_total_is_sum_of_racks(specs in rack_specs()) {
        let topo = build_topology(&specs);
        let expect: f64 = specs.iter().map(|s| s.0).sum();
        prop_assert!((topo.total_leased().value() - expect).abs() < 1e-6);
    }

    #[test]
    fn meter_pdu_powers_are_sums_of_rack_power(specs in rack_specs(), loads in prop::collection::vec(0.0..400.0f64, 30)) {
        let topo = build_topology(&specs);
        let mut meter = PowerMeter::new(&topo, 4).expect("positive history length");
        for (i, _) in specs.iter().enumerate() {
            meter.record(Slot::ZERO, RackId::new(i), Watts::new(loads[i % loads.len()]));
        }
        let mut rack_sums = vec![Watts::ZERO; topo.pdu_count()];
        for rack in topo.racks() {
            rack_sums[rack.pdu().index()] += meter.rack_power(rack.id());
        }
        let mut per_pdu = Vec::new();
        meter.pdu_powers_into(&mut per_pdu);
        prop_assert_eq!(per_pdu, rack_sums);
    }

    #[test]
    fn budgets_never_exceed_physical_limits(specs in rack_specs(), grants in prop::collection::vec(0.0..500.0f64, 30)) {
        let topo = build_topology(&specs);
        let mut bank = RackPduBank::new(&topo);
        for (i, spec) in specs.iter().enumerate() {
            let rack = RackId::new(i);
            let grant = Watts::new(grants[i % grants.len()]);
            let _ = bank.grant_spot(rack, grant); // may legitimately fail
            let limit = Watts::new(spec.0 + spec.1);
            prop_assert!(bank.budget(rack) <= limit + Watts::new(1e-6));
            prop_assert!(bank.budget(rack) >= Watts::new(spec.0) - Watts::new(1e-6));
        }
    }

    #[test]
    fn grant_within_headroom_always_succeeds(specs in rack_specs()) {
        let topo = build_topology(&specs);
        let mut bank = RackPduBank::new(&topo);
        for (i, spec) in specs.iter().enumerate() {
            let rack = RackId::new(i);
            let grant = Watts::new(spec.1 * 0.999);
            prop_assert!(bank.grant_spot(rack, grant).is_ok());
            prop_assert!(bank.spot_grant(rack).approx_eq(grant, 1e-9));
        }
    }

    #[test]
    fn emergencies_iff_capacity_exceeded(load0 in 0.0..200.0f64, load1 in 0.0..200.0f64) {
        let topo = TopologyBuilder::new(Watts::new(180.0))
            .pdu(Watts::new(100.0))
            .rack(TenantId::new(0), Watts::new(100.0), Watts::ZERO)
            .pdu(Watts::new(100.0))
            .rack(TenantId::new(1), Watts::new(100.0), Watts::ZERO)
            .build()
            .unwrap();
        let log = EmergencyLog::new(&topo);
        let events = log.observe(Slot::ZERO, &[Watts::new(load0), Watts::new(load1)]);
        let expect = usize::from(load0 > 100.0)
            + usize::from(load1 > 100.0)
            + usize::from(load0 + load1 > 180.0);
        prop_assert_eq!(events.len(), expect);
    }
}
