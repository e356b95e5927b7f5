//! End-to-end integration: the full pipeline assembled by hand from the
//! public API, spanning every crate.

use spotdc::prelude::*;

/// Builds the pipeline the README sketches: agents bid, the operator
/// clears, grants actuate through the rack PDUs, tenants run and
/// everything reconciles.
#[test]
fn manual_market_round_improves_the_needy_tenant() {
    let topology = TopologyBuilder::new(Watts::new(800.0))
        .pdu(Watts::new(800.0))
        .rack(TenantId::new(0), Watts::new(145.0), Watts::new(72.5))
        .rack(TenantId::new(1), Watts::new(125.0), Watts::new(62.5))
        .rack(TenantId::new(2), Watts::new(250.0), Watts::ZERO) // others
        .build()
        .expect("valid topology");

    let mut search = TenantAgent::new(
        TenantId::new(0),
        RackId::new(0),
        Watts::new(145.0),
        Watts::new(72.5),
        WorkloadModel::search(),
        Strategy::elastic(Price::per_kw_hour(0.25), Price::per_kw_hour(0.60)),
    );
    let mut batch = TenantAgent::new(
        TenantId::new(1),
        RackId::new(1),
        Watts::new(125.0),
        Watts::new(62.5),
        WorkloadModel::word_count(),
        Strategy::elastic(Price::per_kw_hour(0.02), Price::per_kw_hour(0.24)),
    );
    search.observe(1.0); // peak traffic: SLO at stake
    batch.observe(0.8); // backlog to chew through

    let mut meter = PowerMeter::new(&topology, 4).expect("positive history length");
    meter.record(Slot::ZERO, RackId::new(0), Watts::new(140.0));
    meter.record(Slot::ZERO, RackId::new(1), Watts::new(118.0));
    meter.record(Slot::ZERO, RackId::new(2), Watts::new(130.0));

    let bids: Vec<TenantBid> = [search.make_bid(), batch.make_bid()]
        .into_iter()
        .flatten()
        .collect();
    assert_eq!(bids.len(), 2, "both tenants should bid");

    let operator = Operator::new(topology.clone(), OperatorConfig::default());
    let round = operator.run_slot(Slot::new(1), &bids, &meter);
    let allocation = round.outcome.allocation();
    assert!(round.rejected.is_empty());
    assert!(
        round.constraints.is_feasible(allocation.grants()),
        "allocation must satisfy rack/PDU/UPS constraints"
    );
    let search_grant = allocation.grant(RackId::new(0));
    assert!(search_grant > Watts::ZERO, "the urgent tenant is served");

    // Actuate and run the slot.
    let mut bank = RackPduBank::new(&topology);
    for (rack, grant) in allocation.iter() {
        bank.grant_spot(rack, grant).expect("feasible grant");
    }
    let before = search.run_slot(search.reserved());
    let after = search.run_slot(bank.budget(search.rack()));
    assert!(
        after.performance.index() > before.performance.index(),
        "spot capacity must improve the search tenant's latency"
    );
    // The budget was enough to restore the SLO.
    match after.performance {
        spotdc::tenants::Performance::Latency { slo_met, .. } => {
            assert!(slo_met, "grant should restore the 100 ms SLO")
        }
        spotdc::tenants::Performance::Throughput { .. } => panic!("search reports latency"),
    }

    // Billing reconciles: payment = price × grant × slot duration.
    let slot = SlotDuration::from_secs(120);
    let payment = allocation.payment_for(RackId::new(0), slot);
    let expect = allocation.price().cost_of(search_grant, slot);
    assert!((payment.usd() - expect.usd()).abs() < 1e-12);
}

/// Lost price broadcasts fall back to "no spot capacity" without
/// breaking anything downstream: a run in which no tenant ever hears
/// the price is, for the tenants, the PowerCapped run.
#[test]
fn comms_loss_degrades_to_no_spot() {
    const SLOTS: u64 = 150;
    let scenario = Scenario::testbed(9);
    let clean = Simulation::new(scenario.clone(), EngineConfig::new(Mode::SpotDc)).run(SLOTS);
    assert!(
        clean.avg_spot_sold() > 0.0,
        "the market must have something to lose"
    );

    let mut config = EngineConfig::new(Mode::SpotDc);
    config.validate = true;
    config.faults.broadcast_loss = 1.0;
    // The plan the engine consults for this configuration loses every
    // broadcast, to whichever tenant in whichever slot.
    let plan = spotdc::sim::pipeline::SimState::new(&scenario, &config, 1).plan;
    assert!((0..SLOTS).all(|t| plan.broadcast_lost(Slot::new(t), TenantId::new(t as usize % 8))));

    // Every grant is revoked before it is programmed or billed, and
    // every lost broadcast is accounted for.
    let lossy = Simulation::new(scenario.clone(), config).run(SLOTS);
    for record in &lossy.records {
        assert_eq!((record.spot_sold, record.price), (0.0, None));
        assert!(record
            .tenants
            .iter()
            .all(|t| t.grant == 0.0 && t.payment == 0.0));
    }
    assert!(lossy.faults_injected > 0);
    assert_eq!(lossy.invariant_violations, 0);

    // The tenants simply run at their guaranteed capacity.
    let capped = Simulation::new(scenario, EngineConfig::new(Mode::PowerCapped)).run(SLOTS);
    for (lost, base) in lossy.records.iter().zip(&capped.records) {
        for (a, b) in lost.tenants.iter().zip(&base.tenants) {
            assert_eq!((a.draw, a.perf_index), (b.draw, b.perf_index));
        }
    }
    assert_eq!(lossy.emergencies, capped.emergencies);
}

/// The MaxPerf allocator and the market operate on the same constraint
/// set and neither violates it.
#[test]
fn maxperf_and_market_share_constraints() {
    use spotdc::market::{max_perf_allocate, ConcaveGain};
    use std::collections::BTreeMap;

    let topology = TopologyBuilder::new(Watts::new(400.0))
        .pdu(Watts::new(400.0))
        .rack(TenantId::new(0), Watts::new(100.0), Watts::new(50.0))
        .rack(TenantId::new(1), Watts::new(100.0), Watts::new(50.0))
        .build()
        .expect("valid topology");
    let constraints = ConstraintSet::new(&topology, vec![Watts::new(60.0)], Watts::new(60.0));

    let gains: BTreeMap<RackId, ConcaveGain> = [
        (
            RackId::new(0),
            ConcaveGain::new(vec![(50.0, 0.002)]).expect("valid"),
        ),
        (
            RackId::new(1),
            ConcaveGain::new(vec![(50.0, 0.001)]).expect("valid"),
        ),
    ]
    .into_iter()
    .collect();
    let grants = max_perf_allocate(&gains, &constraints);
    assert!(constraints.is_feasible(&grants));
    let total: Watts = grants.values().copied().sum();
    assert!(
        total.approx_eq(Watts::new(60.0), 1e-9),
        "greedy saturates supply"
    );

    let bids = vec![
        RackBid::new(
            RackId::new(0),
            StepBid::new(Watts::new(50.0), Price::per_kw_hour(0.3))
                .expect("valid")
                .into(),
        ),
        RackBid::new(
            RackId::new(1),
            StepBid::new(Watts::new(50.0), Price::per_kw_hour(0.1))
                .expect("valid")
                .into(),
        ),
    ];
    let outcome = MarketClearing::default().clear(Slot::ZERO, &bids, &constraints);
    assert!(constraints.is_feasible(outcome.allocation().grants()));
    // Serving both (100 W) is infeasible; the market prices out the
    // cheaper bid rather than violating the PDU limit.
    assert_eq!(outcome.allocation().grant(RackId::new(1)), Watts::ZERO);
    assert_eq!(outcome.allocation().grant(RackId::new(0)), Watts::new(50.0));
}
