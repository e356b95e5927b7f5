//! Quickstart: one market round, end to end, by hand.
//!
//! Builds a two-PDU power topology, meters some load, predicts spot
//! capacity, collects demand-function bids, clears the market and
//! programs the resulting grants into the rack PDUs.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use spotdc::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small colo: one UPS, two PDUs, four tenant racks.
    let topology = TopologyBuilder::new(Watts::new(900.0))
        .pdu(Watts::new(480.0))
        .rack(TenantId::new(0), Watts::new(150.0), Watts::new(75.0))
        .rack(TenantId::new(1), Watts::new(150.0), Watts::new(75.0))
        .pdu(Watts::new(480.0))
        .rack(TenantId::new(2), Watts::new(150.0), Watts::new(75.0))
        .rack(TenantId::new(3), Watts::new(150.0), Watts::new(75.0))
        .build()?;
    println!(
        "topology: {} PDUs, {} racks, UPS {}",
        topology.pdu_count(),
        topology.rack_count(),
        topology.ups_capacity()
    );

    // The operator's routine power monitoring has last slot's readings.
    let mut meter = PowerMeter::new(&topology, 8)?;
    for (rack, draw) in [(0, 120.0), (1, 90.0), (2, 140.0), (3, 60.0)] {
        meter.record(Slot::ZERO, RackId::new(rack), Watts::new(draw));
    }

    // Tenants 0 and 2 need extra power next slot and bid for it:
    // tenant 0 urgently (an SLO at stake), tenant 2 opportunistically.
    let bids = vec![
        TenantBid::new(
            TenantId::new(0),
            vec![RackBid::new(
                RackId::new(0),
                LinearBid::new(
                    Watts::new(60.0),
                    Price::per_kw_hour(0.20),
                    Watts::new(40.0),
                    Price::per_kw_hour(0.60),
                )?
                .into(),
            )],
        )?,
        TenantBid::new(
            TenantId::new(2),
            vec![RackBid::new(
                RackId::new(2),
                LinearBid::new(
                    Watts::new(70.0),
                    Price::per_kw_hour(0.02),
                    Watts::new(10.0),
                    Price::per_kw_hour(0.24),
                )?
                .into(),
            )],
        )?,
    ];

    // One operator round: predict → clear → allocate.
    let operator = Operator::new(topology.clone(), OperatorConfig::default());
    let round = operator.run_slot(Slot::new(1), &bids, &meter);
    println!(
        "predicted spot: pdu-0 {}, pdu-1 {}, ups {}",
        round.predicted.pdu[0], round.predicted.pdu[1], round.predicted.ups
    );
    let allocation = round.outcome.allocation();
    println!(
        "clearing price {} — {} sold ({} candidate prices searched)",
        allocation.price(),
        allocation.total(),
        round.outcome.candidates_evaluated()
    );

    // Program the grants into the intelligent rack PDUs.
    let mut bank = RackPduBank::new(&topology);
    for (rack, grant) in allocation.iter() {
        if grant > Watts::ZERO {
            bank.grant_spot(rack, grant)?;
            println!(
                "  {rack}: +{grant} spot -> budget {} for one slot",
                bank.budget(rack)
            );
        }
    }

    // The slot's revenue for the operator (2-minute slots).
    let slot = SlotDuration::from_secs(120);
    println!(
        "operator revenue this slot: {:.4}",
        allocation.revenue(slot)
    );
    Ok(())
}
