//! Scratch-reuse guard for the clearing engine under fault-driven churn.
//!
//! [`MarketClearing`] keeps no market state between clears, only
//! buffers it rebuilds from each clear's inputs. This test drives one
//! long-lived engine through the bid-set churn a fault schedule
//! produces — lost bids, late bids rolling into the next slot's
//! auction, tenants sitting slots out, one demand drifting — and holds
//! every clear to `spotdc-core`'s independent Eqns. 1–4 oracle bit for
//! bit. A buffer that leaked from one slot's book into the next shows
//! up as a diverging outcome.
//!
//! (The shape-driven counterpart — books that shrink and regrow every
//! buffer — lives in the core crate's property suite.)

#[path = "../../core/tests/oracle/mod.rs"]
mod oracle;

use proptest::prelude::*;
use spotdc_core::demand::{DemandBid, LinearBid, StepBid};
use spotdc_core::{ClearingConfig, ConstraintSet, MarketClearing, RackBid};
use spotdc_faults::{BidFault, FaultConfig, FaultPlan};
use spotdc_power::topology::TopologyBuilder;
use spotdc_power::PowerTopology;
use spotdc_units::{Price, RackId, Slot, TenantId, Watts};

const TENANTS: usize = 8;
const HORIZON: u64 = 24;

/// A random linear bid (always valid by construction).
fn linear_bid() -> impl Strategy<Value = DemandBid> {
    (0.0..80.0f64, 0.0..80.0f64, 0.0..0.3f64, 0.0..0.3f64).prop_map(|(d1, d2, q1, q2)| {
        let (d_min, d_max) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        let (q_min, q_max) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        LinearBid::new(
            Watts::new(d_max),
            Price::per_kw_hour(q_min),
            Watts::new(d_min),
            Price::per_kw_hour(q_max),
        )
        .expect("ordered parameters are valid")
        .into()
    })
}

fn step_bid() -> impl Strategy<Value = DemandBid> {
    (0.0..80.0f64, 0.0..0.4f64).prop_map(|(d, q)| {
        StepBid::new(Watts::new(d), Price::per_kw_hour(q))
            .expect("valid")
            .into()
    })
}

fn any_bid() -> impl Strategy<Value = DemandBid> {
    prop_oneof![linear_bid(), step_bid()]
}

/// A topology with [`TENANTS`] racks spread over two PDUs.
fn topology() -> PowerTopology {
    let mut b = TopologyBuilder::new(Watts::new(1e6)).pdu(Watts::new(1e5));
    for i in 0..TENANTS {
        if i == TENANTS / 2 {
            b = b.pdu(Watts::new(1e5));
        }
        b = b.rack(TenantId::new(i), Watts::new(100.0), Watts::new(60.0));
    }
    b.build().expect("valid topology")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fault_driven_bid_churn_clears_like_the_oracle(
        demands in prop::collection::vec(any_bid(), TENANTS..=TENANTS),
        fault_seed in 0u64..1_000_000,
        drift in prop_oneof![Just(0.0), 0.5..10.0f64],
    ) {
        let topo = topology();
        let cs = ConstraintSet::new(
            &topo,
            vec![Watts::new(120.0), Watts::new(90.0)],
            Watts::new(180.0),
        );
        let plan = FaultPlan::new(FaultConfig::uniform(0.2, fault_seed));
        for config in [
            ClearingConfig::grid(Price::cents_per_kw_hour(0.5)),
            ClearingConfig::grid(Price::cents_per_kw_hour(0.01)),
        ] {
            let engine = MarketClearing::new(config);
            let mut current = demands.clone();
            let mut late: Vec<(TenantId, RackBid)> = Vec::new();
            let mut lost_faults = 0usize;
            let mut late_faults = 0usize;
            let mut live_slots = 0u64;
            for s in 0..HORIZON {
                let slot = Slot::new(s);
                // One tenant's demand drifts per slot (not at all when
                // `drift` is zero), on top of the fault-driven churn.
                let victim = (s as usize) % TENANTS;
                current[victim] = match &current[victim] {
                    DemandBid::Linear(b) => LinearBid::new(
                        b.d_max() + Watts::new(drift),
                        b.q_min(),
                        b.d_min(),
                        b.q_max(),
                    ).expect("growing d_max keeps ordering").into(),
                    DemandBid::Step(b) => StepBid::new(
                        b.demand() + Watts::new(drift),
                        b.price_cap(),
                    ).expect("valid").into(),
                    DemandBid::Full(_) => unreachable!("any_bid only emits linear/step"),
                };
                // Fresh submissions from a rotating subset of tenants,
                // so a late bid can roll into a slot its tenant sits
                // out — the same supersede-on-fresh rule CollectBids
                // applies.
                let mut market: Vec<(TenantId, RackBid)> = (0..TENANTS)
                    .filter(|i| !(s as usize + i).is_multiple_of(3))
                    .map(|i| {
                        (
                            TenantId::new(i),
                            RackBid::new(RackId::new(i), current[i].clone()),
                        )
                    })
                    .collect();
                for (tenant, bid) in std::mem::take(&mut late) {
                    if !market.iter().any(|(t, _)| *t == tenant) {
                        market.push((tenant, bid));
                    }
                }
                let mut i = 0;
                while i < market.len() {
                    match plan.bid_fault(slot, market[i].0) {
                        None => i += 1,
                        Some(BidFault::Lost) => {
                            market.remove(i);
                            lost_faults += 1;
                        }
                        Some(BidFault::Late) => {
                            let entry = market.remove(i);
                            late.push(entry);
                            late_faults += 1;
                        }
                    }
                }
                let rack_bids: Vec<RackBid> =
                    market.iter().map(|(_, b)| b.clone()).collect();
                let cleared = engine.clear(slot, &rack_bids, &cs);
                oracle::assert_cleared(&cleared, config.price_step, &rack_bids, &cs);
                if rack_bids.iter().any(|b| !b.demand().is_null()) {
                    live_slots += 1;
                }
            }
            // At a 20 % per-channel rate over ~128 submissions, a
            // schedule firing neither fault kind is a broken schedule,
            // not bad luck.
            prop_assert!(lost_faults > 0, "no lost-bid faults fired");
            prop_assert!(late_faults > 0, "no late-bid faults fired");
            // Every non-empty clear is one sweep: none skipped, none
            // counted twice.
            let stats = engine.cache_stats();
            prop_assert_eq!(
                stats.full_sweeps,
                live_slots,
                "unaccounted clears under {:?}: {:?}", config, stats
            );
        }
    }
}
