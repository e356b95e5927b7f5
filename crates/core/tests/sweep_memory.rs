//! Memory regression guard for the clearing sweep's per-PDU sums.
//!
//! The sums are a ragged PDU-major arena — each PDU's row is only as
//! long as its highest bid reaches — not a candidates × PDUs rectangle,
//! so one outlying price ceiling lengthens one row instead of all of
//! them; and every sweep buffer is recycled, so a warm engine clearing
//! a new book of a familiar shape allocates nothing but the outcome it
//! returns. Own test binary, single test — for the reasons given in
//! `counting/mod.rs`.

mod counting;

use spotdc_core::demand::StepBid;
use spotdc_core::{ClearingConfig, ConstraintSet, MarketClearing, RackBid, SpotAllocation};
use spotdc_power::topology::TopologyBuilder;
use spotdc_units::{Price, RackId, Slot, TenantId, Watts};

use counting::requested_by;

const PDUS: usize = 2_048;

/// One step bid per PDU with caps spread over 0.20–0.40 $/kW/h, except
/// the bid on PDU 700, whose 4 $/kW/h cap is ten times the highest of
/// the others. `shift` moves the demands around and leaves the caps
/// alone, so every book has the same shape: the same candidates and the
/// same row lengths.
fn book(shift: usize) -> Vec<RackBid> {
    (0..PDUS)
        .map(|i| {
            let cap = if i == 700 {
                4.0
            } else {
                0.20 + (i % 21) as f64 * 0.01
            };
            let demand = 20.0 + ((i + shift) % 7) as f64 * 5.0;
            RackBid::new(
                RackId::new(i),
                StepBid::new(Watts::new(demand), Price::per_kw_hour(cap))
                    .expect("valid")
                    .into(),
            )
        })
        .collect()
}

#[test]
fn sums_are_ragged_and_recycled() {
    let mut b = TopologyBuilder::new(Watts::new(1e9));
    for i in 0..PDUS {
        b = b
            .pdu(Watts::new(1e5))
            .rack(TenantId::new(i), Watts::new(100.0), Watts::new(60.0));
    }
    let topo = b.build().expect("valid topology");
    let cs = ConstraintSet::new(&topo, vec![Watts::new(90.0); PDUS], Watts::new(60_000.0));
    let engine = MarketClearing::new(ClearingConfig::default());
    let books = [book(0), book(3)];

    let (cold, cold_bytes) = requested_by(|| engine.clear(Slot::ZERO, &books[0], &cs));
    assert!(cold.sold() > Watts::ZERO);
    let rectangle = (cold.candidates_evaluated() * PDUS * 8) as u64;
    assert!(
        cold_bytes < rectangle / 4,
        "a cold clear requested {cold_bytes} B; candidates × PDUs × 8 = {rectangle} B"
    );

    // Every buffer grew on the first clear; the second is steady state.
    let (warm, warm_bytes) = requested_by(|| engine.clear(Slot::ZERO, &books[1], &cs));
    assert!(warm.sold() > Watts::ZERO);
    assert_eq!(engine.cache_stats().full_sweeps, 2);
    // What the outcome itself costs to build, grant map and all.
    let (_, grants_bytes) = requested_by(|| {
        SpotAllocation::new(Slot::ZERO, warm.price(), warm.allocation().iter().collect())
    });
    assert!(
        warm_bytes <= grants_bytes + 1_024,
        "a warm clear requested {warm_bytes} B; its grants take {grants_bytes} B"
    );
    assert!(
        grants_bytes + 1_024 < cold_bytes / 10,
        "bound must discriminate"
    );
}
