//! Memory regression guard for per-PDU pricing.
//!
//! `clear_per_pdu` must hold one constraint set however many
//! sub-markets it walks: bytes allocated are O(racks + bids), not
//! O(sub-markets × racks). Own test binary, single test — for the
//! reasons given in `counting/mod.rs`.

mod counting;

use spotdc_core::demand::StepBid;
use spotdc_core::{ClearingConfig, ConstraintSet, MarketClearing, RackBid};
use spotdc_power::topology::TopologyBuilder;
use spotdc_units::{Price, RackId, Slot, TenantId, Watts};

use counting::requested_by;

#[test]
fn clear_per_pdu_allocates_a_constant_number_of_constraint_sets() {
    const PDUS: usize = 1_024;
    const RACKS_PER_PDU: usize = 4;
    let mut b = TopologyBuilder::new(Watts::new(1e9));
    for p in 0..PDUS {
        b = b.pdu(Watts::new(1e5));
        for r in 0..RACKS_PER_PDU {
            let i = p * RACKS_PER_PDU + r;
            b = b.rack(TenantId::new(i), Watts::new(100.0), Watts::new(60.0));
        }
    }
    let topo = b.build().expect("valid topology");
    let cs = ConstraintSet::new(&topo, vec![Watts::new(90.0); PDUS], Watts::new(60_000.0));
    let bids: Vec<RackBid> = (0..PDUS * RACKS_PER_PDU)
        .map(|i| {
            let demand = 20.0 + (i % 7) as f64 * 5.0;
            let cap = 0.05 + (i % 11) as f64 * 0.02;
            RackBid::new(
                RackId::new(i),
                StepBid::new(Watts::new(demand), Price::per_kw_hour(cap))
                    .expect("valid")
                    .into(),
            )
        })
        .collect();

    let (_, one_set) = requested_by(|| cs.clone());
    let engine = MarketClearing::new(ClearingConfig::grid(Price::cents_per_kw_hour(1.0)));
    let (outcomes, walked) = requested_by(|| engine.clear_per_pdu(Slot::ZERO, &bids, &cs));
    assert_eq!(outcomes.len(), PDUS);
    assert!(outcomes.iter().all(|o| o.sold() > Watts::ZERO));

    // Grouping the bids, the engine's scratch and the outcomes' grant
    // maps are all per bid; 1 KiB each is several times what they take.
    // One clone per sub-market would be PDUS × `one_set` — hundreds of
    // times over this bound.
    let bound = 4 * one_set + 1_024 * bids.len() as u64;
    assert!(
        walked < bound,
        "clear_per_pdu requested {walked} B; bound {bound} B \
         (one constraint set = {one_set} B, {PDUS} sub-markets)"
    );
    assert!(
        PDUS as u64 * one_set > 10 * bound,
        "bound must discriminate"
    );
}
