//! Memory regression guard for the clearing sweep's buffers.
//!
//! The sweep checks one PDU at a time through a single candidates-long
//! row, so everything a clear allocates is O(candidates + bids): there
//! is no candidates × PDUs rectangle and no ragged per-PDU arena, an
//! outlying price ceiling lengthens only the candidates-long buffers,
//! and every buffer is recycled, so a warm engine clearing a new book
//! of a familiar shape makes exactly one allocation: the rack-ordered
//! grant vector of the outcome it returns. Own test binary, single
//! test — for the reasons given in `counting/mod.rs`.

mod counting;

use spotdc_core::demand::StepBid;
use spotdc_core::{ClearingConfig, ConstraintSet, MarketClearing, RackBid};
use spotdc_power::topology::TopologyBuilder;
use spotdc_units::{Price, RackId, Slot, TenantId, Watts};

use counting::{counted, requested_by};

const PDUS: usize = 2_048;

/// The lowest price cap in a [`book`], $/kW/h: every PDU's bid reaches
/// at least this far up the grid.
const LOWEST_CAP: f64 = 0.20;

/// One step bid per PDU with caps spread over 0.20–0.40 $/kW/h, except
/// the bid on PDU 700, whose cap is `outlier` (4 $/kW/h is ten times
/// the highest of the others). `shift` moves the demands around and
/// leaves the caps alone, so books of one `outlier` have the same
/// shape: the same candidates and the same piece ranges.
fn book(shift: usize, outlier: f64) -> Vec<RackBid> {
    (0..PDUS)
        .map(|i| {
            let cap = if i == 700 {
                outlier
            } else {
                LOWEST_CAP + (i % 21) as f64 * 0.01
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
fn sweep_buffers_are_linear_and_recycled() {
    let mut b = TopologyBuilder::new(Watts::new(1e9));
    for i in 0..PDUS {
        b = b
            .pdu(Watts::new(1e5))
            .rack(TenantId::new(i), Watts::new(100.0), Watts::new(60.0));
    }
    let topo = b.build().expect("valid topology");
    // 45 W of spot under 60 W of headroom: every PDU can bind (and the
    // ones asked for 50 W do), so every PDU gets its sums taken.
    let cs = ConstraintSet::new(&topo, vec![Watts::new(45.0); PDUS], Watts::new(60_000.0));
    let config = ClearingConfig::default();
    let engine = MarketClearing::new(config);
    let books = [book(0, 4.0), book(3, 4.0)];

    let (cold, cold_bytes) = requested_by(|| engine.clear(Slot::ZERO, &books[0], &cs));
    assert!(cold.sold() > Watts::ZERO);
    // The outcome's grant vector: one `(RackId, Watts)` a bid.
    let grants_bytes = (16 * PDUS) as u64;
    // Four candidates-long buffers (price, total, row sum, flag: 25 B a
    // candidate) and thirteen bid- or PDU-long columns (104 B a bid, a
    // 40 B `Segment` among them); whatever grows push by push requests
    // about twice its final size. No product term.
    let candidates = cold.candidates_evaluated();
    let linear = (48 * candidates + 256 * PDUS) as u64 + grants_bytes;
    assert!(
        cold_bytes <= linear,
        "a cold clear requested {cold_bytes} B; 48 B × {candidates} candidates \
         + 256 B × {PDUS} bids + the outcome = {linear} B"
    );
    // The bound must tell the shapes apart: even the smallest per-PDU
    // layout — ragged rows, each only as long as its bid reaches — is
    // several times larger on this book.
    let shortest_row = (LOWEST_CAP / config.price_step.per_kw_hour_value()) as usize;
    let ragged = (PDUS * shortest_row * 8) as u64;
    assert!(
        linear < ragged / 3,
        "bound must discriminate: {linear} B against {ragged} B"
    );

    // Every buffer grew on the first clear; the second is steady state:
    // one allocation, the outcome's grant vector, and nothing else.
    let (warm, warm_bytes, warm_calls) = counted(|| engine.clear(Slot::ZERO, &books[1], &cs));
    assert!(warm.sold() > Watts::ZERO);
    assert_eq!(engine.cache_stats().full_sweeps, 2);
    assert_eq!(
        (warm_calls, warm_bytes),
        (1, grants_bytes),
        "a warm clear's allocations (calls, bytes); its grants take {grants_bytes} B"
    );
    assert_eq!(warm.allocation().grants().len(), PDUS);

    // Ten times the outlying ceiling: more candidates, so longer
    // candidates-long buffers (price, total, row sum, flag) and nothing
    // else — no PDU pays for one bid's reach.
    let fresh = MarketClearing::new(config);
    let (tall, tall_bytes) = requested_by(|| fresh.clear(Slot::ZERO, &book(0, 40.0), &cs));
    let extra = (tall.candidates_evaluated() - candidates) as u64;
    assert!(extra > 0);
    assert!(
        tall_bytes <= cold_bytes + 48 * extra,
        "{extra} more candidates cost {} B, over 48 B each",
        tall_bytes - cold_bytes
    );
}
