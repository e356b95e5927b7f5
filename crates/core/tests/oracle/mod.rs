//! An independent reference clearer, written from the paper's Eqns.
//! 1–4 and nothing else: no bid book, no piece ranges, no cached
//! sums, no scratch. The property tests hold `MarketClearing` to it
//! bit for bit, so "correct" does not bottom out in "equals the
//! previous implementation".
//!
//! * Eq. 1 — choose the price `q` maximizing `q · Σ_r D_r(q)` over the
//!   scanned grid `0, step, 2·step, …` up to one step past the highest
//!   price any bid still demands at, or [`MAX_PRICES`] grid prices if
//!   that comes first;
//! * Eq. 2 — no rack is granted more than its headroom (each demand is
//!   clipped to it, which is also what the rack is granted);
//! * Eq. 3 — the grants under each PDU fit that PDU's spot capacity;
//! * Eq. 4 — all grants together fit the UPS spot capacity.
//!
//! Heat zones and phase balance are not in the paper; a market that has
//! them additionally passes each candidate's grants through
//! `ConstraintSet::check`. Sums run in bid order and ties keep the
//! lower price (`rate <= best + 1e-12`), the two conventions an
//! implementation must share for floats to agree exactly.

use std::collections::BTreeMap;

use spotdc_core::{ConstraintSet, MarketOutcome, RackBid};
use spotdc_units::{PduId, Price, RackId, Watts};

/// Slack on Eqns. 3–4, as `ConstraintSet::check` applies it.
const TOLERANCE: f64 = 1e-6;

/// The documented bound on how many grid prices one clearing scans
/// (a ceiling beyond it is cleared within the scanned range).
const MAX_PRICES: usize = 1 << 14;

/// What the market clears to: a price, the operator's revenue rate in
/// $/h there, and each bidding rack's grant. Nothing sold is price 0,
/// rate 0, no grants — the paper's "no spot capacity". `scanned` is how
/// many grid prices Eq. 1 was evaluated at (none when nobody bids).
#[derive(Debug, PartialEq)]
pub struct Cleared {
    pub price: Price,
    pub revenue_rate: f64,
    pub grants: BTreeMap<RackId, Watts>,
    pub scanned: usize,
}

/// `D_r(q)` clipped to the rack's headroom (Eq. 2), per live bid.
fn clipped(bids: &[&RackBid], cs: &ConstraintSet, q: Price) -> Vec<(RackId, Watts)> {
    bids.iter()
        .map(|b| {
            let d = b.demand_at(q).min(cs.rack_headroom(b.rack()));
            (b.rack(), d.clamp_non_negative())
        })
        .collect()
}

/// The clipped demand total at `q` if Eqns. 3–4 (and any zone or phase
/// limit) hold there.
fn feasible_total(bids: &[&RackBid], cs: &ConstraintSet, q: Price) -> Option<f64> {
    let mut per_pdu: BTreeMap<PduId, f64> = BTreeMap::new();
    let mut per_rack: BTreeMap<RackId, Watts> = BTreeMap::new();
    let mut total = 0.0;
    for (rack, d) in clipped(bids, cs, q) {
        // A rack no PDU feeds cannot be powered at any price.
        *per_pdu.entry(cs.pdu_of(rack)?).or_insert(0.0) += d.value();
        *per_rack.entry(rack).or_insert(Watts::ZERO) += d;
        total += d.value();
    }
    let pdus_fit = per_pdu
        .iter()
        .all(|(&p, &used)| used <= cs.pdu_spot(p).value() + TOLERANCE);
    let ups_fits = total <= cs.ups_spot().value() + TOLERANCE;
    let extras = !cs.zones().is_empty() || cs.phases().is_some();
    let extras_fit = !extras || cs.check(&per_rack).is_ok();
    (pdus_fit && ups_fits && extras_fit).then_some(total)
}

/// Clears `bids` against `cs` on the grid of `step`.
pub fn clear(step: Price, bids: &[RackBid], cs: &ConstraintSet) -> Cleared {
    let live: Vec<&RackBid> = bids.iter().filter(|b| !b.demand().is_null()).collect();
    let step = step.per_kw_hour_value();
    let ceiling = live
        .iter()
        .map(|b| b.demand().price_ceiling().per_kw_hour_value())
        .fold(0.0, f64::max);
    let last = ((ceiling / step).ceil() as usize).min(MAX_PRICES - 2) + 1;
    let scanned = if live.is_empty() { 0 } else { last + 1 };
    let mut best: Option<(Price, f64)> = None;
    for i in 0..=last {
        let q = Price::per_kw_hour(i as f64 * step);
        let Some(total) = feasible_total(&live, cs, q) else {
            continue;
        };
        let rate = q.per_kw_hour_value() * (total / 1_000.0);
        match best {
            Some((_, best_rate)) if rate <= best_rate + 1e-12 => {}
            _ => best = Some((q, rate)),
        }
    }
    match best {
        Some((price, revenue_rate)) if revenue_rate > 0.0 => Cleared {
            price,
            revenue_rate,
            grants: clipped(&live, cs, price).into_iter().collect(),
            scanned,
        },
        _ => Cleared {
            price: Price::ZERO,
            revenue_rate: 0.0,
            grants: BTreeMap::new(),
            scanned,
        },
    }
}

/// Holds an engine's outcome to [`clear`] bit for bit: price, revenue
/// rate and every grant, and to the same number of prices scanned.
pub fn assert_cleared(got: &MarketOutcome, step: Price, bids: &[RackBid], cs: &ConstraintSet) {
    let want = clear(step, bids, cs);
    let bits = |w: Watts| w.value().to_bits();
    assert_eq!(
        got.price().per_kw_hour_value().to_bits(),
        want.price.per_kw_hour_value().to_bits(),
        "price {} vs oracle {}",
        got.price(),
        want.price
    );
    assert_eq!(got.revenue_rate().to_bits(), want.revenue_rate.to_bits());
    assert_eq!(got.candidates_evaluated(), want.scanned, "prices scanned");
    assert_eq!(
        got.allocation()
            .iter()
            .map(|(r, w)| (r, bits(w)))
            .collect::<Vec<_>>(),
        want.grants
            .iter()
            .map(|(&r, &w)| (r, bits(w)))
            .collect::<Vec<_>>()
    );
}
