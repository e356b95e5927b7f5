//! Property-based tests for the SpotDC market core.

mod oracle;

use std::collections::BTreeMap;

use proptest::prelude::*;
use spotdc_core::demand::{DemandBid, FullBid, LinearBid, StepBid};
use spotdc_core::{
    max_perf_allocate, ClearingConfig, ConcaveGain, ConstraintSet, MarketClearing, MarketOutcome,
    RackBid, TaskShip,
};
use spotdc_durable::{Decoder, Encoder, Persist};
use spotdc_power::topology::TopologyBuilder;
use spotdc_power::PowerTopology;
use spotdc_units::{PduId, Price, RackId, Slot, TenantId, Watts};

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

/// A random full demand curve: cumulative price steps keep the
/// breakpoints strictly increasing, clamped decrements keep demand
/// non-increasing (both constructor invariants).
fn full_bid() -> impl Strategy<Value = DemandBid> {
    (
        prop::collection::vec((0.01..0.25f64, 0.0..30.0f64), 1..5),
        0.0..80.0f64,
    )
        .prop_map(|(steps, d0)| {
            let mut points = vec![(Price::ZERO, Watts::new(d0))];
            let mut price = 0.0;
            let mut demand = d0;
            for (dp, dd) in steps {
                price += dp;
                demand = (demand - dd).max(0.0);
                points.push((Price::per_kw_hour(price), Watts::new(demand)));
            }
            FullBid::new(points).expect("valid by construction").into()
        })
}

/// All three bid shapes, for the columnar-sweep equivalence tests (the
/// segment encodings for Linear/Step/Full differ, so all must be hit).
fn any_bid_shape() -> impl Strategy<Value = DemandBid> {
    prop_oneof![linear_bid(), step_bid(), full_bid()]
}

/// `spotdc_core::demand`'s price-comparison tolerance (crate-private).
const EPS: f64 = 1e-12;

/// `ConstraintSet`'s slack on Eqns. 3–4 (crate-private).
const TOLERANCE: f64 = 1e-6;

/// A price placed where the sweep decides which piece of a curve a
/// candidate falls on: exactly on a multiple of `step` $/kW/h (computed
/// as the engine computes its candidates), within a few [`EPS`] either
/// side of one, or anywhere between two.
fn edge_price(step: f64, multiples: std::ops::Range<u32>) -> impl Strategy<Value = f64> {
    let offset = prop_oneof![
        Just(0.0),
        Just(0.4 * EPS),
        Just(-0.4 * EPS),
        Just(EPS),
        Just(-EPS),
        Just(2.0 * EPS),
        Just(-2.0 * EPS),
        (0.0..1.0f64).prop_map(move |part| part * step),
    ];
    (multiples, offset).prop_map(move |(k, off)| (f64::from(k) * step + off).max(0.0))
}

/// A demand parameter that is often a zero of either sign.
fn edge_demand() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), Just(-0.0), 0.0..80.0f64, 0.0..80.0f64]
}

/// Linear and step bids priced at [`edge_price`]s of [`step`], and full
/// curves whose first breakpoint lies above zero and some of whose
/// breakpoints sit less than [`EPS`] apart with a demand drop between
/// them — the shapes that tell the exact piece-end comparison from the
/// fuzzy one.
fn edge_bid() -> impl Strategy<Value = DemandBid> {
    edge_bid_on(step().per_kw_hour_value())
}

/// [`edge_bid`] on the grid of `step` $/kW/h.
fn edge_bid_on(step: f64) -> impl Strategy<Value = DemandBid> {
    let edge_price = move |multiples| edge_price(step, multiples);
    let linear = (
        edge_demand(),
        0.0..80.0f64,
        edge_price(0..60),
        edge_price(0..60),
    )
        .prop_map(|(d1, d2, q1, q2)| {
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
        });
    let step = (edge_demand(), edge_price(0..60)).prop_map(|(d, q)| {
        StepBid::new(Watts::new(d), Price::per_kw_hour(q))
            .expect("valid")
            .into()
    });
    let twin = prop::option::of(prop_oneof![Just(0.3 * EPS), Just(0.9 * EPS)]);
    let full = (
        prop::collection::vec((edge_price(1..60), twin, 0.0..30.0f64), 1..4),
        edge_demand(),
    )
        .prop_map(|(breaks, d0)| {
            let mut prices: Vec<f64> = breaks
                .iter()
                .flat_map(|&(q, twin, _)| std::iter::once(q).chain(twin.map(|gap| q + gap)))
                .collect();
            prices.sort_by(f64::total_cmp);
            prices.dedup();
            let mut drops = breaks.iter().map(|b| b.2).cycle();
            let mut demand = d0;
            let points = prices
                .into_iter()
                .map(|q| {
                    let point = (Price::per_kw_hour(q), Watts::new(demand));
                    demand = (demand - drops.next().expect("non-empty cycle")).max(0.0);
                    point
                })
                .collect();
            FullBid::new(points).expect("valid by construction").into()
        });
    prop_oneof![linear, step, full]
}

/// Racks under each PDU of a [`wide_market`].
const WIDE_RACKS_PER_PDU: usize = 3;

/// A market in the shapes the bid-major sweep depends on. `picks` are
/// `(rack pick, bid)` in bid order over `pdus` ≥ 5 PDUs, so consecutive
/// bids land on different PDUs and several may share a rack; PDU 1 and
/// every PDU flagged in `silent` receive no bid, so the compact PDU
/// rows differ from the global PDU indices; `tall` adds a step bid whose
/// cap is far above every other ceiling, or above the candidate cap;
/// rack headrooms are often a zero of either sign.
fn wide_market(
    picks: &[(usize, DemandBid)],
    pdus: usize,
    silent: &[bool],
    tall: Option<(usize, f64)>,
    headrooms: &[f64],
    spots: &[f64],
    ups: f64,
) -> (Vec<RackBid>, ConstraintSet) {
    let mut b = TopologyBuilder::new(Watts::new(1e6));
    for p in 0..pdus {
        b = b.pdu(Watts::new(1e5));
        for r in 0..WIDE_RACKS_PER_PDU {
            let i = p * WIDE_RACKS_PER_PDU + r;
            b = b.rack(
                TenantId::new(i),
                Watts::new(100.0),
                Watts::new(headrooms[i]),
            );
        }
    }
    let topo = b.build().expect("valid topology");
    let loud: Vec<usize> = (0..pdus).filter(|&p| p != 1 && !silent[p]).collect();
    let loud = if loud.is_empty() { vec![0] } else { loud };
    let rack = |pick: usize| {
        let pdu = loud[(pick / WIDE_RACKS_PER_PDU) % loud.len()];
        RackId::new(pdu * WIDE_RACKS_PER_PDU + pick % WIDE_RACKS_PER_PDU)
    };
    let mut bids: Vec<RackBid> = picks
        .iter()
        .map(|(pick, bid)| RackBid::new(rack(*pick), bid.clone()))
        .collect();
    if let Some((pick, cap)) = tall {
        let bid = StepBid::new(Watts::new(25.0), Price::per_kw_hour(cap)).expect("valid");
        bids.insert(
            pick % (bids.len() + 1),
            RackBid::new(rack(pick), bid.into()),
        );
    }
    let pdu_spot = spots[..pdus].iter().map(|&w| Watts::new(w)).collect();
    (bids, ConstraintSet::new(&topo, pdu_spot, Watts::new(ups)))
}

/// A topology with `n` racks spread over two PDUs, 60 W headroom each.
fn topology(n: usize) -> PowerTopology {
    let mut b = TopologyBuilder::new(Watts::new(1e6)).pdu(Watts::new(1e5));
    for i in 0..n {
        if i == n / 2 {
            b = b.pdu(Watts::new(1e5));
        }
        b = b.rack(TenantId::new(i), Watts::new(100.0), Watts::new(60.0));
    }
    b.build().expect("valid topology")
}

/// The grid step the engine-vs-oracle cases clear on.
fn step() -> Price {
    Price::cents_per_kw_hour(0.5)
}

/// Clears on a fresh engine, then again on the same one, and holds
/// both outcomes to the independent oracle bit for bit: price, revenue
/// rate and every grant.
fn clear_checked(bids: &[RackBid], cs: &ConstraintSet) -> MarketOutcome {
    clear_checked_on(step(), bids, cs)
}

/// [`clear_checked`] on the grid of `step`.
fn clear_checked_on(step: Price, bids: &[RackBid], cs: &ConstraintSet) -> MarketOutcome {
    let engine = MarketClearing::new(ClearingConfig::grid(step));
    let cold = engine.clear(Slot::ZERO, bids, cs);
    oracle::assert_cleared(&cold, step, bids, cs);
    let again = engine.clear(Slot::ZERO, bids, cs);
    assert_eq!(again, cold, "the re-clear diverged");
    cold
}

/// `cs` with its rack headrooms replaced bit for bit, by way of its
/// `Persist` bytes (the rack count, then one `f64` a rack) — how a shard
/// agent is handed a set off a pipe, unvalidated. `TopologyBuilder`
/// rightly refuses the negative, infinite and NaN headrooms the sweep
/// must nonetheless clip by exactly as `feasible_total` does.
fn with_raw_headrooms(cs: &ConstraintSet, headrooms: &[f64]) -> ConstraintSet {
    let mut enc = Encoder::new();
    cs.persist(&mut enc);
    let mut bytes = enc.into_bytes();
    for (i, h) in headrooms.iter().take(cs.rack_count()).enumerate() {
        bytes[8 + 8 * i..16 + 8 * i].copy_from_slice(&h.to_bits().to_le_bytes());
    }
    ConstraintSet::restore(&mut Decoder::new(&bytes)).expect("same layout")
}

/// The most the live bids on `pdu` can be granted together, summed in
/// bid order: a bid's clipped demand never exceeds its rack's headroom
/// floored at zero (and is not clipped at all by a NaN headroom). A PDU
/// whose spot capacity covers this can never be over capacity — what
/// the sweep's skip test decides, in its own arithmetic.
fn pdu_reach(bids: &[RackBid], cs: &ConstraintSet, pdu: usize) -> f64 {
    bids.iter()
        .filter(|b| !b.demand().is_null() && cs.pdu_of(b.rack()) == Some(PduId::new(pdu)))
        .map(|b| match cs.rack_headroom(b.rack()).value() {
            h if h.is_nan() => f64::INFINITY,
            h => h.max(0.0),
        })
        .sum()
}

/// A bid that asks for far more than any headroom up to an
/// [`edge_price`], so its PDU's sum sits exactly at [`pdu_reach`]'s
/// bound wherever all of that PDU's bids are such.
fn greedy_bid() -> impl Strategy<Value = DemandBid> {
    greedy_bid_on(step().per_kw_hour_value())
}

/// [`greedy_bid`] on the grid of `step` $/kW/h.
fn greedy_bid_on(step: f64) -> impl Strategy<Value = DemandBid> {
    let price = move || edge_price(step, 0..60);
    let flat = price().prop_map(|q| {
        StepBid::new(Watts::new(1e4), Price::per_kw_hour(q))
            .expect("valid")
            .into()
    });
    let sloped = (price(), price(), edge_demand()).prop_map(|(q1, q2, d_min)| {
        LinearBid::new(
            Watts::new(1e4),
            Price::per_kw_hour(q1.min(q2)),
            Watts::new(d_min),
            Price::per_kw_hour(q1.max(q2)),
        )
        .expect("ordered parameters are valid")
        .into()
    });
    prop_oneof![flat, sloped]
}

/// Where a PDU's spot capacity sits against its [`pdu_reach`].
#[derive(Debug, Clone, Copy)]
enum Spot {
    /// The reach plus `offset` watts, moved `ulps` floats up or down: on
    /// and around the value at which the PDU can first be over capacity.
    AtReach { offset: f64, ulps: i8 },
    /// A capacity of its own, the reach notwithstanding.
    Fixed(f64),
}

fn spot() -> impl Strategy<Value = Spot> {
    let at_reach = || {
        let offset = prop_oneof![
            Just(0.0),
            Just(TOLERANCE),
            Just(-TOLERANCE),
            Just(2.0 * TOLERANCE),
            Just(-2.0 * TOLERANCE),
            Just(1e3),
        ];
        (offset, -1..=1i8).prop_map(|(offset, ulps)| Spot::AtReach { offset, ulps })
    };
    prop_oneof![
        at_reach(),
        at_reach(),
        at_reach(),
        Just(Spot::Fixed(0.0)),
        (0.0..120.0f64).prop_map(Spot::Fixed),
    ]
}

impl Spot {
    fn watts(self, reach: f64) -> Watts {
        Watts::new(match self {
            Spot::AtReach { offset, ulps } => match ulps {
                0 => reach + offset,
                1.. => (reach + offset).next_up(),
                _ => (reach + offset).next_down(),
            },
            Spot::Fixed(watts) => watts,
        })
    }
}

fn market_case() -> impl Strategy<Value = (Vec<DemandBid>, f64, f64, f64)> {
    (
        prop::collection::vec(any_bid(), 1..12),
        0.0..200.0f64, // pdu0 spot
        0.0..200.0f64, // pdu1 spot
        0.0..350.0f64, // ups spot
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn clearing_never_violates_constraints((bids, p0, p1, ups) in market_case()) {
        let topo = topology(bids.len());
        let cs = ConstraintSet::new(&topo, vec![Watts::new(p0), Watts::new(p1)], Watts::new(ups));
        let rack_bids: Vec<RackBid> = bids
            .iter()
            .enumerate()
            .map(|(i, b)| RackBid::new(RackId::new(i), b.clone()))
            .collect();
        let out = clear_checked(&rack_bids, &cs);
        prop_assert!(cs.is_feasible(out.allocation().grants()), "infeasible allocation");
    }

    #[test]
    fn finer_grid_never_reduces_revenue((bids, p0, p1, ups) in market_case()) {
        let topo = topology(bids.len());
        let cs = ConstraintSet::new(&topo, vec![Watts::new(p0), Watts::new(p1)], Watts::new(ups));
        let rack_bids: Vec<RackBid> = bids
            .iter()
            .enumerate()
            .map(|(i, b)| RackBid::new(RackId::new(i), b.clone()))
            .collect();
        // The fine step divides the coarse step, so the fine candidate
        // set is a superset of the coarse one.
        let coarse = MarketClearing::new(ClearingConfig::grid(Price::cents_per_kw_hour(1.0)))
            .clear(Slot::ZERO, &rack_bids, &cs);
        let fine = MarketClearing::new(ClearingConfig::grid(Price::cents_per_kw_hour(0.1)))
            .clear(Slot::ZERO, &rack_bids, &cs);
        prop_assert!(fine.revenue_rate() >= coarse.revenue_rate() - 1e-9);
    }

    #[test]
    fn grants_never_exceed_the_bid_demand_at_the_clearing_price((bids, p0, p1, ups) in market_case()) {
        let topo = topology(bids.len());
        let cs = ConstraintSet::new(&topo, vec![Watts::new(p0), Watts::new(p1)], Watts::new(ups));
        let rack_bids: Vec<RackBid> = bids
            .iter()
            .enumerate()
            .map(|(i, b)| RackBid::new(RackId::new(i), b.clone()))
            .collect();
        let out = MarketClearing::new(ClearingConfig::grid(step()))
            .clear(Slot::ZERO, &rack_bids, &cs);
        let price = out.price();
        for rb in &rack_bids {
            let grant = out.allocation().grant(rb.rack());
            prop_assert!(grant <= rb.demand_at(price) + Watts::new(1e-9));
        }
    }

    #[test]
    fn maxperf_always_feasible_and_saturating(
        slopes in prop::collection::vec((1.0..60.0f64, 0.0001..0.01f64), 1..10),
        p0 in 0.0..150.0f64,
        ups in 0.0..150.0f64,
    ) {
        let topo = topology(slopes.len());
        let cs = ConstraintSet::new(&topo, vec![Watts::new(p0), Watts::new(1e5)], Watts::new(ups));
        let gains: BTreeMap<RackId, ConcaveGain> = slopes
            .iter()
            .enumerate()
            .map(|(i, &(w, s))| {
                (RackId::new(i), ConcaveGain::new(vec![(w, s)]).expect("valid"))
            })
            .collect();
        let grants = max_perf_allocate(&gains, &cs);
        prop_assert!(cs.is_feasible(&grants));
        // Monotonicity in capacity: doubling the UPS never shrinks total.
        let cs2 = ConstraintSet::new(&topo, vec![Watts::new(p0), Watts::new(1e5)], Watts::new(ups * 2.0));
        let grants2 = max_perf_allocate(&gains, &cs2);
        let t1: Watts = grants.values().copied().sum();
        let t2: Watts = grants2.values().copied().sum();
        prop_assert!(t2 >= t1 - Watts::new(1e-9));
    }

    #[test]
    fn demand_functions_monotone_non_increasing(bid in any_bid(), q1 in 0.0..0.5f64, q2 in 0.0..0.5f64) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let d_lo = bid.demand_at(Price::per_kw_hour(lo));
        let d_hi = bid.demand_at(Price::per_kw_hour(hi));
        prop_assert!(d_hi <= d_lo + Watts::new(1e-9));
    }

    #[test]
    fn per_pdu_parallel_clearing_merges_to_serial((bids, p0, p1, ups) in market_case()) {
        // Decompose into per-PDU sub-markets, clear them on a shared
        // warm engine from 4 threads, merge in sub-market order: the
        // result must be identical to the serial clear_per_pdu path.
        let topo = topology(bids.len());
        let cs = ConstraintSet::new(&topo, vec![Watts::new(p0), Watts::new(p1)], Watts::new(ups));
        let rack_bids: Vec<RackBid> = bids
            .iter()
            .enumerate()
            .map(|(i, b)| RackBid::new(RackId::new(i), b.clone()))
            .collect();
        let engine = MarketClearing::new(ClearingConfig::grid(step()));
        let serial = engine.clear_per_pdu(Slot::ZERO, &rack_bids, &cs);
        let subs = engine.per_pdu_submarkets(&rack_bids, &cs);
        let merged = spotdc_par::ThreadPool::new(4)
            .par_map(&subs, |(group, local)| engine.clear(Slot::ZERO, group, local));
        prop_assert_eq!(&merged, &serial);
    }

    #[test]
    fn retained_set_walk_matches_cloned_submarkets_on_cold_engines(
        slots in prop::collection::vec(prop::option::of(any_bid_shape()), 1..16),
        pdus in 1..6usize,
        orphans in 0..3usize,
        spots in prop::collection::vec(0.0..200.0f64, 6),
        spot_scale in prop_oneof![Just(0.0), Just(1.0), Just(1.0)],
        ups in 0.0..350.0f64,
        zoned in prop_oneof![Just(false), Just(true)],
        wides in prop::collection::vec(0.0..350.0f64, 0..3),
    ) {
        // `clear_tasks` walks a run of tasks against one retained
        // constraint set and one scratch; the reference gives every
        // task its own `constraints.clone().with_ups_spot(share)` on a
        // cold engine held to the independent oracle. The run is the
        // per-PDU sub-markets with whole-facility markets at other UPS
        // shares in between, in the shapes the walk could get wrong:
        // PDUs with no bids
        // (`None` slots), bids on racks no PDU feeds (the last
        // `orphans` racks are outside the topology), every share zero
        // (`spot_scale` 0), a single PDU, and a never-binding heat zone
        // that routes each clear through the legacy scan.
        let racks = slots.len().saturating_sub(orphans).max(1);
        let mut b = TopologyBuilder::new(Watts::new(1e6));
        for p in 0..pdus {
            b = b.pdu(Watts::new(1e5));
            for i in (0..racks).filter(|i| i * pdus / racks == p) {
                b = b.rack(TenantId::new(i), Watts::new(100.0), Watts::new(60.0));
            }
        }
        let topo = b.build().expect("valid topology");
        let pdu_spot = spots[..pdus].iter().map(|&w| Watts::new(w * spot_scale)).collect();
        let mut cs = ConstraintSet::new(&topo, pdu_spot, Watts::new(ups));
        if zoned {
            cs = cs.with_zone("non-binding", (0..racks).map(RackId::new).collect(), Watts::new(1e18));
        }
        let rack_bids: Vec<RackBid> = slots
            .iter()
            .enumerate()
            .filter_map(|(i, b)| Some(RackBid::new(RackId::new(i), b.clone()?)))
            .collect();
        let engine = MarketClearing::new(ClearingConfig::grid(step()));
        let fed: Vec<RackBid> = rack_bids
            .iter()
            .filter(|b| cs.pdu_of(b.rack()).is_some())
            .cloned()
            .collect();
        let mut wides = wides.iter().map(|&share| TaskShip {
            ups_spot: Watts::new(share),
            bids: fed.clone(),
        });
        let mut tasks = Vec::new();
        let mut submarkets = Vec::new();
        for sub in engine.per_pdu_submarket_shares(&rack_bids, &cs) {
            submarkets.push(tasks.len());
            tasks.push(TaskShip { ups_spot: sub.1, bids: sub.0 });
            tasks.extend(wides.next());
        }
        tasks.extend(wides);
        let walked = engine.clear_tasks(Slot::ZERO, &mut cs.clone(), &tasks);
        prop_assert_eq!(walked.len(), tasks.len());
        for (got, task) in walked.iter().zip(&tasks) {
            let want = clear_checked(&task.bids, &cs.clone().with_ups_spot(task.ups_spot));
            prop_assert_eq!(got, &want);
        }
        // `clear_per_pdu` is the same walk over the sub-markets alone.
        let per_pdu = engine.clear_per_pdu(Slot::ZERO, &rack_bids, &cs);
        let sub_results: Vec<MarketOutcome> =
            submarkets.iter().map(|&i| walked[i].clone()).collect();
        prop_assert_eq!(per_pdu, sub_results);
    }

    #[test]
    fn sweep_shapes_match_the_oracle(
        picks in prop::collection::vec((0..64usize, edge_bid()), 1..14),
        next in prop::collection::vec((0..64usize, edge_bid()), 1..14),
        pdus in 5..9usize,
        silent in prop::collection::vec(prop_oneof![Just(false), Just(false), Just(true)], 8),
        tall in prop::option::of((0..64usize, prop_oneof![2.0..20.0f64, 90.0..200.0f64])),
        headrooms in prop::collection::vec(
            prop_oneof![Just(0.0), Just(-0.0), Just(60.0), 5.0..100.0f64],
            8 * WIDE_RACKS_PER_PDU,
        ),
        spots in prop::collection::vec(0.0..120.0f64, 8),
        ups in 0.0..400.0f64,
    ) {
        // What the earlier cases never generate — one bid per rack, in
        // rack order, on two contiguous PDUs, at off-grid prices — is
        // what the bid-major sweep's per-PDU bid chains and hinted
        // piece ends depend on; see `wide_market` and `edge_bid`.
        // A second, differently shaped book then goes through the same
        // warm engine and back, so stale sums of one layout can never
        // leak into the next.
        let (bids, cs) = wide_market(&picks, pdus, &silent, tall, &headrooms, &spots, ups);
        let out = clear_checked(&bids, &cs);
        prop_assert!(cs.is_feasible(out.allocation().grants()), "infeasible allocation");
        let (other, _) = wide_market(&next, pdus, &silent, None, &headrooms, &spots, ups);
        let other_out = clear_checked(&other, &cs);
        let warm = MarketClearing::new(ClearingConfig::grid(step()));
        for (book, want) in [(&bids, &out), (&other, &other_out), (&bids, &out)] {
            prop_assert_eq!(&warm.clear(Slot::ZERO, book, &cs), want);
        }
    }

    #[test]
    fn columnar_sweep_matches_legacy_scan(
        bids in prop::collection::vec(any_bid_shape(), 1..12),
        p0 in 0.0..200.0f64,
        p1 in 0.0..200.0f64,
        ups in 0.0..350.0f64,
    ) {
        // Heat zones route clearing through the pre-columnar scalar
        // scan (`feasible_total` per candidate). A zone whose limit can
        // never bind forces that path without changing any outcome, so
        // comparing against a zone-free clear pits the columnar sweep
        // against the legacy scan on the same market — the outcomes
        // must be exactly equal, piece ranges and all.
        let topo = topology(bids.len());
        let cs = ConstraintSet::new(&topo, vec![Watts::new(p0), Watts::new(p1)], Watts::new(ups));
        let all: Vec<RackId> = (0..bids.len()).map(RackId::new).collect();
        let legacy_cs = cs.clone().with_zone("non-binding", all, Watts::new(1e18));
        let rack_bids: Vec<RackBid> = bids
            .iter()
            .enumerate()
            .map(|(i, b)| RackBid::new(RackId::new(i), b.clone()))
            .collect();
        let columnar = clear_checked(&rack_bids, &cs);
        let legacy = clear_checked(&rack_bids, &legacy_cs);
        prop_assert_eq!(&columnar, &legacy, "columnar sweep diverged");
    }

    #[test]
    fn zoned_and_phased_markets_match_the_oracle(
        bids in prop::collection::vec(any_bid_shape(), 1..12),
        p0 in 0.0..200.0f64,
        p1 in 0.0..200.0f64,
        ups in 0.0..350.0f64,
        zone_limit in 0.0..150.0f64,
        imbalance in prop::option::of(0.0..80.0f64),
    ) {
        // A heat zone over the even racks that binds on most cases and,
        // half the time, a phase-balance bound: the markets only the
        // legacy scan clears, held to Eqns. 1–4 plus
        // `ConstraintSet::check` rather than to the columnar sweep.
        let topo = topology(bids.len());
        let evens: Vec<RackId> = (0..bids.len()).step_by(2).map(RackId::new).collect();
        let mut cs = ConstraintSet::new(&topo, vec![Watts::new(p0), Watts::new(p1)], Watts::new(ups))
            .with_zone("evens", evens, Watts::new(zone_limit));
        if let Some(limit) = imbalance {
            let phase_of = (0..bids.len()).map(|i| (i % 3) as u8).collect();
            cs = cs.with_phases(phase_of, Watts::new(limit));
        }
        let rack_bids: Vec<RackBid> = bids
            .iter()
            .enumerate()
            .map(|(i, b)| RackBid::new(RackId::new(i), b.clone()))
            .collect();
        let out = clear_checked(&rack_bids, &cs);
        prop_assert!(cs.is_feasible(out.allocation().grants()), "infeasible allocation");
    }

    #[test]
    fn reused_scratch_never_leaks_the_previous_book(
        big in prop::collection::vec((0..64usize, edge_bid()), 8..14),
        small in prop::collection::vec((0..64usize, edge_bid()), 1..4),
        pdus in 5..9usize,
        keep in (0..8usize, 0..8usize),
        tall in (0..64usize, prop_oneof![2.0..20.0f64, 90.0..200.0f64]),
        headrooms in prop::collection::vec(
            prop_oneof![Just(0.0), Just(-0.0), Just(60.0), 5.0..100.0f64],
            8 * WIDE_RACKS_PER_PDU,
        ),
        spots in prop::collection::vec(0.0..120.0f64, 8),
        ups in 0.0..400.0f64,
        zone_limit in 0.0..150.0f64,
    ) {
        // One engine — one scratch — clears a sequence of differently
        // *shaped* books, each outcome held to the oracle bit for bit.
        // `wide` has many bids over every loud PDU and one far-out
        // ceiling (a long candidate list, up to the cap); `narrow` has
        // a few bids on at most two PDUs and a low ceiling. Going from
        // one to the other and back shrinks and regrows the bid
        // columns, the touched-PDU map, the ragged sums and the
        // candidate list; a zoned book (legacy scan) and an empty one
        // sit in between, and one book is cleared twice in a row. A
        // buffer that is not rebuilt from the inputs shows up as a
        // diverging outcome.
        let loud = vec![false; 8];
        let quiet: Vec<bool> = (0..8).map(|p| p != keep.0 % pdus && p != keep.1 % pdus).collect();
        let (wide, cs) = wide_market(&big, pdus, &loud, Some(tall), &headrooms, &spots, ups);
        let (narrow, _) = wide_market(&small, pdus, &quiet, None, &headrooms, &spots, ups);
        let aisle = wide.iter().take(4).map(RackBid::rack).collect();
        let zoned = cs.clone().with_zone("aisle", aisle, Watts::new(zone_limit));
        let empty = Vec::new();
        let sequence = [
            (&wide, &cs),
            (&narrow, &cs),
            (&wide, &zoned),
            (&narrow, &cs),
            (&narrow, &cs),
            (&empty, &cs),
            (&wide, &cs),
            (&narrow, &zoned),
            (&wide, &cs),
        ];
        let engine = MarketClearing::new(ClearingConfig::grid(step()));
        let mut live = 0;
        for (s, (bids, cs)) in sequence.into_iter().enumerate() {
            let got = engine.clear(Slot::new(s as u64), bids, cs);
            oracle::assert_cleared(&got, step(), bids, cs);
            live += u64::from(bids.iter().any(|b| !b.demand().is_null()));
        }
        let stats = engine.cache_stats();
        prop_assert_eq!(stats.full_sweeps + stats.legacy_scans, live, "{:?}", stats);
    }
}

/// Four PDUs of two 60 W racks and eight step bids in rack-major order
/// (so PDUs are first met in index order). PDU `tight` is asked for
/// 50 W up to 0.10 $/kW/h and 40 W up to 0.30 $; every other PDU for
/// 50 W and 40 W up to 0.105 $. With 60 W of spot on `tight` the first
/// candidate it fits at is 0.105 $, which is then also the best one
/// (310 W sold; beyond it only the 40 W are left); were it to fit
/// everywhere, 0.10 $ would win with all 360 W.
fn four_pdu_book(tight: usize) -> (Vec<RackBid>, PowerTopology) {
    let mut b = TopologyBuilder::new(Watts::new(1e6));
    for p in 0..4 {
        b = b.pdu(Watts::new(1e5));
        for r in 0..2 {
            b = b.rack(
                TenantId::new(2 * p + r),
                Watts::new(100.0),
                Watts::new(60.0),
            );
        }
    }
    let bid = |rack: usize, watts: f64, cap: f64| {
        let bid = StepBid::new(Watts::new(watts), Price::per_kw_hour(cap)).expect("valid");
        RackBid::new(RackId::new(rack), bid.into())
    };
    let firsts = (0..4).map(|p| bid(2 * p, 50.0, if p == tight { 0.10 } else { 0.105 }));
    let seconds = (0..4).map(|p| bid(2 * p + 1, 40.0, if p == tight { 0.30 } else { 0.105 }));
    (firsts.chain(seconds).collect(), b.build().expect("valid"))
}

#[test]
fn the_running_start_does_not_depend_on_where_the_binding_pdu_sits() {
    // The one PDU that binds placed first, between and last among PDUs
    // that cannot (spot at their reach: skipped) or can but never do (a
    // watt short of it: summed), the book as given and reversed. The
    // winner is the first candidate the PDUs allow, so the sums must be
    // right from the very first one that is read.
    let grid = |i: u32| Price::per_kw_hour(f64::from(i) * step().per_kw_hour_value());
    for tight in [0, 2, 3] {
        let (bids, topo) = four_pdu_book(tight);
        let reversed: Vec<RackBid> = bids.iter().rev().cloned().collect();
        for idle in [120.0, 119.0] {
            let spots = (0..4).map(|p| Watts::new(if p == tight { 60.0 } else { idle }));
            let cs = ConstraintSet::new(&topo, spots.collect(), Watts::new(1e6));
            for book in [&bids, &reversed] {
                let out = clear_checked(book, &cs);
                assert_eq!(out.price(), grid(21), "tight PDU {tight}, idle spot {idle}");
                assert_eq!(out.sold(), Watts::new(310.0));
            }
        }
    }
    let (bids, topo) = four_pdu_book(0);
    // Every PDU summed, none ever over: the first candidate is feasible.
    let roomy = ConstraintSet::new(&topo, vec![Watts::new(119.0); 4], Watts::new(1e6));
    assert_eq!(clear_checked(&bids, &roomy).price(), grid(20));
    // No spot at all under the bid that reaches the top of the grid:
    // only the last candidate, one step above it, is feasible.
    let mut spots = vec![Watts::new(119.0); 4];
    spots[0] = Watts::ZERO;
    let out = clear_checked(&bids, &ConstraintSet::new(&topo, spots, Watts::new(1e6)));
    assert!(out.allocation().is_empty());
    assert_eq!(out.candidates_evaluated(), 62);
}

#[test]
fn a_pdus_demands_are_summed_in_bid_order() {
    // 0.1 + 0.2 + 0.3 W is 0.6000000000000001 W added left to right and
    // 0.6 W right to left, and the PDU's spot is placed so that spot +
    // tolerance is 0.6 W exactly: over capacity in one order, not in
    // the other. However the sweep groups a PDU's bids, it must add them
    // in the order they were submitted — the book and its reverse clear
    // differently, and each as the oracle says.
    let topo = TopologyBuilder::new(Watts::new(1e6)).pdu(Watts::new(1e5));
    let topo = (0..3).fold(topo, |b, i| {
        b.rack(TenantId::new(i), Watts::new(100.0), Watts::new(60.0))
    });
    let mut spot = 0.6 - TOLERANCE;
    while spot + TOLERANCE < 0.6 {
        spot = spot.next_up();
    }
    while spot + TOLERANCE > 0.6 {
        spot = spot.next_down();
    }
    assert_eq!(spot + TOLERANCE, 0.6);
    let cs = ConstraintSet::new(
        &topo.build().expect("valid"),
        vec![Watts::new(spot)],
        Watts::new(1e6),
    );
    let bids: Vec<RackBid> = [0.1, 0.2, 0.3]
        .into_iter()
        .enumerate()
        .map(|(rack, watts)| {
            let bid = StepBid::new(Watts::new(watts), Price::per_kw_hour(0.2)).expect("valid");
            RackBid::new(RackId::new(rack), bid.into())
        })
        .collect();
    assert!(clear_checked(&bids, &cs).allocation().is_empty());
    let reversed: Vec<RackBid> = bids.into_iter().rev().collect();
    let sold = clear_checked(&reversed, &cs);
    assert_eq!(sold.allocation().granted_racks().count(), 3);
}

/// Holds `out`'s grants to their definition, bit for bit: at the price
/// it cleared at, each live bid's `demand_at(price).min(rack_headroom)
/// .clamp_non_negative()`, collected into a `BTreeMap` — sorted by rack,
/// a rack that bid twice keeping its last grant — and no grant at all
/// when nothing sold.
fn assert_grants_at_price(out: &MarketOutcome, bids: &[RackBid], cs: &ConstraintSet) {
    let price = out.price();
    let grant = |b: &RackBid| {
        let clipped = b.demand_at(price).min(cs.rack_headroom(b.rack()));
        (b.rack(), clipped.clamp_non_negative())
    };
    let want: BTreeMap<RackId, Watts> = if out.revenue_rate() > 0.0 {
        bids.iter()
            .filter(|b| !b.demand().is_null())
            .map(grant)
            .collect()
    } else {
        BTreeMap::new()
    };
    let bits = |(rack, w): (RackId, Watts)| (rack, w.value().to_bits());
    assert_eq!(
        out.allocation().iter().map(bits).collect::<Vec<_>>(),
        want.into_iter().map(bits).collect::<Vec<_>>(),
        "grants at {price}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn grants_are_each_bids_clipped_demand_at_the_price(
        picks in prop_oneof![
            prop::collection::vec((0..24usize, edge_bid()), 1..6),
            prop::collection::vec((0..24usize, prop_oneof![edge_bid(), greedy_bid()]), 30..90),
        ],
        sorted in prop_oneof![Just(false), Just(true)],
        headrooms in prop::collection::vec(
            prop_oneof![
                Just(-0.0), Just(-0.0), Just(0.0), Just(-5.0), Just(f64::NAN),
                Just(f64::INFINITY), 5.0..100.0f64, 5.0..100.0f64,
            ],
            8 * WIDE_RACKS_PER_PDU,
        ),
        spots in prop::collection::vec(prop_oneof![0.0..300.0f64, Just(1e9)], 8),
        ups in prop_oneof![0.0..600.0f64, Just(1e9)],
        zone in prop::option::of(0.0..150.0f64),
    ) {
        // The grants are not re-derived from the bids: they are the book's
        // pieces read at the winner, then sorted and de-duplicated only
        // when the bids are out of rack order. So: books of a few
        // bids (fewer pieces than candidates) and of 30–90,
        // racks picked at random — shuffled, often twice — or sorted
        // (duplicates kept), headrooms of −0.0, 0, negative, NaN and +∞
        // (a bid past its last piece is granted `clip(0, h)`: −0.0 under
        // a −0.0 headroom), half the markets behind a heat zone (the
        // legacy scan) and each market's per-PDU sub-markets walked by
        // `clear_tasks`. Mutations this fails on: first-wins on duplicate
        // racks, no sort on unsorted input, an off-by-one piece lookup. A
        // literal 0.0 for uncovered bids passes where `f64::min(0.0,
        // -0.0)` is `+0.0` (x86-64, rustc 1.95, debug and release: ~1 500
        // such bids a run, equal bits) — `minnum` may return either zero,
        // so the engine keeps `clip(0.0, h)`, the expression `Watts::min`
        // evaluates.
        let placeholder = vec![60.0; 8 * WIDE_RACKS_PER_PDU];
        let (mut bids, cs) = wide_market(&picks, 8, &[false; 8], None, &placeholder, &spots, ups);
        if sorted {
            bids.sort_by_key(RackBid::rack);
        }
        let mut cs = with_raw_headrooms(&cs, &headrooms);
        if let Some(limit) = zone {
            let aisle = (0..2 * WIDE_RACKS_PER_PDU).map(RackId::new).collect();
            cs = cs.with_zone("aisle", aisle, Watts::new(limit));
        }
        let engine = MarketClearing::new(ClearingConfig::grid(step()));
        assert_grants_at_price(&engine.clear(Slot::ZERO, &bids, &cs), &bids, &cs);
        let tasks: Vec<TaskShip> = engine
            .per_pdu_submarket_shares(&bids, &cs)
            .into_iter()
            .map(|(bids, ups_spot)| TaskShip { ups_spot, bids })
            .collect();
        for (out, task) in engine.clear_tasks(Slot::ZERO, &mut cs.clone(), &tasks).iter().zip(&tasks) {
            assert_grants_at_price(out, &task.bids, &cs.clone().with_ups_spot(task.ups_spot));
        }
    }
}

/// A grid step in $/kW/h — 1e-9 (the engine's floor), 0.001 ¢ or 1 $ —
/// and `wide_market` picks of [`edge_bid_on`] that grid.
fn book_on_any_grid() -> impl Strategy<Value = (f64, Vec<(usize, DemandBid)>)> {
    let on = |grid: f64| {
        let picks = prop::collection::vec((0..64usize, edge_bid_on(grid)), 1..14);
        (Just(grid), picks)
    };
    prop_oneof![on(1e-9), on(1e-5), on(1.0)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn skipped_pdus_and_the_running_start_match_the_oracle(
        picks in prop::collection::vec((0..64usize, prop_oneof![edge_bid(), greedy_bid()]), 1..14),
        pdus in 5..9usize,
        silent in prop::collection::vec(prop_oneof![Just(false), Just(false), Just(true)], 8),
        tall in prop::option::of((0..64usize, prop_oneof![2.0..20.0f64, 90.0..200.0f64])),
        headrooms in prop::collection::vec(
            prop_oneof![
                Just(60.0), 5.0..100.0f64, 5.0..100.0f64, 5.0..100.0f64,
                Just(0.0), Just(-0.0), Just(-5.0), -50.0..0.0f64,
                Just(f64::INFINITY), Just(f64::NAN),
            ],
            8 * WIDE_RACKS_PER_PDU,
        ),
        spots in prop::collection::vec(spot(), 8),
        ups in prop_oneof![0.0..400.0f64, Just(1e9)],
    ) {
        // The sweep takes a PDU's per-candidate sums only if the
        // headrooms of its bidding racks, floored at zero, can exceed
        // its spot capacity plus tolerance at all, and starts every sum
        // at the first candidate no PDU visited so far rules out. So:
        // spot capacities on and a float either side of that very
        // bound, ± one and two tolerances; greedy bids that put the sum
        // exactly on it; negative, `-0.0`, infinite and NaN headrooms
        // under positive spots (the bound counts a negative as zero and
        // a NaN as no clip at all); and the same book with its bids
        // reversed, which reverses the order PDUs are visited in — the
        // outcome may depend on which candidates *some* PDU rules out,
        // never on which PDU got there first.
        let placeholder = vec![60.0; 8 * WIDE_RACKS_PER_PDU];
        let (mut bids, cs) = wide_market(&picks, pdus, &silent, tall, &placeholder, &[0.0; 8], ups);
        let mut cs = with_raw_headrooms(&cs, &headrooms);
        let warm = MarketClearing::new(ClearingConfig::grid(step()));
        for _ in 0..2 {
            let at: Vec<f64> =
                (0..pdus).map(|p| spots[p].watts(pdu_reach(&bids, &cs, p)).value()).collect();
            let (_, spotted) = wide_market(&picks, pdus, &silent, tall, &placeholder, &at, ups);
            cs = with_raw_headrooms(&spotted, &headrooms);
            let out = clear_checked(&bids, &cs);
            prop_assert_eq!(&warm.clear(Slot::ZERO, &bids, &cs), &out);
            bids.reverse();
        }
    }

    #[test]
    fn piece_ends_match_the_oracle_on_any_grid(
        (grid, picks) in book_on_any_grid(),
        tall in prop::option::of((0..64usize, prop_oneof![2.0..20.0f64, 1e5..1e6f64])),
        spots in prop::collection::vec(0.0..120.0f64, 8),
        ups in 0.0..400.0f64,
    ) {
        // A piece's range is found from `bound / step`, then corrected
        // by the comparison `demand_at` makes. Steps of 1e-9 $ (the
        // floor), 0.001 ¢ and 1 $ put that quotient anywhere from
        // exact to rounded at every multiple, bounds sit on grid
        // multiples and within ± 2 `EPS` of them (at a 1e-9 step `EPS`
        // is a thousandth of a step, at 1 $ far below a float's
        // spacing), and a `tall` cap lands beyond the candidate cap, at
        // the 1e-9 step by fifteen orders of magnitude: the hint may be
        // off by one, saturated, or past the end, and the outcome may
        // not depend on it.
        let headrooms = vec![60.0; 8 * WIDE_RACKS_PER_PDU];
        let (bids, cs) = wide_market(&picks, 6, &[false; 8], tall, &headrooms, &spots, ups);
        clear_checked_on(Price::per_kw_hour(grid), &bids, &cs);
    }
}

/// Eq. 4's left-hand side at `q`: the live bids' clipped demands added
/// in bid order, whether or not they fit anything.
fn total_at(bids: &[RackBid], cs: &ConstraintSet, q: Price) -> f64 {
    bids.iter()
        .filter(|b| !b.demand().is_null())
        .map(|b| b.demand_at(q).min(cs.rack_headroom(b.rack())))
        .fold(0.0, |total, d| total + d.clamp_non_negative().value())
}

/// Where the UPS spot capacity sits.
#[derive(Debug, Clone, Copy)]
enum Ups {
    /// A capacity of its own.
    Fixed(f64),
    /// Such that the limit a total is held to, capacity plus tolerance,
    /// is the exact total at grid price number `multiple` moved `ulps`
    /// floats up or down: that candidate fits by nothing, or misses by
    /// nothing, and no bound on its total can tell which.
    AtTotal { multiple: u32, ulps: i8 },
    /// The same at the price the market clears at while the UPS does
    /// not bind: the best candidate there is, kept or lost by one float.
    AtWinner { ulps: i8 },
}

fn ups() -> impl Strategy<Value = Ups> {
    prop_oneof![
        (0..62u32, -1..=1i8).prop_map(|(multiple, ulps)| Ups::AtTotal { multiple, ulps }),
        (-1..=1i8).prop_map(|ulps| Ups::AtWinner { ulps }),
        (-1..=1i8).prop_map(|ulps| Ups::AtWinner { ulps }),
        (0.0..4_000.0f64).prop_map(Ups::Fixed),
        Just(Ups::Fixed(1e9)),
    ]
}

impl Ups {
    fn watts(self, grid: f64, bids: &[RackBid], cs: &ConstraintSet) -> Watts {
        let (q, ulps) = match self {
            Ups::Fixed(watts) => return Watts::new(watts),
            Ups::AtTotal { multiple, ulps } => {
                (Price::per_kw_hour(f64::from(multiple) * grid), ulps)
            }
            Ups::AtWinner { ulps } => {
                let open = cs.clone().with_ups_spot(Watts::new(1e18));
                (
                    oracle::clear(Price::per_kw_hour(grid), bids, &open).price,
                    ulps,
                )
            }
        };
        let total = total_at(bids, cs, q);
        let limit = match ulps {
            0 => total,
            1.. => total.next_up(),
            _ => total.next_down(),
        };
        let mut spot = limit - TOLERANCE;
        while spot + TOLERANCE < limit {
            spot = spot.next_up();
        }
        while spot + TOLERANCE > limit {
            spot = spot.next_down();
        }
        Watts::new(spot)
    }
}

/// A grid step from the engine's floor to 1 $ and `wide_market` picks on
/// it: 30–90, more pieces than grid prices unless a tall cap stretches
/// the grid, or 1–4, a per-PDU sub-market's size — with a tall cap, a
/// few pieces over hundreds of candidates.
fn big_book_on_any_grid() -> impl Strategy<Value = (f64, Vec<(usize, DemandBid)>)> {
    let on = |grid: f64| {
        let bid = || prop_oneof![edge_bid_on(grid), edge_bid_on(grid), greedy_bid_on(grid)];
        let picks = prop_oneof![
            prop::collection::vec((0..64usize, bid()), 30..90),
            prop::collection::vec((0..64usize, bid()), 1..5),
        ];
        (Just(grid), picks)
    };
    prop_oneof![on(1e-9), on(1e-5), on(0.005), on(1.0)]
}

/// Step bids forming a revenue *ladder* on the grid of `grid` $/kW/h:
/// rung `k` (1-based) is `parts` bids sharing the cap `k · grid`, sized
/// so that the revenue rate at that price is `level + offsets[k - 1]`
/// $/h up to rounding. Bids go part by part, not rung by rung, behind
/// any `extras`; every rack has room for everything.
fn ladder_book(
    grid: f64,
    level: f64,
    offsets: &[f64],
    parts: usize,
    extras: &[DemandBid],
) -> (Vec<RackBid>, ConstraintSet) {
    let rungs = offsets.len();
    let total = |k: usize| (level + offsets[k - 1]) * 1_000.0 / (k as f64 * grid);
    let rung = |k: usize| total(k) - if k < rungs { total(k + 1) } else { 0.0 };
    let demands = (0..parts).flat_map(|part| {
        (1..=rungs).map(move |k| {
            let share = rung(k) / parts as f64;
            let watts = if part == 0 {
                rung(k) - share * (parts - 1) as f64
            } else {
                share
            };
            StepBid::new(
                Watts::new(watts.max(0.0)),
                Price::per_kw_hour(k as f64 * grid),
            )
            .expect("valid")
            .into()
        })
    });
    let demands: Vec<DemandBid> = extras.iter().cloned().chain(demands).collect();
    let mut b = TopologyBuilder::new(Watts::new(1e18));
    for i in 0..demands.len() {
        if i % 4 == 0 {
            b = b.pdu(Watts::new(1e15));
        }
        b = b.rack(TenantId::new(i), Watts::new(100.0), Watts::new(1e12));
    }
    let topo = b.build().expect("valid topology");
    let bids = demands
        .into_iter()
        .enumerate()
        .map(|(i, d)| RackBid::new(RackId::new(i), d))
        .collect();
    let spots = vec![Watts::new(1e15); topo.pdu_count()];
    (bids, ConstraintSet::new(&topo, spots, Watts::new(1e18)))
}

#[test]
fn a_ladder_within_the_tie_tolerance_keeps_the_oracles_rung() {
    // Each rung earns three quarters of the incumbent rule's 1e-12 more
    // (or less) than the one below, so which rung the ascending scan
    // ends on depends on every rung it passed: it keeps one, refuses
    // the next, takes the one after. The top of the ladder alone does
    // not say where that chain stands; a sweep that sums only the
    // candidates near the maximum must still end on the oracle's rung.
    for rungs in [7, 8, 19, 20, 33] {
        for rise in [0.75e-12, -0.75e-12, 0.4e-12, 1.25e-12] {
            let offsets: Vec<f64> = (0..rungs).map(|k| f64::from(k) * rise).collect();
            for level in [1.0, 40.0] {
                let (bids, cs) = ladder_book(1.0, level, &offsets, 3, &[]);
                let out = clear_checked_on(Price::per_kw_hour(1.0), &bids, &cs);
                assert!(
                    (out.revenue_rate() - level).abs() < 1e-9,
                    "{}",
                    out.revenue_rate()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn bounded_totals_match_the_oracle(
        (grid, picks) in big_book_on_any_grid(),
        pdus in 5..9usize,
        tall in prop_oneof![
            Just(None),
            Just(None),
            (0..64usize, prop_oneof![70..400u32, 100_000..200_000u32]).prop_map(Some),
        ],
        headrooms in prop::collection::vec(
            prop_oneof![
                Just(60.0), 5.0..100.0f64, 5.0..100.0f64, 5.0..100.0f64, Just(2e4),
                Just(0.0), Just(-0.0), -50.0..0.0f64, Just(f64::INFINITY), Just(f64::NAN),
            ],
            8 * WIDE_RACKS_PER_PDU,
        ),
        spots in prop::collection::vec(prop_oneof![0.0..120.0f64, 0.0..3_000.0f64, Just(1e9)], 8),
        ups in ups(),
    ) {
        // The sweep first bounds every total from the pieces' linear
        // forms and sums exactly only where the bounds cannot say whether
        // a candidate fits the UPS or can be the maximum. So: wide books
        // and books of a few bids, in every bid shape (fuzzy `FullBid`
        // interiors included), greedy bids and negative, `-0.0`,
        // infinite and NaN headrooms — pieces
        // that clip and are bounded cell by cell — grids from 1e-9 $ to
        // 1 $, and a UPS limit one float either side of a candidate's
        // exact total, where that candidate must be summed, not judged
        // by its bounds. The book is cleared again with its bids
        // reversed: the same sets of addends in another order.
        let placeholder = vec![60.0; 8 * WIDE_RACKS_PER_PDU];
        let tall = tall.map(|(pick, multiple)| (pick, f64::from(multiple) * grid));
        let (mut bids, cs) = wide_market(&picks, pdus, &[false; 8], tall, &placeholder, &spots, 0.0);
        let mut cs = with_raw_headrooms(&cs, &headrooms);
        for _ in 0..2 {
            cs.set_ups_spot(ups.watts(grid, &bids, &cs));
            clear_checked_on(Price::per_kw_hour(grid), &bids, &cs);
            bids.reverse();
        }
    }

    #[test]
    fn revenue_ladders_keep_the_oracles_incumbent(
        grid in prop_oneof![Just(1.0), Just(0.01), Just(1e-5)],
        level in prop_oneof![Just(1.0), Just(37.5), Just(1e4), Just(1e6)],
        rises in prop::collection::vec(
            prop_oneof![
                (-4..=4i8).prop_map(|halves| f64::from(halves) * 0.5e-12),
                (-4..=4i8).prop_map(|halves| f64::from(halves) * 0.5e-12),
                Just(0.0), Just(-1e-9), Just(1e-10), Just(-1e-3),
            ],
            6..40,
        ),
        cumulative in prop_oneof![Just(false), Just(true)],
        parts in 2..5usize,
        extras in prop_oneof![
            Just(Vec::new()),
            Just(Vec::new()),
            prop::collection::vec(prop_oneof![edge_bid_on(1.0), greedy_bid_on(1.0)], 1..4),
        ],
        ups in ups(),
    ) {
        // Plateaus (every rise zero), ladders that climb or fall by
        // 0.5e-12 … 2e-12 $/h a rung — under, on and over the 1e-12 by
        // which the ascending scan lets a later candidate displace the
        // incumbent — and rungs far below the rest, at revenue levels
        // where 1e-12 is thousands of floats and where it is less than
        // one. The price the oracle ends on depends on the whole chain
        // of incumbents, including candidates nowhere near the maximum;
        // the sweep, which sums only those near it, must end there too.
        let mut climbed = 0.0;
        let offsets: Vec<f64> = rises
            .iter()
            .map(|&rise| {
                climbed = if cumulative { climbed + rise } else { rise };
                climbed
            })
            .collect();
        let (mut bids, mut cs) = ladder_book(grid, level, &offsets, parts, &extras);
        for _ in 0..2 {
            cs.set_ups_spot(match ups {
                Ups::Fixed(_) => Watts::new(1e18),
                at_total => at_total.watts(grid, &bids, &cs),
            });
            clear_checked_on(Price::per_kw_hour(grid), &bids, &cs);
            bids.reverse();
        }
    }
}
