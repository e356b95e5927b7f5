//! Post-clearing invariant checking (Eqns. 1–4 of the paper).
//!
//! The clearing algorithms are *supposed* to emit only feasible,
//! demand-consistent allocations, but faults, degradation paths and
//! future refactors all conspire against "supposed to". This module
//! re-derives the paper's market invariants from first principles and
//! checks a finished allocation against them:
//!
//! 1. **Eq. 1 (demand consistency):** every rack's grant is what its
//!    own demand function asks for at the clearing price — never more —
//!    and no rack is granted spot without having bid.
//! 2. **Eq. 2 (rack headroom):** each grant fits the rack's headroom.
//! 3. **Eq. 3 (PDU spot):** per-PDU grant totals fit the predicted PDU
//!    spot capacity.
//! 4. **Eq. 4 (UPS spot):** the grand total fits the UPS spot capacity.
//!
//! Plus the market sanity condition that the clearing price is
//! non-negative and finite. The checker is pure and allocation-sized —
//! cheap enough to run every slot in debug builds and behind a
//! `--validate` flag in release.

use std::fmt;

use crate::allocation::SpotAllocation;
use crate::bid::RackBid;
use crate::constraints::{ConstraintSet, ConstraintViolation};
use spotdc_units::{Price, RackId, Watts};

/// Absolute tolerance (in watts) for demand-consistency comparisons,
/// covering float accumulation across the clearing search.
const DEMAND_TOL: f64 = 1e-6;

/// One violated market invariant.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MarketInvariant {
    /// The clearing price was negative, NaN or infinite.
    BadPrice {
        /// The offending price.
        price: Price,
    },
    /// A capacity constraint (Eqns. 2–4, zones, phases) was violated.
    Capacity(ConstraintViolation),
    /// A rack was granted more than its demand function asks for at
    /// the clearing price (Eq. 1).
    GrantExceedsDemand {
        /// The offending rack.
        rack: RackId,
        /// The grant it received.
        grant: Watts,
        /// What its bid demands at the clearing price.
        demand: Watts,
    },
    /// A rack received a positive grant without any admitted bid.
    GrantWithoutBid {
        /// The offending rack.
        rack: RackId,
        /// The grant it received.
        grant: Watts,
    },
}

impl fmt::Display for MarketInvariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MarketInvariant::BadPrice { price } => {
                write!(f, "clearing price {price} is negative or non-finite")
            }
            MarketInvariant::Capacity(v) => write!(f, "{v}"),
            MarketInvariant::GrantExceedsDemand {
                rack,
                grant,
                demand,
            } => write!(
                f,
                "{rack} granted {grant} but demands only {demand} at the clearing price"
            ),
            MarketInvariant::GrantWithoutBid { rack, grant } => {
                write!(f, "{rack} granted {grant} without an admitted bid")
            }
        }
    }
}

/// Checks a cleared allocation against the paper's market invariants.
///
/// `bids` are the admitted rack bids the market cleared over (the same
/// slice handed to [`MarketClearing::clear`]); for the per-PDU or
/// MaxPerf paths, pass whatever demand bound applies, or an empty slice
/// together with `check_demand = false` to skip Eq. 1.
///
/// Returns every violation found, empty when the allocation is sound.
///
/// [`MarketClearing::clear`]: crate::clearing::MarketClearing::clear
///
/// # Examples
///
/// ```
/// use spotdc_core::demand::StepBid;
/// use spotdc_core::invariant::check_allocation;
/// use spotdc_core::{ConstraintSet, RackBid, SpotAllocation};
/// use spotdc_power::topology::TopologyBuilder;
/// use spotdc_units::{Price, RackId, Slot, TenantId, Watts};
///
/// let topo = TopologyBuilder::new(Watts::new(200.0))
///     .pdu(Watts::new(200.0))
///     .rack(TenantId::new(0), Watts::new(100.0), Watts::new(50.0))
///     .build()?;
/// let constraints = ConstraintSet::new(&topo, vec![Watts::new(50.0)], Watts::new(50.0));
/// let bids = vec![RackBid::new(
///     RackId::new(0),
///     StepBid::new(Watts::new(30.0), Price::per_kw_hour(0.2))?.into(),
/// )];
/// let grants = |w| [(RackId::new(0), Watts::new(w))].into_iter().collect();
/// let sound = SpotAllocation::new(Slot::ZERO, Price::per_kw_hour(0.1), grants(30.0));
/// assert!(check_allocation(&constraints, &sound, &bids, true).is_empty());
///
/// // Fits Eq. 2–4 but grants more than the bid demands — breaks Eq. 1.
/// let oversold = SpotAllocation::new(Slot::ZERO, Price::per_kw_hour(0.1), grants(45.0));
/// assert_eq!(check_allocation(&constraints, &oversold, &bids, true).len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use]
pub fn check_allocation(
    constraints: &ConstraintSet,
    allocation: &SpotAllocation,
    bids: &[RackBid],
    check_demand: bool,
) -> Vec<MarketInvariant> {
    let index = check_demand.then(|| BidIndex::new(bids));
    check_allocation_indexed(constraints, allocation, index.as_ref())
}

/// One slot's admitted bids grouped by rack, for checking **many**
/// allocations cleared over the same bid set — the per-PDU sub-markets
/// — without re-walking every bid per allocation. Built once per slot
/// in O(bids log bids); each [`check_allocation_indexed`] call then
/// touches only the bids of the racks it granted, so a slot's
/// validation is O(bids + grants) however many sub-markets it has.
#[derive(Debug)]
pub struct BidIndex<'a> {
    /// Stable-sorted by rack, so one rack's bids stay in slice order and
    /// their demands sum in the order the whole-slice scan adds them.
    by_rack: Vec<&'a RackBid>,
}

impl<'a> BidIndex<'a> {
    /// Indexes `bids` by rack.
    #[must_use]
    pub fn new(bids: &'a [RackBid]) -> Self {
        let mut by_rack: Vec<&RackBid> = bids.iter().collect();
        by_rack.sort_by_key(|b| b.rack());
        BidIndex { by_rack }
    }

    /// The total demand `rack`'s bids ask for at `price`, or `None`
    /// when the rack placed no bid.
    fn demand_at(&self, rack: RackId, price: Price) -> Option<Watts> {
        let from = &self.by_rack[self.by_rack.partition_point(|b| b.rack() < rack)..];
        let own = &from[..from.partition_point(|b| b.rack() == rack)];
        if own.is_empty() {
            return None;
        }
        Some(
            own.iter()
                .fold(Watts::ZERO, |sum, b| sum + b.demand_at(price)),
        )
    }
}

/// [`check_allocation`] against a prebuilt [`BidIndex`] (`None` skips
/// Eq. 1, like `check_demand = false`). Reports exactly the list
/// `check_allocation` reports for the indexed bids, in the same order.
#[must_use]
pub fn check_allocation_indexed(
    constraints: &ConstraintSet,
    allocation: &SpotAllocation,
    bids: Option<&BidIndex<'_>>,
) -> Vec<MarketInvariant> {
    let mut violations = Vec::new();
    let price = allocation.price();
    if !price.per_kw_hour_value().is_finite() || price.per_kw_hour_value() < 0.0 {
        violations.push(MarketInvariant::BadPrice { price });
    }
    if let Err(v) = constraints.check(allocation.grants()) {
        violations.push(MarketInvariant::Capacity(v));
    }
    if let Some(bids) = bids {
        for (rack, grant) in allocation.iter() {
            match bids.demand_at(rack, price) {
                Some(demand) if grant.value() > demand.value() + DEMAND_TOL => {
                    violations.push(MarketInvariant::GrantExceedsDemand {
                        rack,
                        grant,
                        demand,
                    });
                }
                None if grant > Watts::ZERO => {
                    violations.push(MarketInvariant::GrantWithoutBid { rack, grant });
                }
                _ => {}
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::StepBid;
    use spotdc_power::topology::TopologyBuilder;
    use spotdc_units::{Slot, TenantId};

    fn constraints() -> ConstraintSet {
        let topo = TopologyBuilder::new(Watts::new(300.0))
            .pdu(Watts::new(300.0))
            .rack(TenantId::new(0), Watts::new(100.0), Watts::new(50.0))
            .rack(TenantId::new(1), Watts::new(100.0), Watts::new(50.0))
            .build()
            .unwrap();
        ConstraintSet::new(&topo, vec![Watts::new(60.0)], Watts::new(60.0))
    }

    fn bid(rack: usize, demand: f64, ceiling: f64) -> RackBid {
        RackBid::new(
            RackId::new(rack),
            StepBid::new(Watts::new(demand), Price::per_kw_hour(ceiling))
                .unwrap()
                .into(),
        )
    }

    fn alloc(price: f64, grants: &[(usize, f64)]) -> SpotAllocation {
        SpotAllocation::new(
            Slot::ZERO,
            Price::per_kw_hour(price),
            grants
                .iter()
                .map(|&(r, w)| (RackId::new(r), Watts::new(w)))
                .collect(),
        )
    }

    #[test]
    fn sound_allocation_has_no_violations() {
        let bids = vec![bid(0, 30.0, 0.3), bid(1, 20.0, 0.3)];
        let a = alloc(0.1, &[(0, 30.0), (1, 20.0)]);
        assert!(check_allocation(&constraints(), &a, &bids, true).is_empty());
    }

    #[test]
    fn negative_price_flagged() {
        let a = alloc(-0.1, &[]);
        let found = check_allocation(&constraints(), &a, &[], true);
        assert!(matches!(found[0], MarketInvariant::BadPrice { .. }));
    }

    #[test]
    fn capacity_breach_flagged() {
        // 40 + 30 = 70 > the 60 W PDU/UPS spot bound.
        let bids = vec![bid(0, 40.0, 0.3), bid(1, 30.0, 0.3)];
        let a = alloc(0.1, &[(0, 40.0), (1, 30.0)]);
        let found = check_allocation(&constraints(), &a, &bids, true);
        assert_eq!(found.len(), 1);
        assert!(matches!(found[0], MarketInvariant::Capacity(_)));
    }

    #[test]
    fn grant_above_demand_flagged() {
        // At a price above its ceiling, the bid demands zero.
        let bids = vec![bid(0, 30.0, 0.05)];
        let a = alloc(0.1, &[(0, 30.0)]);
        let found = check_allocation(&constraints(), &a, &bids, true);
        assert!(matches!(
            found[0],
            MarketInvariant::GrantExceedsDemand { .. }
        ));
        assert!(found[0].to_string().contains("demands only"));
    }

    #[test]
    fn grant_without_bid_flagged_only_when_checking_demand() {
        let a = alloc(0.1, &[(1, 10.0)]);
        let found = check_allocation(&constraints(), &a, &[], true);
        assert!(matches!(found[0], MarketInvariant::GrantWithoutBid { .. }));
        assert!(check_allocation(&constraints(), &a, &[], false).is_empty());
    }

    /// The pre-index Eq. 1 check: one rack → demand map over *every*
    /// bid, rebuilt per allocation. Kept as the reference the indexed
    /// check must reproduce violation for violation.
    fn whole_slot_scan(
        constraints: &ConstraintSet,
        allocation: &SpotAllocation,
        bids: &[RackBid],
    ) -> Vec<MarketInvariant> {
        use std::collections::BTreeMap;
        let mut violations = check_allocation(constraints, allocation, &[], false);
        let price = allocation.price();
        let mut demand_at_price: BTreeMap<RackId, Watts> = BTreeMap::new();
        for bid in bids {
            *demand_at_price.entry(bid.rack()).or_insert(Watts::ZERO) += bid.demand_at(price);
        }
        for (rack, grant) in allocation.iter() {
            match demand_at_price.get(&rack) {
                Some(&demand) if grant.value() > demand.value() + DEMAND_TOL => {
                    violations.push(MarketInvariant::GrantExceedsDemand {
                        rack,
                        grant,
                        demand,
                    });
                }
                None if grant > Watts::ZERO => {
                    violations.push(MarketInvariant::GrantWithoutBid { rack, grant });
                }
                _ => {}
            }
        }
        violations
    }

    #[test]
    fn over_granted_per_pdu_allocations_report_the_same_list_through_the_index() {
        // Three PDUs of two racks; racks 0–3 bid (rack 1 twice, so its
        // demands must sum in bid order), PDU#2 gets no bids.
        let mut b = TopologyBuilder::new(Watts::new(900.0));
        for r in 0..6 {
            if r % 2 == 0 {
                b = b.pdu(Watts::new(300.0));
            }
            b = b.rack(TenantId::new(r), Watts::new(100.0), Watts::new(50.0));
        }
        let cs = ConstraintSet::new(
            &b.build().unwrap(),
            vec![Watts::new(60.0); 3],
            Watts::new(120.0),
        );
        let bids = vec![
            bid(1, 10.0, 0.30),
            bid(0, 30.0, 0.30),
            bid(3, 25.0, 0.05),
            bid(1, 15.0, 0.20),
            bid(2, 20.0, 0.30),
        ];
        let index = BidIndex::new(&bids);
        // One allocation per sub-market, each broken differently: PDU#0
        // over-grants rack 0 past its demand *and* the PDU spot; PDU#1
        // grants rack 3 above its price cap; PDU#2 grants racks that
        // never bid (rack 9 is not even in the topology).
        let broken = [
            alloc(0.1, &[(0, 45.0), (1, 25.0)]),
            alloc(0.1, &[(2, 20.0), (3, 25.0)]),
            alloc(-0.1, &[(4, 5.0), (5, 0.0), (9, 1.0)]),
        ];
        let mut kinds = Vec::new();
        for a in &broken {
            let indexed = check_allocation_indexed(&cs, a, Some(&index));
            assert_eq!(indexed, whole_slot_scan(&cs, a, &bids));
            assert_eq!(indexed, check_allocation(&cs, a, &bids, true));
            kinds.push(indexed.len());
        }
        // Capacity + rack 0 | rack 3 | bad price + capacity + racks 4, 9.
        assert_eq!(kinds, [2, 1, 4]);
        // Rack 1's two bids still add up (10 + 15 = its 25 W grant).
        assert!(check_allocation_indexed(&cs, &alloc(0.1, &[(1, 25.0)]), Some(&index)).is_empty());
    }

    #[test]
    fn cleared_outcomes_always_pass() {
        use crate::clearing::{ClearingConfig, MarketClearing};
        let bids = vec![bid(0, 45.0, 0.25), bid(1, 35.0, 0.15)];
        let clearing = MarketClearing::new(ClearingConfig::default());
        let cs = constraints();
        let outcome = clearing.clear(Slot::ZERO, &bids, &cs);
        assert!(check_allocation(&cs, outcome.allocation(), &bids, true).is_empty());
    }
}
