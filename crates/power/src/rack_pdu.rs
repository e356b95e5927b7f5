//! Intelligent rack PDUs: dynamically settable per-rack power budgets.
//!
//! The actuation half of SpotDC: after the market clears, the operator
//! programs each rack's power budget (guaranteed capacity plus any spot
//! grant) into the rack PDU. Commercial switched/metered rack PDUs (the
//! paper used APC AP8632 units) accept budget updates 20+ times per
//! second, so a whole data center can be re-budgeted well within one
//! slot. [`RackPduBank`] models the whole fleet of rack PDUs, enforcing
//! the invariant that a budget never exceeds the rack's physical limit.

use spotdc_units::{RackId, Watts};

use crate::topology::{PowerTopology, TopologyError};

/// The fleet of per-rack intelligent PDUs and their current budgets.
///
/// Budgets default to each rack's guaranteed capacity. Spot grants raise
/// the budget for one slot; [`RackPduBank::reset_all`] is the
/// end-of-slot fallback (also the paper's behaviour under communication
/// loss — "resume to the default case of no spot capacity").
///
/// # Examples
///
/// ```
/// use spotdc_power::{RackPduBank, topology::TopologyBuilder};
/// use spotdc_units::{RackId, TenantId, Watts};
///
/// let topo = TopologyBuilder::new(Watts::new(500.0))
///     .pdu(Watts::new(500.0))
///     .rack(TenantId::new(0), Watts::new(100.0), Watts::new(50.0))
///     .build()?;
/// let mut bank = RackPduBank::new(&topo);
/// let r = RackId::new(0);
/// assert_eq!(bank.budget(r), Watts::new(100.0));
/// bank.grant_spot(r, Watts::new(30.0))?;
/// assert_eq!(bank.budget(r), Watts::new(130.0));
/// # Ok::<(), spotdc_power::TopologyError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RackPduBank {
    guaranteed: Vec<Watts>,
    physical_limit: Vec<Watts>,
    budget: Vec<Watts>,
}

impl RackPduBank {
    /// Creates a bank with one PDU per rack in `topology`, all budgets
    /// initialized to the guaranteed capacity.
    #[must_use]
    pub fn new(topology: &PowerTopology) -> Self {
        let guaranteed: Vec<Watts> = topology.racks().map(|r| r.guaranteed()).collect();
        let physical_limit = topology.racks().map(|r| r.physical_limit()).collect();
        RackPduBank {
            budget: guaranteed.clone(),
            guaranteed,
            physical_limit,
        }
    }

    /// The current budget programmed for `rack` (zero for unknown ids).
    #[must_use]
    pub fn budget(&self, rack: RackId) -> Watts {
        self.budget
            .get(rack.index())
            .copied()
            .unwrap_or(Watts::ZERO)
    }

    /// The guaranteed capacity of `rack` (zero for unknown ids).
    #[must_use]
    pub fn guaranteed(&self, rack: RackId) -> Watts {
        self.guaranteed
            .get(rack.index())
            .copied()
            .unwrap_or(Watts::ZERO)
    }

    /// The spot capacity currently granted to `rack` on top of its
    /// guaranteed capacity.
    #[must_use]
    pub fn spot_grant(&self, rack: RackId) -> Watts {
        (self.budget(rack) - self.guaranteed(rack)).clamp_non_negative()
    }

    /// Grants `spot` watts of spot capacity to `rack` for the current
    /// slot, raising its budget to guaranteed + spot.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnknownRack`] for an unknown rack, or
    /// [`TopologyError::InvalidCapacity`] if the resulting budget would
    /// exceed the rack's physical limit or `spot` is negative/non-finite.
    pub fn grant_spot(&mut self, rack: RackId, spot: Watts) -> Result<(), TopologyError> {
        let i = rack.index();
        if i >= self.budget.len() {
            return Err(TopologyError::UnknownRack(rack));
        }
        if !spot.is_finite() || spot.is_negative() {
            return Err(TopologyError::InvalidCapacity {
                what: format!("{rack} spot grant"),
            });
        }
        let new = self.guaranteed[i] + spot;
        if new > self.physical_limit[i] + Watts::new(1e-9) {
            return Err(TopologyError::InvalidCapacity {
                what: format!(
                    "{rack} budget {new} exceeds physical limit {}",
                    self.physical_limit[i]
                ),
            });
        }
        self.budget[i] = new;
        Ok(())
    }

    /// Caps `rack`'s budget to at most `limit` for the current slot —
    /// the emergency power-capping path. Unlike
    /// [`RackPduBank::grant_spot`], the resulting budget may fall
    /// *below* the guaranteed capacity: during a detected overload the
    /// operator sheds spot first, then trims guarantees if the base
    /// load alone still exceeds a shared capacity. The cap lasts until
    /// the next [`RackPduBank::reset_all`] (i.e. one slot).
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnknownRack`] for an unknown rack, or
    /// [`TopologyError::InvalidCapacity`] if `limit` is
    /// negative/non-finite.
    pub fn cap_budget(&mut self, rack: RackId, limit: Watts) -> Result<(), TopologyError> {
        let i = rack.index();
        if i >= self.budget.len() {
            return Err(TopologyError::UnknownRack(rack));
        }
        if !limit.is_finite() || limit.is_negative() {
            return Err(TopologyError::InvalidCapacity {
                what: format!("{rack} budget cap"),
            });
        }
        if limit < self.budget[i] {
            self.budget[i] = limit;
        }
        Ok(())
    }

    /// Resets every rack's budget back to its guaranteed capacity (the
    /// no-spot default).
    pub fn reset_all(&mut self) {
        self.budget.copy_from_slice(&self.guaranteed);
    }

    /// Number of racks managed.
    #[must_use]
    pub fn rack_count(&self) -> usize {
        self.budget.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyBuilder;
    use spotdc_units::TenantId;

    fn bank() -> RackPduBank {
        let topo = TopologyBuilder::new(Watts::new(1000.0))
            .pdu(Watts::new(500.0))
            .rack(TenantId::new(0), Watts::new(100.0), Watts::new(50.0))
            .rack(TenantId::new(1), Watts::new(120.0), Watts::new(30.0))
            .build()
            .unwrap();
        RackPduBank::new(&topo)
    }

    #[test]
    fn budgets_default_to_guaranteed() {
        let b = bank();
        assert_eq!(b.budget(RackId::new(0)), Watts::new(100.0));
        assert_eq!(b.budget(RackId::new(1)), Watts::new(120.0));
        assert_eq!(b.spot_grant(RackId::new(0)), Watts::ZERO);
    }

    #[test]
    fn grant_raises_budget() {
        let mut b = bank();
        b.grant_spot(RackId::new(0), Watts::new(40.0)).unwrap();
        assert_eq!(b.budget(RackId::new(0)), Watts::new(140.0));
        assert_eq!(b.spot_grant(RackId::new(0)), Watts::new(40.0));
    }

    #[test]
    fn grant_is_absolute_not_cumulative() {
        let mut b = bank();
        b.grant_spot(RackId::new(0), Watts::new(40.0)).unwrap();
        b.grant_spot(RackId::new(0), Watts::new(10.0)).unwrap();
        assert_eq!(b.budget(RackId::new(0)), Watts::new(110.0));
    }

    #[test]
    fn grant_beyond_physical_limit_is_rejected() {
        let mut b = bank();
        let err = b.grant_spot(RackId::new(0), Watts::new(50.1)).unwrap_err();
        assert!(matches!(err, TopologyError::InvalidCapacity { .. }));
        // Budget unchanged after the failed grant.
        assert_eq!(b.budget(RackId::new(0)), Watts::new(100.0));
    }

    #[test]
    fn grant_at_exact_limit_is_accepted() {
        let mut b = bank();
        b.grant_spot(RackId::new(0), Watts::new(50.0)).unwrap();
        assert_eq!(b.budget(RackId::new(0)), Watts::new(150.0));
    }

    #[test]
    fn negative_grant_rejected() {
        let mut b = bank();
        assert!(b.grant_spot(RackId::new(0), Watts::new(-1.0)).is_err());
    }

    #[test]
    fn unknown_rack_rejected() {
        let mut b = bank();
        assert_eq!(
            b.grant_spot(RackId::new(9), Watts::new(1.0)),
            Err(TopologyError::UnknownRack(RackId::new(9)))
        );
    }

    #[test]
    fn reset_all_covers_every_rack() {
        let mut b = bank();
        b.grant_spot(RackId::new(0), Watts::new(25.0)).unwrap();
        b.grant_spot(RackId::new(1), Watts::new(15.0)).unwrap();
        b.reset_all();
        assert_eq!(b.budget(RackId::new(0)), Watts::new(100.0));
        assert_eq!(b.budget(RackId::new(1)), Watts::new(120.0));
    }

    #[test]
    fn cap_budget_can_cut_below_guaranteed() {
        let mut b = bank();
        let r = RackId::new(0);
        b.grant_spot(r, Watts::new(40.0)).unwrap();
        // Cap above the current budget is a no-op.
        b.cap_budget(r, Watts::new(200.0)).unwrap();
        assert_eq!(b.budget(r), Watts::new(140.0));
        // Cap below guaranteed sticks.
        b.cap_budget(r, Watts::new(80.0)).unwrap();
        assert_eq!(b.budget(r), Watts::new(80.0));
        assert_eq!(b.spot_grant(r), Watts::ZERO);
        // reset_all restores the guarantee next slot.
        b.reset_all();
        assert_eq!(b.budget(r), Watts::new(100.0));
        assert!(b.cap_budget(r, Watts::new(-1.0)).is_err());
        assert!(matches!(
            b.cap_budget(RackId::new(9), Watts::new(1.0)),
            Err(TopologyError::UnknownRack(_))
        ));
    }
}
