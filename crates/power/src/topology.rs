//! The power-delivery tree: UPS → cluster PDUs → racks.
//!
//! A [`PowerTopology`] is an immutable description of the tree built once
//! per scenario. Racks belong to exactly one PDU and one tenant; tenants
//! may own racks on several PDUs (and in the paper's testbed they do
//! not share racks with each other). Each rack records
//!
//! * its **guaranteed capacity** — the power subscription the tenant
//!   leased in advance, and
//! * its **spot headroom** `P^R_r` — how far beyond the subscription the
//!   physical rack PDU can go (rack-level capacity is cheap and
//!   over-provisioned by ≈20 % in practice).

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use spotdc_units::{PduId, RackId, TenantId, Watts};

/// Static description of one rack in the power tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RackSpec {
    id: RackId,
    pdu: PduId,
    tenant: TenantId,
    guaranteed: Watts,
    spot_headroom: Watts,
}

impl RackSpec {
    /// This rack's identifier.
    #[must_use]
    pub fn id(&self) -> RackId {
        self.id
    }

    /// The cluster PDU feeding this rack.
    #[must_use]
    pub fn pdu(&self) -> PduId {
        self.pdu
    }

    /// The tenant owning this rack.
    #[must_use]
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// The guaranteed power capacity the tenant subscribed for this rack.
    #[must_use]
    pub fn guaranteed(&self) -> Watts {
        self.guaranteed
    }

    /// Maximum spot capacity this rack's physical limit can absorb
    /// beyond the guaranteed capacity (`P^R_r` in the paper).
    #[must_use]
    pub fn spot_headroom(&self) -> Watts {
        self.spot_headroom
    }

    /// The physical rack limit: guaranteed capacity plus spot headroom.
    #[must_use]
    pub fn physical_limit(&self) -> Watts {
        self.guaranteed + self.spot_headroom
    }
}

/// An error encountered while building or validating a topology.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TopologyError {
    /// A rack was declared before any PDU existed to attach it to.
    RackWithoutPdu,
    /// A capacity or headroom value was negative or non-finite.
    InvalidCapacity {
        /// Description of the offending quantity.
        what: String,
    },
    /// The topology has no PDUs.
    NoPdus,
    /// A rack identifier was used that does not exist.
    UnknownRack(RackId),
    /// A PDU identifier was used that does not exist.
    UnknownPdu(PduId),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::RackWithoutPdu => {
                write!(f, "rack declared before any pdu; call pdu() first")
            }
            TopologyError::InvalidCapacity { what } => {
                write!(f, "invalid capacity: {what}")
            }
            TopologyError::NoPdus => write!(f, "topology must contain at least one pdu"),
            TopologyError::UnknownRack(r) => write!(f, "unknown rack {r}"),
            TopologyError::UnknownPdu(p) => write!(f, "unknown pdu {p}"),
        }
    }
}

impl Error for TopologyError {}

/// Builder for [`PowerTopology`].
///
/// Racks attach to the most recently declared PDU, mirroring how a
/// scenario description walks the physical layout PDU by PDU.
///
/// # Examples
///
/// ```
/// use spotdc_power::topology::TopologyBuilder;
/// use spotdc_units::{TenantId, Watts};
///
/// let topo = TopologyBuilder::new(Watts::new(1370.0))
///     .pdu(Watts::new(715.0))
///     .rack(TenantId::new(0), Watts::new(145.0), Watts::new(60.0))
///     .pdu(Watts::new(724.0))
///     .rack(TenantId::new(1), Watts::new(125.0), Watts::new(60.0))
///     .build()?;
/// assert_eq!(topo.pdu_count(), 2);
/// # Ok::<(), spotdc_power::TopologyError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    ups_capacity: Watts,
    pdu_capacities: Vec<Watts>,
    racks: Vec<RackSpec>,
}

impl TopologyBuilder {
    /// Starts a topology with the given UPS capacity.
    #[must_use]
    pub fn new(ups_capacity: Watts) -> Self {
        TopologyBuilder {
            ups_capacity,
            pdu_capacities: Vec::new(),
            racks: Vec::new(),
        }
    }

    /// Adds a cluster PDU with the given IT power capacity. Subsequent
    /// [`rack`](Self::rack) calls attach to this PDU.
    #[must_use]
    pub fn pdu(mut self, capacity: Watts) -> Self {
        self.pdu_capacities.push(capacity);
        self
    }

    /// Adds a rack owned by `tenant` to the most recently added PDU.
    ///
    /// `guaranteed` is the tenant's subscribed capacity for the rack and
    /// `spot_headroom` the additional power the physical rack limit can
    /// absorb (`P^R_r`).
    #[must_use]
    pub fn rack(mut self, tenant: TenantId, guaranteed: Watts, spot_headroom: Watts) -> Self {
        let pdu = PduId::new(self.pdu_capacities.len().saturating_sub(1));
        let id = RackId::new(self.racks.len());
        self.racks.push(RackSpec {
            id,
            pdu,
            tenant,
            guaranteed,
            spot_headroom,
        });
        self
    }

    /// Finalizes the topology.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError`] if no PDU was declared, a rack was
    /// declared before the first PDU, or any capacity is negative or
    /// non-finite.
    pub fn build(self) -> Result<PowerTopology, TopologyError> {
        if self.pdu_capacities.is_empty() {
            return Err(if self.racks.is_empty() {
                TopologyError::NoPdus
            } else {
                TopologyError::RackWithoutPdu
            });
        }
        let check = |w: Watts, what: &str| -> Result<(), TopologyError> {
            if !w.is_finite() || w.is_negative() {
                Err(TopologyError::InvalidCapacity { what: what.into() })
            } else {
                Ok(())
            }
        };
        check(self.ups_capacity, "ups capacity")?;
        for (i, &c) in self.pdu_capacities.iter().enumerate() {
            check(c, &format!("pdu-{i} capacity"))?;
        }
        for r in &self.racks {
            check(r.guaranteed, &format!("{} guaranteed capacity", r.id))?;
            check(r.spot_headroom, &format!("{} spot headroom", r.id))?;
        }

        let mut racks_by_pdu = vec![Vec::new(); self.pdu_capacities.len()];
        let mut racks_by_tenant: BTreeMap<TenantId, Vec<RackId>> = BTreeMap::new();
        for r in &self.racks {
            racks_by_pdu[r.pdu.index()].push(r.id);
            racks_by_tenant.entry(r.tenant).or_default().push(r.id);
        }
        Ok(PowerTopology {
            ups_capacity: self.ups_capacity,
            tables: Arc::new(Tables {
                pdu_capacities: self.pdu_capacities,
                racks: self.racks,
                racks_by_pdu,
                racks_by_tenant,
            }),
        })
    }
}

/// An immutable power-delivery tree: one UPS feeding cluster PDUs, each
/// feeding racks owned by tenants.
///
/// See the [crate docs](crate) for the role this plays in SpotDC.
///
/// Clones share the tables: a simulation's scenario, state and operator
/// each hold a topology, and at 15 000 racks a copy would be megabytes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerTopology {
    ups_capacity: Watts,
    tables: Arc<Tables>,
}

/// A topology's PDU and rack tables, immutable once built.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Tables {
    pdu_capacities: Vec<Watts>,
    racks: Vec<RackSpec>,
    racks_by_pdu: Vec<Vec<RackId>>,
    racks_by_tenant: BTreeMap<TenantId, Vec<RackId>>,
}

impl PowerTopology {
    /// The UPS capacity (the root constraint `P_o` is derived from it).
    #[must_use]
    pub fn ups_capacity(&self) -> Watts {
        self.ups_capacity
    }

    /// Number of cluster PDUs.
    #[must_use]
    pub fn pdu_count(&self) -> usize {
        self.tables.pdu_capacities.len()
    }

    /// Number of racks.
    #[must_use]
    pub fn rack_count(&self) -> usize {
        self.tables.racks.len()
    }

    /// Number of distinct tenants owning at least one rack.
    #[must_use]
    pub fn tenant_count(&self) -> usize {
        self.tables.racks_by_tenant.len()
    }

    /// Capacity of a PDU.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnknownPdu`] for an out-of-range id.
    pub fn pdu_capacity(&self, pdu: PduId) -> Result<Watts, TopologyError> {
        self.tables
            .pdu_capacities
            .get(pdu.index())
            .copied()
            .ok_or(TopologyError::UnknownPdu(pdu))
    }

    /// The rack spec for `rack`.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnknownRack`] for an out-of-range id.
    pub fn rack(&self, rack: RackId) -> Result<&RackSpec, TopologyError> {
        self.tables
            .racks
            .get(rack.index())
            .ok_or(TopologyError::UnknownRack(rack))
    }

    /// Iterates over all racks in id order.
    pub fn racks(&self) -> impl Iterator<Item = &RackSpec> {
        self.tables.racks.iter()
    }

    /// Iterates over all PDU ids.
    pub fn pdus(&self) -> impl Iterator<Item = PduId> {
        (0..self.tables.pdu_capacities.len()).map(PduId::new)
    }

    /// The racks fed by `pdu` (empty for unknown ids).
    #[must_use]
    pub fn racks_on_pdu(&self, pdu: PduId) -> &[RackId] {
        self.tables
            .racks_by_pdu
            .get(pdu.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Iterates over tenants in id order.
    pub fn tenants(&self) -> impl Iterator<Item = TenantId> + '_ {
        self.tables.racks_by_tenant.keys().copied()
    }

    /// Total guaranteed capacity subscribed on `pdu`.
    #[must_use]
    pub fn leased_on_pdu(&self, pdu: PduId) -> Watts {
        self.racks_on_pdu(pdu)
            .iter()
            .map(|&r| self.tables.racks[r.index()].guaranteed)
            .sum()
    }

    /// Total guaranteed capacity subscribed across the whole tree.
    #[must_use]
    pub fn total_leased(&self) -> Watts {
        self.tables.racks.iter().map(|r| r.guaranteed).sum()
    }

    /// The oversubscription ratio at `pdu`: leased ÷ capacity. Values
    /// above 1 mean the PDU is oversubscribed.
    #[must_use]
    pub fn pdu_oversubscription(&self, pdu: PduId) -> f64 {
        let cap = self
            .tables
            .pdu_capacities
            .get(pdu.index())
            .copied()
            .unwrap_or(Watts::ZERO);
        self.leased_on_pdu(pdu).fraction_of(cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn testbed() -> PowerTopology {
        // PDU#1 of the paper's Table I, scaled exactly.
        TopologyBuilder::new(Watts::new(1370.0))
            .pdu(Watts::new(715.0))
            .rack(TenantId::new(0), Watts::new(145.0), Watts::new(72.5)) // Search-1
            .rack(TenantId::new(1), Watts::new(115.0), Watts::new(57.5)) // Web
            .rack(TenantId::new(2), Watts::new(125.0), Watts::new(62.5)) // Count-1
            .rack(TenantId::new(3), Watts::new(115.0), Watts::new(57.5)) // Graph-1
            .rack(TenantId::new(4), Watts::new(250.0), Watts::ZERO) // Other
            .pdu(Watts::new(724.0))
            .rack(TenantId::new(5), Watts::new(145.0), Watts::new(72.5)) // Search-2
            .build()
            .unwrap()
    }

    #[test]
    fn builder_assigns_dense_ids_in_order() {
        let t = testbed();
        assert_eq!(t.rack_count(), 6);
        assert_eq!(t.pdu_count(), 2);
        let r0 = t.rack(RackId::new(0)).unwrap();
        assert_eq!(r0.pdu(), PduId::new(0));
        assert_eq!(r0.tenant(), TenantId::new(0));
        let r5 = t.rack(RackId::new(5)).unwrap();
        assert_eq!(r5.pdu(), PduId::new(1));
    }

    #[test]
    fn membership_queries() {
        let t = testbed();
        assert_eq!(t.racks_on_pdu(PduId::new(0)).len(), 5);
        assert_eq!(t.racks_on_pdu(PduId::new(1)).len(), 1);
        assert_eq!(t.tenant_count(), 6);
    }

    #[test]
    fn leased_sums_match_table() {
        let t = testbed();
        assert_eq!(t.leased_on_pdu(PduId::new(0)), Watts::new(750.0));
        assert_eq!(t.leased_on_pdu(PduId::new(1)), Watts::new(145.0));
        assert_eq!(t.total_leased(), Watts::new(895.0));
    }

    #[test]
    fn oversubscription_ratio() {
        let t = testbed();
        // 750 leased over 715 capacity ≈ 1.049 (the paper's 5%).
        let ratio = t.pdu_oversubscription(PduId::new(0));
        assert!((ratio - 750.0 / 715.0).abs() < 1e-12);
    }

    #[test]
    fn physical_limit_is_guaranteed_plus_headroom() {
        let t = testbed();
        let r = t.rack(RackId::new(0)).unwrap();
        assert_eq!(r.physical_limit(), Watts::new(217.5));
    }

    #[test]
    fn clones_share_the_rack_tables() {
        let t = testbed();
        let copy = t.clone();
        assert_eq!(copy, t);
        assert!(std::ptr::eq(
            t.racks().next().unwrap(),
            copy.racks().next().unwrap()
        ));
    }

    #[test]
    fn rack_before_pdu_is_rejected() {
        let err = TopologyBuilder::new(Watts::new(100.0))
            .rack(TenantId::new(0), Watts::new(10.0), Watts::ZERO)
            .build()
            .unwrap_err();
        assert_eq!(err, TopologyError::RackWithoutPdu);
    }

    #[test]
    fn empty_topology_is_rejected() {
        let err = TopologyBuilder::new(Watts::new(100.0)).build().unwrap_err();
        assert_eq!(err, TopologyError::NoPdus);
    }

    #[test]
    fn negative_capacity_is_rejected() {
        let err = TopologyBuilder::new(Watts::new(100.0))
            .pdu(Watts::new(-5.0))
            .build()
            .unwrap_err();
        assert!(matches!(err, TopologyError::InvalidCapacity { .. }));
    }

    #[test]
    fn unknown_ids_error() {
        let t = testbed();
        assert!(t.rack(RackId::new(100)).is_err());
        assert!(t.pdu_capacity(PduId::new(100)).is_err());
        assert!(t.racks_on_pdu(PduId::new(100)).is_empty());
    }

    #[test]
    fn error_display_is_lowercase() {
        assert_eq!(
            TopologyError::UnknownRack(RackId::new(7)).to_string(),
            "unknown rack rack-7"
        );
    }
}
