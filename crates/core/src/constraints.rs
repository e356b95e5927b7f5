//! Multi-level spot-capacity constraints (Eqns. 2–4 of the paper).
//!
//! A spot allocation must fit simultaneously under three layers of
//! physical limits:
//!
//! * **Rack** (Eq. 2): a rack's grant cannot exceed its physical
//!   headroom `P^R_r` above the guaranteed capacity;
//! * **PDU** (Eq. 3): the grants of all racks on PDU `m` cannot exceed
//!   the predicted spot capacity `P_m(t)` at that PDU;
//! * **UPS** (Eq. 4): all grants together cannot exceed the predicted
//!   spot capacity `P_o(t)` at the UPS.
//!
//! Two further practical constraints the paper mentions (Section III-A,
//! "following the model in \[9\]") are supported as opt-ins:
//!
//! * **heat density** ([`ConstraintSet::with_zone`]): the total extra
//!   power granted within a cooling zone is bounded;
//! * **phase balance** ([`ConstraintSet::with_phases`]): in a
//!   three-phase PDU, the spot grants assigned to the three phases must
//!   not diverge by more than a bound.
//!
//! [`ConstraintSet`] freezes one slot's limits and answers feasibility
//! queries for the clearing search and allocators.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use spotdc_units::{PduId, RackId, Watts};

use spotdc_power::PowerTopology;

/// Slack tolerance (watts) for floating-point feasibility checks.
/// Shared with the columnar clearing sweep, whose per-PDU/UPS checks
/// must compare bit-for-bit like [`ConstraintSet::feasible_total`].
pub(crate) const TOLERANCE: f64 = 1e-6;

/// One `(rack, grant)` pair in any of the forms rack-ordered grants
/// iterate as: by value, borrowed from a slice such as
/// [`SpotAllocation::grants`](crate::SpotAllocation::grants), or
/// borrowed from a `BTreeMap<RackId, Watts>`.
pub trait RackGrant {
    /// The pair by value.
    fn rack_grant(self) -> (RackId, Watts);
}

impl RackGrant for (RackId, Watts) {
    fn rack_grant(self) -> (RackId, Watts) {
        self
    }
}

impl RackGrant for &(RackId, Watts) {
    fn rack_grant(self) -> (RackId, Watts) {
        *self
    }
}

impl RackGrant for (&RackId, &Watts) {
    fn rack_grant(self) -> (RackId, Watts) {
        (*self.0, *self.1)
    }
}

/// One slot's frozen spot-capacity limits at every level.
///
/// # Examples
///
/// ```
/// use spotdc_core::ConstraintSet;
/// use spotdc_power::topology::TopologyBuilder;
/// use spotdc_units::{RackId, TenantId, Watts};
///
/// let topo = TopologyBuilder::new(Watts::new(300.0))
///     .pdu(Watts::new(200.0))
///     .rack(TenantId::new(0), Watts::new(100.0), Watts::new(50.0))
///     .build()?;
/// let cs = ConstraintSet::new(&topo, vec![Watts::new(40.0)], Watts::new(40.0));
/// // Rack headroom is 50 W but the PDU only has 40 W spare:
/// assert_eq!(cs.rack_headroom(RackId::new(0)), Watts::new(50.0));
/// assert!(cs.is_feasible([(RackId::new(0), Watts::new(40.0))]));
/// assert!(!cs.is_feasible([(RackId::new(0), Watts::new(45.0))]));
/// # Ok::<(), spotdc_power::TopologyError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConstraintSet {
    rack_headroom: Vec<Watts>,
    rack_pdu: Vec<PduId>,
    pdu_spot: Vec<Watts>,
    ups_spot: Watts,
    /// Heat-density zones: named rack groups whose total grants are
    /// bounded.
    zones: Vec<HeatZone>,
    /// Optional three-phase assignment per rack (values 0–2) with the
    /// per-PDU imbalance bound.
    phases: Option<PhasePlan>,
}

/// A cooling zone: a set of racks whose *additional* (spot) power is
/// jointly limited to keep the local heat density manageable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HeatZone {
    /// Human-readable zone name (e.g. a row or containment aisle).
    pub name: String,
    /// Member racks.
    pub racks: Vec<RackId>,
    /// Maximum total spot capacity grantable inside the zone.
    pub limit: Watts,
}

/// Three-phase assignment of racks with an imbalance bound: within each
/// PDU, the per-phase sums of spot grants must not differ by more than
/// `imbalance_limit`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhasePlan {
    /// Phase (0, 1 or 2) of each rack, indexed by rack id.
    pub phase_of: Vec<u8>,
    /// Maximum allowed max-minus-min spread between phase sums, per PDU.
    pub imbalance_limit: Watts,
}

impl ConstraintSet {
    /// Builds the constraint set for one slot from the static topology
    /// plus the slot's predicted spot capacities (`pdu_spot` indexed by
    /// PDU id; missing entries read as zero; negatives clamp to zero).
    #[must_use]
    pub fn new(topology: &PowerTopology, pdu_spot: Vec<Watts>, ups_spot: Watts) -> Self {
        let mut spot: Vec<Watts> = pdu_spot
            .into_iter()
            .map(Watts::clamp_non_negative)
            .collect();
        spot.resize(topology.pdu_count(), Watts::ZERO);
        ConstraintSet {
            rack_headroom: topology.racks().map(|r| r.spot_headroom()).collect(),
            rack_pdu: topology.racks().map(|r| r.pdu()).collect(),
            pdu_spot: spot,
            ups_spot: ups_spot.clamp_non_negative(),
            zones: Vec::new(),
            phases: None,
        }
    }

    /// Adds a heat-density zone: the racks' total spot grants must
    /// stay within `limit`.
    #[must_use]
    pub fn with_zone(mut self, name: impl Into<String>, racks: Vec<RackId>, limit: Watts) -> Self {
        self.zones.push(HeatZone {
            name: name.into(),
            racks,
            limit: limit.clamp_non_negative(),
        });
        self
    }

    /// Attaches a three-phase plan: rack `r` is on phase
    /// `phase_of[r] % 3`, and within each PDU the per-phase grant sums
    /// must not differ by more than `imbalance_limit`.
    ///
    /// # Panics
    ///
    /// Panics if `phase_of` does not cover every rack.
    #[must_use]
    pub fn with_phases(mut self, phase_of: Vec<u8>, imbalance_limit: Watts) -> Self {
        assert!(
            phase_of.len() >= self.rack_headroom.len(),
            "phase assignment must cover every rack"
        );
        self.phases = Some(PhasePlan {
            phase_of,
            imbalance_limit: imbalance_limit.clamp_non_negative(),
        });
        self
    }

    /// Returns a copy with the UPS-level spot capacity replaced — used
    /// by per-PDU clearing to hand each PDU its apportioned share.
    #[must_use]
    pub fn with_ups_spot(mut self, ups_spot: Watts) -> Self {
        self.ups_spot = ups_spot.clamp_non_negative();
        self
    }

    /// Replaces the UPS-level spot capacity in place, with exactly the
    /// clamp [`Self::with_ups_spot`] applies. A task walk uses this to
    /// re-point one constraint set at each task's UPS share instead of
    /// cloning the whole set per task.
    pub fn set_ups_spot(&mut self, ups_spot: Watts) {
        self.ups_spot = ups_spot.clamp_non_negative();
    }

    /// The heat-density zones in force.
    #[must_use]
    pub fn zones(&self) -> &[HeatZone] {
        &self.zones
    }

    /// The three-phase plan in force, if any.
    #[must_use]
    pub fn phases(&self) -> Option<&PhasePlan> {
        self.phases.as_ref()
    }

    /// Checks the zone and phase constraints for a grant lookup
    /// closure; `Ok(())` when both hold.
    fn check_extras(&self, grant_of: &dyn Fn(RackId) -> Watts) -> Result<(), ConstraintViolation> {
        for zone in &self.zones {
            let used: Watts = zone.racks.iter().map(|&r| grant_of(r)).sum();
            if used > zone.limit + Watts::new(TOLERANCE) {
                return Err(ConstraintViolation::Zone {
                    zone: zone.name.clone(),
                    used,
                    limit: zone.limit,
                });
            }
        }
        if let Some(plan) = &self.phases {
            for pdu_index in 0..self.pdu_spot.len() {
                let mut by_phase = [Watts::ZERO; 3];
                for (i, &pdu) in self.rack_pdu.iter().enumerate() {
                    if pdu.index() == pdu_index {
                        let phase = usize::from(plan.phase_of[i]) % 3;
                        by_phase[phase] += grant_of(RackId::new(i));
                    }
                }
                let max = by_phase.iter().copied().fold(Watts::ZERO, Watts::max);
                let min = by_phase
                    .iter()
                    .copied()
                    .fold(Watts::new(f64::INFINITY), Watts::min);
                if max - min > plan.imbalance_limit + Watts::new(TOLERANCE) {
                    return Err(ConstraintViolation::PhaseImbalance {
                        pdu: PduId::new(pdu_index),
                        spread: max - min,
                        limit: plan.imbalance_limit,
                    });
                }
            }
        }
        Ok(())
    }

    /// Number of racks covered.
    #[must_use]
    pub fn rack_count(&self) -> usize {
        self.rack_headroom.len()
    }

    /// The rack-level headroom `P^R_r` (zero for unknown racks).
    #[must_use]
    pub fn rack_headroom(&self, rack: RackId) -> Watts {
        self.rack_headroom
            .get(rack.index())
            .copied()
            .unwrap_or(Watts::ZERO)
    }

    /// The PDU feeding `rack`, if known.
    #[must_use]
    pub fn pdu_of(&self, rack: RackId) -> Option<PduId> {
        self.rack_pdu.get(rack.index()).copied()
    }

    /// The predicted spot capacity at `pdu` (zero for unknown PDUs).
    #[must_use]
    pub fn pdu_spot(&self, pdu: PduId) -> Watts {
        self.pdu_spot
            .get(pdu.index())
            .copied()
            .unwrap_or(Watts::ZERO)
    }

    /// The predicted spot capacity at the UPS.
    #[must_use]
    pub fn ups_spot(&self) -> Watts {
        self.ups_spot
    }

    /// Checks per-rack grants — rack-ordered pairs, such as a
    /// `&BTreeMap<RackId, Watts>` or [`SpotAllocation::grants`] —
    /// against all three constraint levels. Returns the first violation
    /// found, or `Ok(())`.
    ///
    /// [`SpotAllocation::grants`]: crate::SpotAllocation::grants
    ///
    /// # Errors
    ///
    /// Returns [`ConstraintViolation`] naming the violated level.
    pub fn check(
        &self,
        grants: impl IntoIterator<Item = impl RackGrant>,
    ) -> Result<(), ConstraintViolation> {
        let mut per_pdu = vec![Watts::ZERO; self.pdu_spot.len()];
        let mut total = Watts::ZERO;
        // Zones and phases look grants up by rack once the levels pass.
        let has_extras = !self.zones.is_empty() || self.phases.is_some();
        let mut by_rack = vec![Watts::ZERO; if has_extras { self.rack_pdu.len() } else { 0 }];
        for pair in grants {
            let (rack, grant) = pair.rack_grant();
            if grant.is_negative() {
                return Err(ConstraintViolation::Rack {
                    rack,
                    grant,
                    limit: Watts::ZERO,
                });
            }
            let headroom = self.rack_headroom(rack);
            if grant > headroom + Watts::new(TOLERANCE) {
                return Err(ConstraintViolation::Rack {
                    rack,
                    grant,
                    limit: headroom,
                });
            }
            let pdu = self.pdu_of(rack).ok_or(ConstraintViolation::Rack {
                rack,
                grant,
                limit: Watts::ZERO,
            })?;
            per_pdu[pdu.index()] += grant;
            total += grant;
            if has_extras {
                by_rack[rack.index()] = grant;
            }
        }
        for (i, &used) in per_pdu.iter().enumerate() {
            if used > self.pdu_spot[i] + Watts::new(TOLERANCE) {
                return Err(ConstraintViolation::Pdu {
                    pdu: PduId::new(i),
                    used,
                    limit: self.pdu_spot[i],
                });
            }
        }
        if total > self.ups_spot + Watts::new(TOLERANCE) {
            return Err(ConstraintViolation::Ups {
                used: total,
                limit: self.ups_spot,
            });
        }
        self.check_extras(&|rack| by_rack.get(rack.index()).copied().unwrap_or(Watts::ZERO))
    }

    /// Whether the given per-rack grants (rack-ordered pairs, as
    /// [`Self::check`] takes them) are simultaneously feasible.
    #[must_use]
    pub fn is_feasible(&self, grants: impl IntoIterator<Item = impl RackGrant>) -> bool {
        self.check(grants).is_ok()
    }

    /// Feasibility of per-rack demands supplied as `(rack, demand)`
    /// pairs *after* clipping each to its rack headroom — the form the
    /// clearing loop uses. Returns the clipped total if feasible.
    #[must_use]
    pub fn feasible_total(
        &self,
        demands: impl IntoIterator<Item = (RackId, Watts)>,
    ) -> Option<Watts> {
        let mut per_pdu = vec![Watts::ZERO; self.pdu_spot.len()];
        let mut total = Watts::ZERO;
        let has_extras = !self.zones.is_empty() || self.phases.is_some();
        let mut clipped_by_rack: BTreeMap<RackId, Watts> = BTreeMap::new();
        for (rack, demand) in demands {
            let clipped = demand.min(self.rack_headroom(rack)).clamp_non_negative();
            let pdu = self.pdu_of(rack)?;
            per_pdu[pdu.index()] += clipped;
            total += clipped;
            if has_extras {
                *clipped_by_rack.entry(rack).or_insert(Watts::ZERO) += clipped;
            }
        }
        for (i, &used) in per_pdu.iter().enumerate() {
            if used > self.pdu_spot[i] + Watts::new(TOLERANCE) {
                return None;
            }
        }
        if total > self.ups_spot + Watts::new(TOLERANCE) {
            return None;
        }
        if has_extras
            && self
                .check_extras(&|rack| clipped_by_rack.get(&rack).copied().unwrap_or(Watts::ZERO))
                .is_err()
        {
            return None;
        }
        Some(total)
    }
}

impl spotdc_durable::Persist for ConstraintSet {
    fn persist(&self, enc: &mut spotdc_durable::Encoder) {
        enc.put_usize(self.rack_headroom.len());
        for w in &self.rack_headroom {
            enc.put_f64(w.value());
        }
        enc.put_usize(self.rack_pdu.len());
        for p in &self.rack_pdu {
            enc.put_usize(p.index());
        }
        enc.put_usize(self.pdu_spot.len());
        for w in &self.pdu_spot {
            enc.put_f64(w.value());
        }
        enc.put_f64(self.ups_spot.value());
        enc.put_usize(self.zones.len());
        for zone in &self.zones {
            enc.put_str(&zone.name);
            enc.put_usize(zone.racks.len());
            for r in &zone.racks {
                enc.put_usize(r.index());
            }
            enc.put_f64(zone.limit.value());
        }
        match &self.phases {
            None => enc.put_u8(0),
            Some(plan) => {
                enc.put_u8(1);
                enc.put_usize(plan.phase_of.len());
                for &p in &plan.phase_of {
                    enc.put_u8(p);
                }
                enc.put_f64(plan.imbalance_limit.value());
            }
        }
    }

    fn restore(dec: &mut spotdc_durable::Decoder<'_>) -> Result<Self, spotdc_durable::DecodeError> {
        use spotdc_durable::DecodeError;
        fn bounded(dec: &mut spotdc_durable::Decoder<'_>) -> Result<usize, DecodeError> {
            let n = dec.get_usize()?;
            if n > dec.remaining() {
                return Err(DecodeError::BadLength(n as u64));
            }
            Ok(n)
        }
        let n = bounded(dec)?;
        let mut rack_headroom = Vec::with_capacity(n);
        for _ in 0..n {
            rack_headroom.push(Watts::new(dec.get_f64()?));
        }
        let n = bounded(dec)?;
        let mut rack_pdu = Vec::with_capacity(n);
        for _ in 0..n {
            rack_pdu.push(PduId::new(dec.get_usize()?));
        }
        let n = bounded(dec)?;
        let mut pdu_spot = Vec::with_capacity(n);
        for _ in 0..n {
            pdu_spot.push(Watts::new(dec.get_f64()?));
        }
        let ups_spot = Watts::new(dec.get_f64()?);
        let n = bounded(dec)?;
        let mut zones = Vec::with_capacity(n);
        for _ in 0..n {
            let name = dec.get_str()?.to_owned();
            let racks_len = bounded(dec)?;
            let mut racks = Vec::with_capacity(racks_len);
            for _ in 0..racks_len {
                racks.push(RackId::new(dec.get_usize()?));
            }
            let limit = Watts::new(dec.get_f64()?);
            zones.push(HeatZone { name, racks, limit });
        }
        let phases = match dec.get_u8()? {
            0 => None,
            1 => {
                let phase_len = bounded(dec)?;
                let mut phase_of = Vec::with_capacity(phase_len);
                for _ in 0..phase_len {
                    phase_of.push(dec.get_u8()?);
                }
                let imbalance_limit = Watts::new(dec.get_f64()?);
                Some(PhasePlan {
                    phase_of,
                    imbalance_limit,
                })
            }
            b => return Err(DecodeError::BadOptionTag(b)),
        };
        Ok(ConstraintSet {
            rack_headroom,
            rack_pdu,
            pdu_spot,
            ups_spot,
            zones,
            phases,
        })
    }
}

/// A violated capacity constraint.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ConstraintViolation {
    /// A rack grant exceeded its headroom (Eq. 2) or was negative.
    Rack {
        /// The offending rack.
        rack: RackId,
        /// The grant requested.
        grant: Watts,
        /// The rack's headroom.
        limit: Watts,
    },
    /// A PDU's aggregate grants exceeded its spot capacity (Eq. 3).
    Pdu {
        /// The overloaded PDU.
        pdu: PduId,
        /// The aggregate grants on it.
        used: Watts,
        /// Its spot capacity.
        limit: Watts,
    },
    /// The total grants exceeded the UPS spot capacity (Eq. 4).
    Ups {
        /// The aggregate grants.
        used: Watts,
        /// The UPS spot capacity.
        limit: Watts,
    },
    /// A heat-density zone's grant budget was exceeded.
    Zone {
        /// Zone name.
        zone: String,
        /// The aggregate grants inside the zone.
        used: Watts,
        /// The zone limit.
        limit: Watts,
    },
    /// A PDU's three-phase grant spread exceeded the imbalance bound.
    PhaseImbalance {
        /// The unbalanced PDU.
        pdu: PduId,
        /// The max-minus-min spread across phases.
        spread: Watts,
        /// The allowed spread.
        limit: Watts,
    },
}

impl std::fmt::Display for ConstraintViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConstraintViolation::Rack { rack, grant, limit } => {
                write!(f, "{rack} grant {grant} exceeds headroom {limit}")
            }
            ConstraintViolation::Pdu { pdu, used, limit } => {
                write!(f, "{pdu} grants {used} exceed spot capacity {limit}")
            }
            ConstraintViolation::Ups { used, limit } => {
                write!(f, "total grants {used} exceed ups spot capacity {limit}")
            }
            ConstraintViolation::Zone { zone, used, limit } => {
                write!(f, "zone {zone} grants {used} exceed heat budget {limit}")
            }
            ConstraintViolation::PhaseImbalance { pdu, spread, limit } => {
                write!(
                    f,
                    "{pdu} phase spread {spread} exceeds imbalance limit {limit}"
                )
            }
        }
    }
}

impl std::error::Error for ConstraintViolation {}

#[cfg(test)]
mod tests {
    use super::*;
    use spotdc_power::topology::TopologyBuilder;
    use spotdc_units::TenantId;

    fn constraints() -> ConstraintSet {
        let topo = TopologyBuilder::new(Watts::new(400.0))
            .pdu(Watts::new(200.0))
            .rack(TenantId::new(0), Watts::new(100.0), Watts::new(50.0))
            .rack(TenantId::new(1), Watts::new(80.0), Watts::new(40.0))
            .pdu(Watts::new(200.0))
            .rack(TenantId::new(2), Watts::new(90.0), Watts::new(45.0))
            .build()
            .unwrap();
        // PDU#0 has 60 W of spot, PDU#1 has 30 W, UPS 70 W total.
        ConstraintSet::new(
            &topo,
            vec![Watts::new(60.0), Watts::new(30.0)],
            Watts::new(70.0),
        )
    }

    fn grants(list: &[(usize, f64)]) -> BTreeMap<RackId, Watts> {
        list.iter()
            .map(|&(r, w)| (RackId::new(r), Watts::new(w)))
            .collect()
    }

    #[test]
    fn feasible_allocation_passes() {
        let cs = constraints();
        assert!(cs.is_feasible(grants(&[(0, 30.0), (1, 20.0), (2, 20.0)])));
    }

    #[test]
    fn rack_headroom_violation_detected() {
        let cs = constraints();
        let err = cs.check(grants(&[(0, 51.0)])).unwrap_err();
        assert!(matches!(err, ConstraintViolation::Rack { .. }));
    }

    #[test]
    fn pdu_violation_detected() {
        let cs = constraints();
        // Each rack within headroom, sum 65 > 60 at PDU#0.
        let err = cs.check(grants(&[(0, 40.0), (1, 25.0)])).unwrap_err();
        assert!(matches!(err, ConstraintViolation::Pdu { pdu, .. } if pdu == PduId::new(0)));
    }

    #[test]
    fn ups_violation_detected() {
        let cs = constraints();
        // Fits each PDU (55 ≤ 60, 30 ≤ 30) but 85 > 70 at the UPS.
        let err = cs
            .check(grants(&[(0, 35.0), (1, 20.0), (2, 30.0)]))
            .unwrap_err();
        assert!(matches!(err, ConstraintViolation::Ups { .. }));
    }

    #[test]
    fn negative_grant_rejected() {
        let cs = constraints();
        assert!(cs.check(grants(&[(0, -1.0)])).is_err());
    }

    #[test]
    fn feasible_total_clips_to_headroom() {
        let cs = constraints();
        // Rack 0 asks 80 but is clipped to 50; 50 ≤ 60 at PDU, ≤ 70 UPS.
        let total = cs
            .feasible_total(vec![(RackId::new(0), Watts::new(80.0))])
            .unwrap();
        assert_eq!(total, Watts::new(50.0));
    }

    #[test]
    fn feasible_total_none_on_pdu_overflow() {
        let cs = constraints();
        let r = cs.feasible_total(vec![
            (RackId::new(0), Watts::new(45.0)),
            (RackId::new(1), Watts::new(25.0)),
        ]);
        assert!(r.is_none());
    }

    #[test]
    fn negative_inputs_clamped_in_construction() {
        let topo = TopologyBuilder::new(Watts::new(100.0))
            .pdu(Watts::new(100.0))
            .rack(TenantId::new(0), Watts::new(50.0), Watts::new(10.0))
            .build()
            .unwrap();
        let cs = ConstraintSet::new(&topo, vec![Watts::new(-5.0)], Watts::new(-3.0));
        assert_eq!(cs.pdu_spot(PduId::new(0)), Watts::ZERO);
        assert_eq!(cs.ups_spot(), Watts::ZERO);
    }

    #[test]
    fn heat_zone_binds_across_pdus() {
        // Racks 0 (PDU#0) and 2 (PDU#1) share a hot aisle.
        let cs = constraints().with_zone(
            "aisle-3",
            vec![RackId::new(0), RackId::new(2)],
            Watts::new(40.0),
        );
        assert!(cs.is_feasible(grants(&[(0, 20.0), (2, 20.0)])));
        let err = cs.check(grants(&[(0, 25.0), (2, 20.0)])).unwrap_err();
        assert!(matches!(err, ConstraintViolation::Zone { .. }));
        // feasible_total honours the same bound.
        assert!(cs
            .feasible_total(vec![
                (RackId::new(0), Watts::new(25.0)),
                (RackId::new(2), Watts::new(20.0)),
            ])
            .is_none());
    }

    #[test]
    fn phase_imbalance_detected_per_pdu() {
        // Racks 0 and 1 share PDU#0 on phases 0 and 1 (phase 2 empty,
        // so it anchors the spread); a lopsided grant violates a 25 W
        // imbalance bound.
        let cs = constraints().with_phases(vec![0, 1, 2], Watts::new(25.0));
        assert!(cs.is_feasible(grants(&[(0, 20.0), (1, 15.0)])));
        let err = cs.check(grants(&[(0, 30.0), (1, 5.0)])).unwrap_err();
        assert!(matches!(err, ConstraintViolation::PhaseImbalance { .. }));
    }

    #[test]
    fn phase_balance_counts_only_same_pdu_racks() {
        // Rack 2 is on PDU#1: its grant must not affect PDU#0's balance.
        let cs = constraints().with_phases(vec![0, 0, 1], Watts::new(25.0));
        // Phase 0 on PDU#0 carries 40 W, phases 1/2 zero => spread 40 > 25.
        assert!(!cs.is_feasible(grants(&[(0, 20.0), (1, 20.0)])));
        // But rack 2 alone on PDU#1 (phase 1, spread 20 vs empty phases)
        // stays within the 25 W bound.
        assert!(cs.is_feasible(grants(&[(2, 20.0)])));
    }

    #[test]
    fn zone_and_phase_violations_display() {
        let z = ConstraintViolation::Zone {
            zone: "row-9".into(),
            used: Watts::new(50.0),
            limit: Watts::new(40.0),
        };
        assert_eq!(
            z.to_string(),
            "zone row-9 grants 50 W exceed heat budget 40 W"
        );
        let p = ConstraintViolation::PhaseImbalance {
            pdu: PduId::new(1),
            spread: Watts::new(30.0),
            limit: Watts::new(10.0),
        };
        assert!(p.to_string().contains("pdu-1"));
    }

    #[test]
    fn violation_display() {
        let v = ConstraintViolation::Ups {
            used: Watts::new(10.0),
            limit: Watts::new(5.0),
        };
        assert_eq!(
            v.to_string(),
            "total grants 10 W exceed ups spot capacity 5 W"
        );
    }
}
