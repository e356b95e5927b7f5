//! Emergency power capping: the response half of emergency handling.
//!
//! [`EmergencyLog`](crate::EmergencyLog) only *detects* overloads; the
//! paper defers sustained capping to its companion COOP market. The
//! [`CapController`] closes the loop for the simulation: every slot it
//! projects each shared capacity (PDU and UPS) against the previous
//! slot's base (non-spot) load and trims the spot grants that would not
//! fit — **spot before guaranteed**. Only while a level is in emergency
//! hold (an overload was actually observed) and its base load alone
//! exceeds the capacity does the controller touch guaranteed budgets,
//! scaling them proportionally like a conventional power capper.
//!
//! Hysteresis: once an overload fires at a level, the controller holds
//! that level closed to spot for at least `hold_slots` slots and until
//! its base load drops below `capacity · (1 − release)`, so a load
//! hovering at the boundary cannot flap spot capacity on and off every
//! slot.

use spotdc_units::{PduId, RackId, Slot, Watts};

use crate::emergency::{EmergencyEvent, EmergencyLevel};
use crate::rack_pdu::RackPduBank;
use crate::topology::PowerTopology;

/// Configuration for the [`CapController`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapConfig {
    /// Whether the controller runs at all.
    pub enabled: bool,
    /// Safety margin applied when projecting spot room against each
    /// capacity: spot may fill up to `capacity · (1 − margin)` minus
    /// the base load.
    pub margin: f64,
    /// Hysteresis release threshold: a held level reopens to spot only
    /// once its base load is below `capacity · (1 − release)`.
    pub release: f64,
    /// Minimum number of slots a level stays held after an overload.
    pub hold_slots: u64,
}

impl CapConfig {
    /// Controller off (the engine default — no behaviour change).
    #[must_use]
    pub fn disabled() -> Self {
        CapConfig {
            enabled: false,
            margin: 0.0,
            release: 0.0,
            hold_slots: 0,
        }
    }

    /// The defaults the `robustness` experiment uses: a 2 % projection
    /// margin, 5 % release threshold, three-slot hold.
    #[must_use]
    pub fn paper_default() -> Self {
        CapConfig {
            enabled: true,
            margin: 0.02,
            release: 0.05,
            hold_slots: 3,
        }
    }
}

impl Default for CapConfig {
    fn default() -> Self {
        CapConfig::disabled()
    }
}

/// One rack whose spot grant was trimmed by the controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpotTrim {
    /// The trimmed rack.
    pub rack: RackId,
    /// Spot grant before the trim.
    pub old_spot: Watts,
    /// Spot grant after the trim.
    pub new_spot: Watts,
}

/// Per-level summary of one [`CapController::enforce`] pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapAction {
    /// The capacity boundary the action protected.
    pub level: EmergencyLevel,
    /// Spot watts shed at this level.
    pub shed: Watts,
    /// Guaranteed watts capped at this level (only under active hold).
    pub capped: Watts,
}

/// Everything one enforcement pass did.
#[derive(Debug, Clone, Default)]
pub struct CapOutcome {
    /// Per-level actions with nonzero shed or cap.
    pub actions: Vec<CapAction>,
    /// Every rack whose spot grant changed, in rack order.
    pub trims: Vec<SpotTrim>,
}

impl CapOutcome {
    /// Whether the pass changed anything.
    #[must_use]
    pub fn is_noop(&self) -> bool {
        self.actions.is_empty() && self.trims.is_empty()
    }

    /// Total spot watts shed across levels.
    #[must_use]
    pub fn total_shed(&self) -> Watts {
        self.actions.iter().map(|a| a.shed).sum()
    }
}

/// Sheds spot allocations (and, during an active emergency, caps
/// guaranteed budgets) to keep every shared capacity safe.
///
/// # Examples
///
/// ```
/// use spotdc_power::{CapConfig, CapController, RackPduBank, topology::TopologyBuilder};
/// use spotdc_units::{RackId, Slot, TenantId, Watts};
///
/// let topo = TopologyBuilder::new(Watts::new(200.0))
///     .pdu(Watts::new(100.0))
///     .rack(TenantId::new(0), Watts::new(40.0), Watts::new(30.0))
///     .build()?;
/// let mut bank = RackPduBank::new(&topo);
/// bank.grant_spot(Slot::ZERO, RackId::new(0), Watts::new(30.0))?;
/// let mut cap = CapController::new(&topo, CapConfig { enabled: true, ..CapConfig::paper_default() });
/// // Base load 90 W on a 100 W PDU: only ~8 W of spot fits under the margin.
/// let out = cap.enforce(Slot::ZERO, &[Watts::new(90.0)], &mut bank);
/// assert!(bank.spot_grant(RackId::new(0)) < Watts::new(30.0));
/// assert!(!out.is_noop());
/// # Ok::<(), spotdc_power::TopologyError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CapController {
    config: CapConfig,
    pdu_caps: Vec<Watts>,
    ups_cap: Watts,
    rack_pdu: Vec<PduId>,
    guaranteed: Vec<Watts>,
    /// Slot index at which each PDU (and the UPS) entered hold.
    pdu_hold: Vec<Option<u64>>,
    ups_hold: Option<u64>,
}

impl CapController {
    /// Creates a controller bound to `topology`'s capacities.
    #[must_use]
    pub fn new(topology: &PowerTopology, config: CapConfig) -> Self {
        CapController {
            config,
            pdu_caps: topology
                .pdus()
                .map(|p| topology.pdu_capacity(p).expect("pdu from topology"))
                .collect(),
            ups_cap: topology.ups_capacity(),
            rack_pdu: topology.racks().map(|r| r.pdu()).collect(),
            guaranteed: topology.racks().map(|r| r.guaranteed()).collect(),
            pdu_hold: vec![None; topology.pdu_count()],
            ups_hold: None,
        }
    }

    /// The controller's configuration.
    #[must_use]
    pub fn config(&self) -> &CapConfig {
        &self.config
    }

    /// Whether `level` is currently in emergency hold.
    #[must_use]
    pub fn is_held(&self, level: EmergencyLevel) -> bool {
        match level {
            EmergencyLevel::Pdu(p) => self.pdu_hold.get(p.index()).copied().flatten().is_some(),
            EmergencyLevel::Ups => self.ups_hold.is_some(),
        }
    }

    /// The hysteresis hold state: the slot index at which each PDU
    /// entered hold (`None` when free), and likewise for the UPS.
    #[must_use]
    pub fn hold_state(&self) -> (Vec<Option<u64>>, Option<u64>) {
        (self.pdu_hold.clone(), self.ups_hold)
    }

    /// Overwrites the hysteresis hold state, for crash recovery.
    ///
    /// # Panics
    ///
    /// Panics if `pdu_hold` does not match the controller's PDU count.
    pub fn restore_hold_state(&mut self, pdu_hold: Vec<Option<u64>>, ups_hold: Option<u64>) {
        assert_eq!(
            pdu_hold.len(),
            self.pdu_hold.len(),
            "restored hold state must match the topology's PDU count"
        );
        self.pdu_hold = pdu_hold;
        self.ups_hold = ups_hold;
    }

    /// Feeds the slot's detected overloads back into the hysteresis
    /// state: each affected level enters (or re-enters) hold at `slot`.
    pub fn note_emergencies(&mut self, slot: Slot, events: &[EmergencyEvent]) {
        for e in events {
            match e.level {
                EmergencyLevel::Pdu(p) => {
                    if let Some(h) = self.pdu_hold.get_mut(p.index()) {
                        *h = Some(slot.index());
                    }
                }
                EmergencyLevel::Ups => self.ups_hold = Some(slot.index()),
            }
        }
    }

    /// Trims the spot grants programmed in `bank` so every shared
    /// capacity fits `base_pdu` (the per-PDU non-spot load, normally
    /// last slot's observation) plus the surviving spot. Held levels
    /// admit no spot at all; a held level whose base load alone exceeds
    /// its capacity additionally gets its guaranteed budgets scaled
    /// down proportionally.
    ///
    /// Rack walk order is ascending rack index, so earlier racks keep
    /// their grants and later ones absorb the shedding — deterministic
    /// under any worker count.
    pub fn enforce(
        &mut self,
        slot: Slot,
        base_pdu: &[Watts],
        bank: &mut RackPduBank,
    ) -> CapOutcome {
        let mut out = CapOutcome::default();
        if !self.config.enabled {
            return out;
        }
        let base_at = |i: usize| base_pdu.get(i).copied().unwrap_or(Watts::ZERO);
        let base_total: Watts = (0..self.pdu_caps.len()).map(base_at).sum();

        // Hysteresis release: a level reopens once the hold has aged
        // out and the base load has retreated below the release line.
        let release = self.config.release;
        let hold_slots = self.config.hold_slots;
        for (i, hold) in self.pdu_hold.iter_mut().enumerate() {
            if let Some(since) = *hold {
                let aged = slot.index() >= since.saturating_add(hold_slots);
                if aged && base_at(i) <= self.pdu_caps[i] * (1.0 - release) {
                    *hold = None;
                }
            }
        }
        if let Some(since) = self.ups_hold {
            let aged = slot.index() >= since.saturating_add(hold_slots);
            if aged && base_total <= self.ups_cap * (1.0 - release) {
                self.ups_hold = None;
            }
        }

        // Per-level spot allowance: margin-limited headroom normally,
        // zero while held.
        let margin = self.config.margin;
        let mut pdu_room: Vec<Watts> = (0..self.pdu_caps.len())
            .map(|i| {
                if self.pdu_hold[i].is_some() {
                    Watts::ZERO
                } else {
                    (self.pdu_caps[i] * (1.0 - margin) - base_at(i)).clamp_non_negative()
                }
            })
            .collect();
        let mut ups_room = if self.ups_hold.is_some() {
            Watts::ZERO
        } else {
            (self.ups_cap * (1.0 - margin) - base_total).clamp_non_negative()
        };

        // Spot-before-guaranteed: walk racks in index order, keeping
        // each grant only as far as every level above it has room.
        let mut pdu_shed = vec![Watts::ZERO; self.pdu_caps.len()];
        let mut ups_shed = Watts::ZERO;
        for i in 0..self.rack_pdu.len() {
            let rack = RackId::new(i);
            let grant = bank.spot_grant(rack);
            if grant <= Watts::ZERO {
                continue;
            }
            let p = self.rack_pdu[i].index();
            let after_pdu = grant.min(pdu_room[p]);
            let after_ups = after_pdu.min(ups_room);
            pdu_room[p] = (pdu_room[p] - after_ups).clamp_non_negative();
            ups_room = (ups_room - after_ups).clamp_non_negative();
            if after_ups < grant {
                bank.grant_spot(slot, rack, after_ups)
                    .expect("trimmed grant is within the original grant");
                pdu_shed[p] += grant - after_pdu;
                ups_shed += after_pdu - after_ups;
                out.trims.push(SpotTrim {
                    rack,
                    old_spot: grant,
                    new_spot: after_ups,
                });
            }
        }

        // Guaranteed capping: only a held level whose base load alone
        // overshoots gets its guarantees scaled (proportional capping,
        // the conventional power-capper behaviour).
        let mut pdu_capped = vec![Watts::ZERO; self.pdu_caps.len()];
        let mut ups_capped = Watts::ZERO;
        for (p, capped) in pdu_capped.iter_mut().enumerate() {
            let base = base_at(p);
            if self.pdu_hold[p].is_some() && base > self.pdu_caps[p] && base > Watts::ZERO {
                let factor = self.pdu_caps[p].value() / base.value();
                for i in 0..self.rack_pdu.len() {
                    if self.rack_pdu[i].index() != p {
                        continue;
                    }
                    let rack = RackId::new(i);
                    let old = bank.budget(rack);
                    let limit = old * factor;
                    bank.cap_budget(slot, rack, limit)
                        .expect("scaled budget is finite and non-negative");
                    *capped += old - bank.budget(rack);
                }
            }
        }
        if self.ups_hold.is_some() && base_total > self.ups_cap && base_total > Watts::ZERO {
            let factor = self.ups_cap.value() / base_total.value();
            for i in 0..self.rack_pdu.len() {
                let rack = RackId::new(i);
                let old = bank.budget(rack);
                let limit = old * factor;
                bank.cap_budget(slot, rack, limit)
                    .expect("scaled budget is finite and non-negative");
                ups_capped += old - bank.budget(rack);
            }
        }

        for p in 0..self.pdu_caps.len() {
            if pdu_shed[p] > Watts::ZERO || pdu_capped[p] > Watts::ZERO {
                out.actions.push(CapAction {
                    level: EmergencyLevel::Pdu(PduId::new(p)),
                    shed: pdu_shed[p],
                    capped: pdu_capped[p],
                });
            }
        }
        if ups_shed > Watts::ZERO || ups_capped > Watts::ZERO {
            out.actions.push(CapAction {
                level: EmergencyLevel::Ups,
                shed: ups_shed,
                capped: ups_capped,
            });
        }

        if spotdc_telemetry::is_enabled() {
            for a in &out.actions {
                spotdc_telemetry::emit(spotdc_telemetry::Event::CapApplied {
                    slot,
                    at: spotdc_units::MonotonicNanos::now(),
                    level: a.level.to_string(),
                    shed_watts: a.shed.value(),
                    capped_watts: a.capped.value(),
                });
            }
        }
        let _ = &self.guaranteed; // reserved for future per-rack floors
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyBuilder;
    use spotdc_units::TenantId;

    fn topo() -> PowerTopology {
        TopologyBuilder::new(Watts::new(190.0))
            .pdu(Watts::new(100.0))
            .rack(TenantId::new(0), Watts::new(40.0), Watts::new(20.0))
            .rack(TenantId::new(1), Watts::new(40.0), Watts::new(20.0))
            .pdu(Watts::new(100.0))
            .rack(TenantId::new(2), Watts::new(80.0), Watts::new(20.0))
            .build()
            .unwrap()
    }

    fn controller(config: CapConfig) -> (CapController, RackPduBank) {
        let t = topo();
        (CapController::new(&t, config), RackPduBank::new(&t))
    }

    fn cfg() -> CapConfig {
        CapConfig {
            enabled: true,
            margin: 0.0,
            release: 0.05,
            hold_slots: 3,
        }
    }

    #[test]
    fn disabled_controller_is_a_noop() {
        let (mut c, mut bank) = controller(CapConfig::disabled());
        bank.grant_spot(Slot::ZERO, RackId::new(0), Watts::new(20.0))
            .unwrap();
        let out = c.enforce(Slot::ZERO, &[Watts::new(99.0), Watts::ZERO], &mut bank);
        assert!(out.is_noop());
        assert_eq!(bank.spot_grant(RackId::new(0)), Watts::new(20.0));
    }

    #[test]
    fn sheds_spot_before_guaranteed() {
        let (mut c, mut bank) = controller(cfg());
        bank.grant_spot(Slot::ZERO, RackId::new(0), Watts::new(20.0))
            .unwrap();
        bank.grant_spot(Slot::ZERO, RackId::new(1), Watts::new(20.0))
            .unwrap();
        // Base 70 W on the 100 W PDU: only 30 W of spot fits. Rack 0
        // (earlier index) keeps its grant; rack 1 absorbs the shed.
        let out = c.enforce(Slot::ZERO, &[Watts::new(70.0), Watts::ZERO], &mut bank);
        assert_eq!(bank.spot_grant(RackId::new(0)), Watts::new(20.0));
        assert_eq!(bank.spot_grant(RackId::new(1)), Watts::new(10.0));
        // Guaranteed budgets untouched: spot is shed first.
        assert_eq!(bank.budget(RackId::new(0)), Watts::new(60.0));
        assert!(bank.budget(RackId::new(1)) >= Watts::new(40.0));
        assert_eq!(out.trims.len(), 1);
        assert_eq!(out.total_shed(), Watts::new(10.0));
    }

    #[test]
    fn ups_room_limits_across_pdus() {
        let (mut c, mut bank) = controller(cfg());
        bank.grant_spot(Slot::ZERO, RackId::new(2), Watts::new(20.0))
            .unwrap();
        // PDU 1 alone has room (80 + 20 ≤ 100) but the UPS does not:
        // base 95 + 80 = 175, UPS 190 ⇒ only 15 W of spot fits.
        let out = c.enforce(Slot::ZERO, &[Watts::new(95.0), Watts::new(80.0)], &mut bank);
        assert_eq!(bank.spot_grant(RackId::new(2)), Watts::new(15.0));
        assert_eq!(out.actions.len(), 1);
        assert_eq!(out.actions[0].level, EmergencyLevel::Ups);
        assert_eq!(out.actions[0].shed, Watts::new(5.0));
    }

    #[test]
    fn held_level_admits_no_spot_with_hysteresis() {
        let (mut c, mut bank) = controller(cfg());
        let event = EmergencyEvent {
            slot: Slot::new(10),
            level: EmergencyLevel::Pdu(spotdc_units::PduId::new(0)),
            load: Watts::new(120.0),
            capacity: Watts::new(100.0),
        };
        c.note_emergencies(Slot::new(10), &[event]);
        assert!(c.is_held(EmergencyLevel::Pdu(spotdc_units::PduId::new(0))));
        // Low base load, but the hold has not aged out: no spot.
        bank.grant_spot(Slot::new(11), RackId::new(0), Watts::new(10.0))
            .unwrap();
        c.enforce(Slot::new(11), &[Watts::new(50.0), Watts::ZERO], &mut bank);
        assert_eq!(bank.spot_grant(RackId::new(0)), Watts::ZERO);
        // Aged out (10 + 3 = 13) and base below the release line: the
        // hold clears and spot flows again.
        bank.reset_all(Slot::new(13));
        bank.grant_spot(Slot::new(13), RackId::new(0), Watts::new(10.0))
            .unwrap();
        c.enforce(Slot::new(13), &[Watts::new(50.0), Watts::ZERO], &mut bank);
        assert!(!c.is_held(EmergencyLevel::Pdu(spotdc_units::PduId::new(0))));
        assert_eq!(bank.spot_grant(RackId::new(0)), Watts::new(10.0));
    }

    #[test]
    fn held_overloaded_level_caps_guarantees_proportionally() {
        let (mut c, mut bank) = controller(cfg());
        let event = EmergencyEvent {
            slot: Slot::ZERO,
            level: EmergencyLevel::Pdu(spotdc_units::PduId::new(0)),
            load: Watts::new(110.0),
            capacity: Watts::new(100.0),
        };
        c.note_emergencies(Slot::ZERO, &[event]);
        // Base load 110 W alone exceeds the 100 W PDU: guarantees on
        // that PDU scale by 100/110.
        let out = c.enforce(Slot::new(1), &[Watts::new(110.0), Watts::ZERO], &mut bank);
        let factor = 100.0 / 110.0;
        assert!(bank
            .budget(RackId::new(0))
            .approx_eq(Watts::new(40.0) * factor, 1e-9));
        assert!(bank
            .budget(RackId::new(1))
            .approx_eq(Watts::new(40.0) * factor, 1e-9));
        // The other PDU's rack is untouched.
        assert_eq!(bank.budget(RackId::new(2)), Watts::new(80.0));
        let act = out
            .actions
            .iter()
            .find(|a| a.level == EmergencyLevel::Pdu(spotdc_units::PduId::new(0)))
            .unwrap();
        assert!(act.capped.value() > 0.0);
    }
}
