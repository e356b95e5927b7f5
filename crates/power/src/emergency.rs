//! Power-emergency detection and bookkeeping.
//!
//! An *emergency* is a slot in which aggregate demand exceeds a shared
//! capacity (PDU or UPS). Oversubscription makes occasional emergencies
//! unavoidable; they are handled by power-capping mechanisms outside
//! SpotDC's scope (the paper cites its companion COOP market [8]). What
//! SpotDC *does* promise is that selling spot capacity introduces **no
//! additional emergencies**, because spot capacity is only what's left
//! under the physical limits. [`EmergencyLog`] records emergencies per
//! slot so the evaluation can check exactly that claim.

use std::fmt;

use serde::{Deserialize, Serialize};
use spotdc_units::{PduId, Slot, Watts};

use crate::topology::PowerTopology;

/// Where in the power tree an emergency occurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EmergencyLevel {
    /// A cluster PDU exceeded its capacity.
    Pdu(PduId),
    /// The UPS exceeded its capacity.
    Ups,
}

impl fmt::Display for EmergencyLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmergencyLevel::Pdu(p) => write!(f, "{p}"),
            EmergencyLevel::Ups => write!(f, "ups"),
        }
    }
}

/// One recorded capacity-exceeded event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EmergencyEvent {
    /// The slot in which the overload was observed.
    pub slot: Slot,
    /// Which capacity boundary was exceeded.
    pub level: EmergencyLevel,
    /// Observed load during the slot.
    pub load: Watts,
    /// The capacity that was exceeded.
    pub capacity: Watts,
}

impl EmergencyEvent {
    /// The magnitude of the overload (load − capacity).
    #[must_use]
    pub fn overload(&self) -> Watts {
        (self.load - self.capacity).clamp_non_negative()
    }

    /// The overload as a fraction of capacity, clamped to `0.0` when
    /// the capacity is zero or negative (a degenerate boundary has no
    /// meaningful severity, and dividing by it must never produce NaN
    /// or infinity).
    #[must_use]
    pub fn severity(&self) -> f64 {
        if self.capacity.value() <= 0.0 {
            return 0.0;
        }
        self.overload().fraction_of(self.capacity)
    }
}

/// Detects and records emergencies across the power tree.
///
/// # Examples
///
/// ```
/// use spotdc_power::{EmergencyLog, topology::TopologyBuilder};
/// use spotdc_units::{Slot, TenantId, Watts};
///
/// let topo = TopologyBuilder::new(Watts::new(200.0))
///     .pdu(Watts::new(100.0))
///     .rack(TenantId::new(0), Watts::new(100.0), Watts::ZERO)
///     .build()?;
/// let mut log = EmergencyLog::new(&topo);
/// let events = log.observe(Slot::ZERO, &[Watts::new(120.0)]);
/// assert_eq!(events.len(), 1); // PDU overloaded, UPS (200 W) fine
/// # Ok::<(), spotdc_power::TopologyError>(())
/// ```
#[derive(Debug, Clone)]
pub struct EmergencyLog {
    pdu_capacities: Vec<Watts>,
    ups_capacity: Watts,
    events: Vec<EmergencyEvent>,
    slots_observed: u64,
}

impl EmergencyLog {
    /// Creates a log bound to `topology`'s capacities.
    #[must_use]
    pub fn new(topology: &PowerTopology) -> Self {
        EmergencyLog {
            pdu_capacities: topology
                .pdus()
                .map(|p| topology.pdu_capacity(p).expect("pdu from topology"))
                .collect(),
            ups_capacity: topology.ups_capacity(),
            events: Vec::new(),
            slots_observed: 0,
        }
    }

    /// Checks one slot's per-PDU loads against all capacities, recording
    /// and returning any emergencies found. `pdu_loads` is indexed by
    /// PDU id; extra entries are ignored, missing entries read as zero.
    pub fn observe(&mut self, slot: Slot, pdu_loads: &[Watts]) -> Vec<EmergencyEvent> {
        self.slots_observed += 1;
        let mut found = Vec::new();
        let mut total = Watts::ZERO;
        for (i, &cap) in self.pdu_capacities.iter().enumerate() {
            let load = pdu_loads.get(i).copied().unwrap_or(Watts::ZERO);
            total += load;
            if load > cap {
                found.push(EmergencyEvent {
                    slot,
                    level: EmergencyLevel::Pdu(PduId::new(i)),
                    load,
                    capacity: cap,
                });
            }
        }
        if total > self.ups_capacity {
            found.push(EmergencyEvent {
                slot,
                level: EmergencyLevel::Ups,
                load: total,
                capacity: self.ups_capacity,
            });
        }
        if spotdc_telemetry::is_enabled() {
            for e in &found {
                spotdc_telemetry::emit(spotdc_telemetry::Event::EmergencyTriggered {
                    slot,
                    at: spotdc_units::MonotonicNanos::now(),
                    level: e.level.to_string(),
                    load_watts: e.load.value(),
                    capacity_watts: e.capacity.value(),
                });
            }
        }
        self.events.extend_from_slice(&found);
        found
    }

    /// All recorded emergencies in observation order.
    #[must_use]
    pub fn events(&self) -> &[EmergencyEvent] {
        &self.events
    }

    /// Number of slots observed so far.
    #[must_use]
    pub fn slots_observed(&self) -> u64 {
        self.slots_observed
    }

    /// Fraction of observed slots that had at least one emergency.
    #[must_use]
    pub fn emergency_rate(&self) -> f64 {
        if self.slots_observed == 0 {
            return 0.0;
        }
        let mut slots: Vec<Slot> = self.events.iter().map(|e| e.slot).collect();
        slots.dedup();
        slots.len() as f64 / self.slots_observed as f64
    }

    /// Clears recorded events and the observation counter.
    pub fn clear(&mut self) {
        self.events.clear();
        self.slots_observed = 0;
    }

    /// Overwrites the log with previously recorded state, for crash
    /// recovery: `events` in their original observation order plus the
    /// observation counter they were recorded under.
    pub fn restore(&mut self, events: Vec<EmergencyEvent>, slots_observed: u64) {
        self.events = events;
        self.slots_observed = slots_observed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyBuilder;
    use spotdc_units::TenantId;

    fn log() -> EmergencyLog {
        let topo = TopologyBuilder::new(Watts::new(180.0))
            .pdu(Watts::new(100.0))
            .rack(TenantId::new(0), Watts::new(100.0), Watts::ZERO)
            .pdu(Watts::new(100.0))
            .rack(TenantId::new(1), Watts::new(100.0), Watts::ZERO)
            .build()
            .unwrap();
        EmergencyLog::new(&topo)
    }

    #[test]
    fn no_emergency_under_capacity() {
        let mut l = log();
        let e = l.observe(Slot::ZERO, &[Watts::new(90.0), Watts::new(80.0)]);
        assert!(e.is_empty());
        assert_eq!(l.emergency_rate(), 0.0);
    }

    #[test]
    fn pdu_overload_detected() {
        let mut l = log();
        let e = l.observe(Slot::ZERO, &[Watts::new(110.0), Watts::new(10.0)]);
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].level, EmergencyLevel::Pdu(PduId::new(0)));
        assert_eq!(e[0].overload(), Watts::new(10.0));
        assert!((e[0].severity() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn ups_overload_detected_even_when_pdus_fit() {
        let mut l = log();
        // 95 + 95 = 190 > 180 UPS capacity, but each PDU is fine.
        let e = l.observe(Slot::ZERO, &[Watts::new(95.0), Watts::new(95.0)]);
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].level, EmergencyLevel::Ups);
        assert_eq!(e[0].load, Watts::new(190.0));
    }

    #[test]
    fn simultaneous_pdu_and_ups_overloads() {
        let mut l = log();
        let e = l.observe(Slot::ZERO, &[Watts::new(150.0), Watts::new(60.0)]);
        assert_eq!(e.len(), 2);
    }

    #[test]
    fn emergency_rate_counts_slots_not_events() {
        let mut l = log();
        l.observe(Slot::new(0), &[Watts::new(150.0), Watts::new(60.0)]); // 2 events
        l.observe(Slot::new(1), &[Watts::new(10.0), Watts::new(10.0)]); // none
        assert!((l.emergency_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_capacity_severity_clamps_to_zero() {
        let e = EmergencyEvent {
            slot: Slot::ZERO,
            level: EmergencyLevel::Ups,
            load: Watts::new(50.0),
            capacity: Watts::ZERO,
        };
        assert_eq!(e.severity(), 0.0);
        assert!(e.severity().is_finite());
        assert_eq!(e.overload(), Watts::new(50.0));
    }

    #[test]
    fn missing_loads_read_zero() {
        let mut l = log();
        let e = l.observe(Slot::ZERO, &[Watts::new(50.0)]);
        assert!(e.is_empty());
    }

    #[test]
    fn clear_resets_state() {
        let mut l = log();
        l.observe(Slot::ZERO, &[Watts::new(150.0), Watts::ZERO]);
        l.clear();
        assert!(l.events().is_empty());
        assert_eq!(l.slots_observed(), 0);
    }
}
