//! Per-rack power metering.
//!
//! Operators continuously monitor rack power (per-outlet metered rack
//! PDUs are routine equipment for billing and reliability). The
//! [`PowerMeter`] ingests one reading per rack per slot, keeps a bounded
//! history, and answers the aggregate queries the spot-capacity
//! predictor needs: instantaneous rack power, PDU and UPS aggregates,
//! and slot-over-slot deltas.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};
use spotdc_units::{PduId, RackId, Slot, Watts};

use crate::topology::{PowerTopology, TopologyError};

/// One recorded power reading for one rack at one slot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MeterReading {
    /// The slot at which the reading was taken.
    pub slot: Slot,
    /// The measured power draw.
    pub power: Watts,
}

/// Rolling per-rack power history with PDU/UPS aggregation.
///
/// # Examples
///
/// ```
/// use spotdc_power::{PowerMeter, topology::TopologyBuilder};
/// use spotdc_units::{RackId, Slot, TenantId, Watts};
///
/// let topo = TopologyBuilder::new(Watts::new(500.0))
///     .pdu(Watts::new(500.0))
///     .rack(TenantId::new(0), Watts::new(100.0), Watts::ZERO)
///     .rack(TenantId::new(1), Watts::new(100.0), Watts::ZERO)
///     .build()?;
/// let mut meter = PowerMeter::new(&topo, 16)?;
/// meter.record(Slot::ZERO, RackId::new(0), Watts::new(80.0));
/// meter.record(Slot::ZERO, RackId::new(1), Watts::new(60.0));
/// assert_eq!(meter.ups_power(), Watts::new(140.0));
/// # Ok::<(), spotdc_power::TopologyError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PowerMeter {
    history: Vec<VecDeque<MeterReading>>,
    rack_to_pdu: Vec<PduId>,
    pdu_count: usize,
    capacity: usize,
}

impl PowerMeter {
    /// Creates a meter for every rack in `topology`, retaining up to
    /// `history_len` readings per rack.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidCapacity`] if `history_len` is
    /// zero; a meter that can hold no readings cannot answer any query.
    pub fn new(topology: &PowerTopology, history_len: usize) -> Result<Self, TopologyError> {
        if history_len == 0 {
            return Err(TopologyError::InvalidCapacity {
                what: "meter history length must be positive".into(),
            });
        }
        Ok(PowerMeter {
            history: vec![VecDeque::with_capacity(history_len); topology.rack_count()],
            rack_to_pdu: topology.racks().map(|r| r.pdu()).collect(),
            pdu_count: topology.pdu_count(),
            capacity: history_len,
        })
    }

    /// Records a reading for `rack` at `slot`, evicting the oldest
    /// reading if the history is full. Readings are clamped to zero from
    /// below — a meter never reports negative power.
    ///
    /// # Panics
    ///
    /// Panics if `rack` is not part of the metered topology.
    pub fn record(&mut self, slot: Slot, rack: RackId, power: Watts) {
        let q = &mut self.history[rack.index()];
        if q.len() == self.capacity {
            q.pop_front();
        }
        q.push_back(MeterReading {
            slot,
            power: power.clamp_non_negative(),
        });
    }

    /// The most recent reading for `rack`, if any.
    #[must_use]
    pub fn latest(&self, rack: RackId) -> Option<MeterReading> {
        self.history
            .get(rack.index())
            .and_then(|q| q.back())
            .copied()
    }

    /// The most recent power for `rack`, zero if never recorded.
    #[must_use]
    pub fn rack_power(&self, rack: RackId) -> Watts {
        self.latest(rack).map(|r| r.power).unwrap_or(Watts::ZERO)
    }

    /// The last known good reading for `rack` tagged with its staleness
    /// in slots relative to `asof` (the slot whose reading the caller
    /// expected), or `None` if the rack was never read. A meter keeps
    /// answering from its last known good value when samples are lost;
    /// the staleness says how much to distrust that answer.
    #[must_use]
    pub fn last_known_good(&self, rack: RackId, asof: Slot) -> Option<(MeterReading, u64)> {
        self.latest(rack)
            .map(|r| (r, asof.index().saturating_sub(r.slot.index())))
    }

    /// Sum of latest readings across the racks of `pdu`.
    #[must_use]
    pub fn pdu_power(&self, pdu: PduId) -> Watts {
        self.history
            .iter()
            .enumerate()
            .filter(|(i, _)| self.rack_to_pdu[*i] == pdu)
            .filter_map(|(_, q)| q.back())
            .map(|r| r.power)
            .sum()
    }

    /// Sum of latest readings across all racks.
    #[must_use]
    pub fn ups_power(&self) -> Watts {
        self.history
            .iter()
            .filter_map(|q| q.back())
            .map(|r| r.power)
            .sum()
    }

    /// Latest power per PDU, indexed by PDU id.
    #[must_use]
    pub fn pdu_powers(&self) -> Vec<Watts> {
        let mut per_pdu = vec![Watts::ZERO; self.pdu_count];
        self.pdu_powers_into(&mut per_pdu);
        per_pdu
    }

    /// Allocation-free [`Self::pdu_powers`]: resizes `out` to the PDU
    /// count, zeroes it, and accumulates latest readings in rack order
    /// (bit-identical to the allocating variant). For hot per-slot
    /// callers that recycle one buffer across the whole run.
    pub fn pdu_powers_into(&self, out: &mut Vec<Watts>) {
        out.clear();
        out.resize(self.pdu_count, Watts::ZERO);
        for (i, q) in self.history.iter().enumerate() {
            if let Some(r) = q.back() {
                out[self.rack_to_pdu[i].index()] += r.power;
            }
        }
    }

    /// The full retained history for `rack`, oldest first.
    #[must_use]
    pub fn history(&self, rack: RackId) -> Vec<MeterReading> {
        self.history
            .get(rack.index())
            .map(|q| q.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Number of racks this meter covers.
    #[must_use]
    pub fn rack_count(&self) -> usize {
        self.history.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyBuilder;
    use spotdc_units::TenantId;

    fn small_topology() -> PowerTopology {
        TopologyBuilder::new(Watts::new(1000.0))
            .pdu(Watts::new(500.0))
            .rack(TenantId::new(0), Watts::new(100.0), Watts::ZERO)
            .rack(TenantId::new(1), Watts::new(100.0), Watts::ZERO)
            .pdu(Watts::new(500.0))
            .rack(TenantId::new(2), Watts::new(100.0), Watts::ZERO)
            .build()
            .unwrap()
    }

    #[test]
    fn aggregates_split_by_pdu() {
        let topo = small_topology();
        let mut m = PowerMeter::new(&topo, 8).unwrap();
        m.record(Slot::ZERO, RackId::new(0), Watts::new(50.0));
        m.record(Slot::ZERO, RackId::new(1), Watts::new(70.0));
        m.record(Slot::ZERO, RackId::new(2), Watts::new(30.0));
        assert_eq!(m.pdu_power(PduId::new(0)), Watts::new(120.0));
        assert_eq!(m.pdu_power(PduId::new(1)), Watts::new(30.0));
        assert_eq!(m.ups_power(), Watts::new(150.0));
        assert_eq!(m.pdu_powers(), vec![Watts::new(120.0), Watts::new(30.0)]);
    }

    #[test]
    fn unrecorded_racks_read_zero() {
        let topo = small_topology();
        let m = PowerMeter::new(&topo, 8).unwrap();
        assert_eq!(m.rack_power(RackId::new(0)), Watts::ZERO);
        assert_eq!(m.ups_power(), Watts::ZERO);
        assert!(m.latest(RackId::new(0)).is_none());
    }

    #[test]
    fn history_is_bounded_and_fifo() {
        let topo = small_topology();
        let mut m = PowerMeter::new(&topo, 3).unwrap();
        for i in 0..5 {
            m.record(Slot::new(i), RackId::new(0), Watts::new(i as f64));
        }
        let h = m.history(RackId::new(0));
        assert_eq!(h.len(), 3);
        assert_eq!(h[0].slot, Slot::new(2));
        assert_eq!(h[2].slot, Slot::new(4));
        assert_eq!(m.rack_power(RackId::new(0)), Watts::new(4.0));
    }

    #[test]
    fn negative_readings_are_clamped() {
        let topo = small_topology();
        let mut m = PowerMeter::new(&topo, 4).unwrap();
        m.record(Slot::ZERO, RackId::new(0), Watts::new(-10.0));
        assert_eq!(m.rack_power(RackId::new(0)), Watts::ZERO);
    }

    #[test]
    fn zero_history_rejected() {
        let topo = small_topology();
        let err = PowerMeter::new(&topo, 0).unwrap_err();
        assert!(matches!(err, TopologyError::InvalidCapacity { .. }));
        assert!(err.to_string().contains("history length"));
    }

    #[test]
    fn staleness_tracks_missing_slots() {
        let topo = small_topology();
        let mut m = PowerMeter::new(&topo, 4).unwrap();
        let r = RackId::new(0);
        assert!(m.last_known_good(r, Slot::new(5)).is_none());
        m.record(Slot::new(5), r, Watts::new(42.0));
        assert_eq!(m.last_known_good(r, Slot::new(5)).unwrap().1, 0);
        // Three slots with no sample: the meter keeps answering from
        // the last known good value, tagged three slots stale.
        let (reading, age) = m.last_known_good(r, Slot::new(8)).unwrap();
        assert_eq!(reading.power, Watts::new(42.0));
        assert_eq!(reading.slot, Slot::new(5));
        assert_eq!(age, 3);
        assert_eq!(m.rack_power(r), Watts::new(42.0));
    }
}
