//! Per-rack power metering.
//!
//! Operators continuously monitor rack power (per-outlet metered rack
//! PDUs are routine equipment for billing and reliability). The
//! [`PowerMeter`] ingests one reading per rack per slot, keeps a bounded
//! history, and answers the queries the spot-capacity predictor needs:
//! instantaneous rack power and its staleness, PDU aggregates, and
//! slot-over-slot deltas.

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

/// Rolling per-rack power history with PDU aggregation.
///
/// A meter keeps one reading per rack beyond its history length, so it
/// can also answer as it stood a slot ago ([`Self::lagged`]); every
/// other query reads only the newest `history_len` readings.
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
/// let mut per_pdu = Vec::new();
/// meter.pdu_powers_into(&mut per_pdu);
/// assert_eq!(per_pdu, vec![Watts::new(140.0)]);
/// # Ok::<(), spotdc_power::TopologyError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PowerMeter {
    /// Up to `history_len + 1` readings per rack, oldest first.
    readings: Vec<VecDeque<MeterReading>>,
    rack_to_pdu: Vec<PduId>,
    pdu_count: usize,
    history_len: usize,
}

impl PowerMeter {
    /// Creates a meter for every rack in `topology` whose history
    /// answers with up to `history_len` readings per rack.
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
            readings: vec![VecDeque::with_capacity(history_len + 1); topology.rack_count()],
            rack_to_pdu: topology.racks().map(|r| r.pdu()).collect(),
            pdu_count: topology.pdu_count(),
            history_len,
        })
    }

    /// Records a reading for `rack` at `slot`, evicting the oldest
    /// beyond `history_len + 1`. Readings are clamped to zero from
    /// below — a meter never reports negative power.
    ///
    /// # Panics
    ///
    /// Panics if `rack` is not part of the metered topology.
    pub fn record(&mut self, slot: Slot, rack: RackId, power: Watts) {
        let q = &mut self.readings[rack.index()];
        if q.len() > self.history_len {
            q.pop_front();
        }
        q.push_back(MeterReading {
            slot,
            power: power.clamp_non_negative(),
        });
    }

    /// The meter as it stood before `slot`'s readings were recorded:
    /// each rack whose newest reading is tagged `slot` loses it. A
    /// rack's only reading stays: it is a warm-up taken before `slot`
    /// under its tag (the simulator's slot-0 warm-up shares slot 0's).
    #[must_use]
    pub fn lagged(&self, slot: Slot) -> PowerMeter {
        let mut lagged = self.clone();
        for q in &mut lagged.readings {
            if q.len() > 1 && q.back().is_some_and(|r| r.slot == slot) {
                q.pop_back();
            }
        }
        lagged
    }

    /// The most recent reading for `rack`, if any.
    #[must_use]
    pub fn latest(&self, rack: RackId) -> Option<MeterReading> {
        self.readings
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

    /// Latest power per PDU: resizes `out` to the PDU count, zeroes it,
    /// and accumulates each rack's latest reading in rack order. For
    /// per-slot callers that recycle one buffer across the whole run.
    pub fn pdu_powers_into(&self, out: &mut Vec<Watts>) {
        out.clear();
        out.resize(self.pdu_count, Watts::ZERO);
        for (i, q) in self.readings.iter().enumerate() {
            if let Some(r) = q.back() {
                out[self.rack_to_pdu[i].index()] += r.power;
            }
        }
    }

    /// The newest `history_len` readings for `rack`, oldest first.
    #[must_use]
    pub fn history(&self, rack: RackId) -> Vec<MeterReading> {
        let retained = self.retained(rack);
        let skip = retained.len().saturating_sub(self.history_len);
        retained.skip(skip).collect()
    }

    /// Every reading retained for `rack`, oldest first: its history and,
    /// once that is full, the one before it. Replayed through
    /// [`Self::record`] into a fresh meter, they rebuild this one.
    pub fn retained(&self, rack: RackId) -> impl ExactSizeIterator<Item = MeterReading> + '_ {
        static UNMETERED: VecDeque<MeterReading> = VecDeque::new();
        let q = self.readings.get(rack.index()).unwrap_or(&UNMETERED);
        q.iter().copied()
    }

    /// Number of racks this meter covers.
    #[must_use]
    pub fn rack_count(&self) -> usize {
        self.readings.len()
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

    /// Each PDU's total is the sum of its racks' `rack_power`.
    fn pdu_sums(m: &PowerMeter, topo: &PowerTopology) -> Vec<Watts> {
        let mut sums = vec![Watts::ZERO; topo.pdu_count()];
        for rack in topo.racks() {
            sums[rack.pdu().index()] += m.rack_power(rack.id());
        }
        sums
    }

    #[test]
    fn aggregates_split_by_pdu() {
        let topo = small_topology();
        let mut m = PowerMeter::new(&topo, 8).unwrap();
        m.record(Slot::ZERO, RackId::new(0), Watts::new(50.0));
        m.record(Slot::ZERO, RackId::new(1), Watts::new(70.0));
        m.record(Slot::ZERO, RackId::new(2), Watts::new(30.0));
        let mut per_pdu = vec![Watts::new(9.0); 5];
        m.pdu_powers_into(&mut per_pdu);
        assert_eq!(per_pdu, vec![Watts::new(120.0), Watts::new(30.0)]);
        assert_eq!(per_pdu, pdu_sums(&m, &topo));
    }

    #[test]
    fn unrecorded_racks_read_zero() {
        let topo = small_topology();
        let m = PowerMeter::new(&topo, 8).unwrap();
        assert_eq!(m.rack_power(RackId::new(0)), Watts::ZERO);
        let mut per_pdu = Vec::new();
        m.pdu_powers_into(&mut per_pdu);
        assert_eq!(per_pdu, vec![Watts::ZERO; 2]);
        assert!(m.latest(RackId::new(0)).is_none());
        assert!(m.history(RackId::new(7)).is_empty());
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
        // One reading more is retained, for the lag view.
        let retained: Vec<Slot> = m.retained(RackId::new(0)).map(|r| r.slot).collect();
        assert_eq!(retained, [1, 2, 3, 4].map(Slot::new));
    }

    #[test]
    fn the_lagged_view_answers_as_the_meter_stood_a_slot_ago() {
        let topo = small_topology();
        let mut m = PowerMeter::new(&topo, 3).unwrap();
        let (r0, r1, r2) = (RackId::new(0), RackId::new(1), RackId::new(2));
        // A warm-up and slot 0 share slot 0's tag; rack 1 misses slot
        // 0, so its warm-up is its only reading.
        for rack in [r0, r1, r2] {
            m.record(Slot::ZERO, rack, Watts::new(10.0));
        }
        m.record(Slot::ZERO, r0, Watts::new(11.0));
        m.record(Slot::ZERO, r2, Watts::new(12.0));
        let warm = m.lagged(Slot::ZERO);
        let warm_up = MeterReading {
            slot: Slot::ZERO,
            power: Watts::new(10.0),
        };
        for rack in [r0, r1, r2] {
            assert_eq!(warm.history(rack), [warm_up]);
        }
        let mut stood = Vec::new();
        for t in 1..8 {
            stood.push(m.clone());
            m.record(Slot::new(t), r0, Watts::new(20.0 + t as f64));
            if t % 2 == 0 {
                m.record(Slot::new(t), r1, Watts::new(30.0 + t as f64));
            }
            let lagged = m.lagged(Slot::new(t));
            let before = &stood[stood.len() - 1];
            for rack in [r0, r1, r2] {
                assert_eq!(lagged.history(rack), before.history(rack), "slot {t}");
                assert_eq!(lagged.latest(rack), before.latest(rack), "slot {t}");
            }
        }
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
