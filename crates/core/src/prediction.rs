//! Spot-capacity prediction from live power monitoring (Section III-C).
//!
//! Just before clearing, the operator predicts how much spot capacity
//! the next slot will have at each PDU and the UPS:
//!
//! * take the **current** power reading of every rack as its reference,
//! * except racks currently holding or requesting spot capacity, whose
//!   reference is their **guaranteed capacity** (they may legitimately
//!   fill it next slot),
//! * subtract the references from the physical capacities,
//! * optionally scale by an *under-prediction factor* `φ ≤ 1` as a
//!   conservative safety margin (paper Fig. 17 shows `φ` barely affects
//!   profit because the profit-maximizing price rarely sells the last
//!   watt anyway).
//!
//! This is sound because PDU-level power moves slowly slot-to-slot
//! (±2.5 % for 99 % of slots — Fig. 7a) and short spikes ride on
//! breaker tolerance.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};
use spotdc_power::{PowerMeter, PowerTopology};
use spotdc_units::{RackId, Slot, Watts};

/// Predicted spot capacity for one slot at every level.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictedSpot {
    /// Spot capacity per PDU, indexed by PDU id.
    pub pdu: Vec<Watts>,
    /// Spot capacity at the UPS.
    pub ups: Watts,
}

impl PredictedSpot {
    /// Total predicted PDU-level spot capacity.
    #[must_use]
    pub fn total_pdu(&self) -> Watts {
        self.pdu.iter().copied().sum()
    }
}

/// How prediction degrades when meter readings go stale.
///
/// Dropped samples leave the predictor working from last-known-good
/// values. This policy widens the safety margin per slot of staleness
/// (on top of whatever [`MarginPolicy`] is in force) and, past a bound,
/// withholds the affected PDU's spot capacity entirely — stale inputs
/// must make the market more conservative, never more aggressive.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StalenessPolicy {
    /// Extra watts added to a rack's reference per slot of reading age.
    pub penalty_per_slot: Watts,
    /// Readings older than this many slots (or racks never read at
    /// all) disqualify the rack's PDU from selling spot this slot.
    pub max_age_slots: u64,
}

impl StalenessPolicy {
    /// The defaults the `robustness` experiment uses: 10 W of widening
    /// per stale slot, withhold after 5 slots without a sample.
    #[must_use]
    pub fn paper_default() -> Self {
        StalenessPolicy {
            penalty_per_slot: Watts::new(10.0),
            max_age_slots: 5,
        }
    }
}

/// A staleness-aware prediction: the (possibly degraded) spot capacity
/// plus what was degraded to produce it.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedPrediction {
    /// The prediction, after staleness penalties and withholding.
    pub spot: PredictedSpot,
    /// Racks whose reference came from a stale (age ≥ 1) reading.
    pub stale_racks: u64,
    /// PDUs whose spot capacity was withheld entirely.
    pub withheld_pdus: u64,
}

impl DegradedPrediction {
    /// Whether any degradation was applied.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.stale_racks > 0 || self.withheld_pdus > 0
    }
}

/// How the predictor derives its safety margin.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MarginPolicy {
    /// Scale the raw prediction by a fixed factor `φ ∈ (0, 1]`
    /// (the paper's under-prediction knob, Fig. 17).
    Scale(f64),
    /// Adaptive: pad each non-participating rack's reference by the
    /// largest upward slot-over-slot move observed in its metering
    /// history, times a multiplier — "assume every rack repeats its
    /// worst recent ramp simultaneously". Converges to the exact
    /// prediction on flat traces and backs off on volatile ones.
    Adaptive {
        /// Multiplier on the observed worst upward ramp (≥ 0).
        ramp_multiplier: f64,
    },
}

/// The spot-capacity predictor.
///
/// # Examples
///
/// ```
/// use spotdc_core::SpotPredictor;
/// use spotdc_power::{PowerMeter, topology::TopologyBuilder};
/// use spotdc_units::{RackId, Slot, TenantId, Watts};
///
/// let topo = TopologyBuilder::new(Watts::new(280.0))
///     .pdu(Watts::new(300.0))
///     .rack(TenantId::new(0), Watts::new(100.0), Watts::new(50.0))
///     .rack(TenantId::new(1), Watts::new(150.0), Watts::ZERO)
///     .build()?;
/// let mut meter = PowerMeter::new(&topo, 4)?;
/// meter.record(Slot::ZERO, RackId::new(0), Watts::new(60.0));
/// meter.record(Slot::ZERO, RackId::new(1), Watts::new(90.0));
/// let spot = SpotPredictor::exact().predict(&topo, &meter, [RackId::new(0)]);
/// // Rack 0 requests spot => reference = its 100 W guarantee;
/// // rack 1 reference = its 90 W reading. PDU: 300-190 = 110.
/// assert_eq!(spot.pdu[0], Watts::new(110.0));
/// assert_eq!(spot.ups, Watts::new(90.0)); // 280 - 190
/// # Ok::<(), spotdc_power::TopologyError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpotPredictor {
    policy: MarginPolicy,
}

impl SpotPredictor {
    /// A predictor with no safety margin (`φ = 1`).
    #[must_use]
    pub fn exact() -> Self {
        SpotPredictor {
            policy: MarginPolicy::Scale(1.0),
        }
    }

    /// An adaptive predictor padding references by each rack's worst
    /// recently-observed upward ramp times `ramp_multiplier`.
    ///
    /// # Panics
    ///
    /// Panics if `ramp_multiplier` is negative or non-finite.
    #[must_use]
    pub fn adaptive(ramp_multiplier: f64) -> Self {
        assert!(
            ramp_multiplier >= 0.0 && ramp_multiplier.is_finite(),
            "ramp multiplier must be non-negative"
        );
        SpotPredictor {
            policy: MarginPolicy::Adaptive { ramp_multiplier },
        }
    }

    /// A conservative predictor that under-predicts by the given
    /// percentage: `SpotPredictor::under_predicting(15.0)` scales raw
    /// spot capacity by 0.85 (paper Fig. 17's x-axis).
    ///
    /// # Panics
    ///
    /// Panics unless `percent ∈ [0, 100)`.
    #[must_use]
    pub fn under_predicting(percent: f64) -> Self {
        assert!(
            (0.0..100.0).contains(&percent),
            "under-prediction must be in [0,100)"
        );
        SpotPredictor {
            policy: MarginPolicy::Scale(1.0 - percent / 100.0),
        }
    }

    /// The multiplier `φ` applied to raw predictions (1.0 for the
    /// adaptive policy, whose margin lives in the references instead).
    #[must_use]
    pub fn factor(&self) -> f64 {
        match self.policy {
            MarginPolicy::Scale(f) => f,
            MarginPolicy::Adaptive { .. } => 1.0,
        }
    }

    /// The margin policy in force.
    #[must_use]
    pub fn policy(&self) -> MarginPolicy {
        self.policy
    }

    /// Predicts next-slot spot capacity. `spot_racks` is the set of
    /// racks currently holding or requesting spot capacity (their
    /// reference is their guaranteed capacity rather than their current
    /// reading).
    #[must_use]
    pub fn predict(
        &self,
        topology: &PowerTopology,
        meter: &PowerMeter,
        spot_racks: impl IntoIterator<Item = RackId>,
    ) -> PredictedSpot {
        self.predict_from(topology, meter, spot_racks, None).spot
    }

    /// Like [`SpotPredictor::predict`], but degrades gracefully when
    /// meter readings are stale. `now` is the slot being predicted for;
    /// references normally come from slot `now − 1`, and each slot a
    /// rack's latest reading lags behind that counts as one slot of
    /// staleness. A stale rack's reference is padded by
    /// `penalty_per_slot · age` (still clamped to its guarantee, which
    /// stays the hard physical bound). Past `max_age_slots` — or for a
    /// rack never read at all — the rack's reference is its full
    /// guarantee *and* its PDU's spot capacity is withheld outright.
    ///
    /// With every reading fresh (age 0) the result is bit-identical to
    /// [`SpotPredictor::predict`].
    #[must_use]
    pub fn predict_with_staleness(
        &self,
        topology: &PowerTopology,
        meter: &PowerMeter,
        spot_racks: impl IntoIterator<Item = RackId>,
        now: Slot,
        policy: StalenessPolicy,
    ) -> DegradedPrediction {
        self.predict_from(topology, meter, spot_racks, Some((now, policy)))
    }

    /// The per-rack reference loop behind both entry points. Without a
    /// staleness policy every rack's latest reading counts as fresh
    /// (zero for a rack never read) and nothing is withheld.
    fn predict_from(
        &self,
        topology: &PowerTopology,
        meter: &PowerMeter,
        spot_racks: impl IntoIterator<Item = RackId>,
        staleness: Option<(Slot, StalenessPolicy)>,
    ) -> DegradedPrediction {
        let spot_set: BTreeSet<RackId> = spot_racks.into_iter().collect();
        let mut pdu_ref = vec![Watts::ZERO; topology.pdu_count()];
        let mut total_ref = Watts::ZERO;
        let mut withheld = vec![false; topology.pdu_count()];
        let mut stale_racks = 0u64;
        for rack in topology.racks() {
            let reference = if spot_set.contains(&rack.id()) {
                rack.guaranteed()
            } else {
                // The rack's usable reading and the widening its age
                // costs; `None` when too stale (or never read).
                let reading = match staleness {
                    None => Some((meter.rack_power(rack.id()), Watts::ZERO)),
                    Some((now, policy)) => meter
                        .last_known_good(rack.id(), Slot::new(now.index().saturating_sub(1)))
                        .filter(|&(_, age)| age <= policy.max_age_slots)
                        .map(|(reading, age)| {
                            stale_racks += u64::from(age > 0);
                            (reading.power, policy.penalty_per_slot * age as f64)
                        }),
                };
                match reading {
                    Some((base, widening)) => {
                        let padded = match self.policy {
                            MarginPolicy::Scale(_) => base,
                            MarginPolicy::Adaptive { ramp_multiplier } => {
                                base + worst_upward_ramp(meter, rack.id()) * ramp_multiplier
                            }
                        };
                        // A rack may not exceed its guarantee without a
                        // grant, so the reference never exceeds it either.
                        (padded + widening).min(rack.guaranteed())
                    }
                    None => {
                        // Assume the worst and close the whole PDU to
                        // spot this slot.
                        stale_racks += 1;
                        withheld[rack.pdu().index()] = true;
                        rack.guaranteed()
                    }
                }
            };
            pdu_ref[rack.pdu().index()] += reference;
            total_ref += reference;
        }
        let factor = self.factor();
        let pdu: Vec<Watts> = topology
            .pdus()
            .map(|p| {
                if withheld[p.index()] {
                    return Watts::ZERO;
                }
                let cap = topology.pdu_capacity(p).expect("pdu from topology");
                ((cap - pdu_ref[p.index()]) * factor).clamp_non_negative()
            })
            .collect();
        let ups = ((topology.ups_capacity() - total_ref) * factor).clamp_non_negative();
        DegradedPrediction {
            spot: PredictedSpot { pdu, ups },
            stale_racks,
            withheld_pdus: withheld.iter().filter(|&&w| w).count() as u64,
        }
    }
}

/// Cross-slot cache for [`SpotPredictor::predict_cached`]: per-rack
/// prediction references plus the inputs they were derived from, so
/// only racks whose observed draw (or market participation) actually
/// changed are recomputed each slot. No product caller — the pipeline
/// predicts uncached (DESIGN.md §11 has the measurements); kept for the
/// benchmark's `core.prediction.predict_cached` row.
///
/// The per-PDU and UPS sums are *not* cached — they are re-accumulated
/// in rack order on every call, because incrementally patching a float
/// sum (`sum − old + new`) accumulates in a different order and would
/// break bit-for-bit determinism against [`SpotPredictor::predict`].
#[derive(Debug, Clone, Default)]
pub struct PredictionScratch {
    /// Whether the per-rack vectors below hold valid data.
    initialized: bool,
    /// Cached reference power per rack, in topology rack order.
    refs: Vec<Watts>,
    /// Bit pattern of the meter reading each reference was derived from.
    reading_bits: Vec<u64>,
    /// Whether the rack was a spot participant when cached.
    member: Vec<bool>,
    /// Reusable per-PDU accumulation buffer.
    pdu_ref: Vec<Watts>,
}

impl PredictionScratch {
    /// An empty scratch; the first `predict_cached` call fills it.
    #[must_use]
    pub fn new() -> Self {
        PredictionScratch::default()
    }

    /// Resizes the per-rack vectors for `racks`/`pdus`, invalidating
    /// the cache if the shape changed.
    fn reshape(&mut self, racks: usize, pdus: usize) {
        if self.refs.len() != racks {
            self.initialized = false;
            self.refs.resize(racks, Watts::ZERO);
            self.reading_bits.resize(racks, 0);
            self.member.resize(racks, false);
        }
        self.pdu_ref.clear();
        self.pdu_ref.resize(pdus, Watts::ZERO);
    }
}

impl SpotPredictor {
    /// Like [`SpotPredictor::predict`], but reuses `scratch` to skip
    /// recomputing the reference of every rack whose meter reading and
    /// participation are unchanged since the previous call — the common
    /// case slot-over-slot, where PDU power moves ±2.5 % (Fig. 7a) and
    /// most racks' readings are literally identical trace samples. No
    /// product caller; kept for `core.prediction.predict_cached` (see
    /// [`PredictionScratch`]).
    ///
    /// Bit-identical to [`SpotPredictor::predict`]: cached references
    /// are compared on exact reading bit patterns, and the capacity
    /// sums are re-accumulated in rack order every call. The
    /// [`MarginPolicy::Adaptive`] policy reads the whole metering
    /// history, not just the latest sample, so it delegates to the
    /// uncached path.
    #[must_use]
    pub fn predict_cached(
        &self,
        topology: &PowerTopology,
        meter: &PowerMeter,
        spot_racks: impl IntoIterator<Item = RackId>,
        scratch: &mut PredictionScratch,
    ) -> PredictedSpot {
        if let MarginPolicy::Adaptive { .. } = self.policy {
            return self.predict(topology, meter, spot_racks);
        }
        let spot_set: BTreeSet<RackId> = spot_racks.into_iter().collect();
        scratch.reshape(topology.rack_count(), topology.pdu_count());
        let mut total_ref = Watts::ZERO;
        for (i, rack) in topology.racks().enumerate() {
            let member = spot_set.contains(&rack.id());
            let bits = meter.rack_power(rack.id()).value().to_bits();
            if !scratch.initialized
                || scratch.member[i] != member
                || scratch.reading_bits[i] != bits
            {
                scratch.refs[i] = if member {
                    rack.guaranteed()
                } else {
                    meter.rack_power(rack.id()).min(rack.guaranteed())
                };
                scratch.member[i] = member;
                scratch.reading_bits[i] = bits;
            }
            scratch.pdu_ref[rack.pdu().index()] += scratch.refs[i];
            total_ref += scratch.refs[i];
        }
        scratch.initialized = true;
        let factor = self.factor();
        let pdu = topology
            .pdus()
            .map(|p| {
                let cap = topology.pdu_capacity(p).expect("pdu from topology");
                ((cap - scratch.pdu_ref[p.index()]) * factor).clamp_non_negative()
            })
            .collect();
        let ups = ((topology.ups_capacity() - total_ref) * factor).clamp_non_negative();
        PredictedSpot { pdu, ups }
    }
}

impl Default for SpotPredictor {
    fn default() -> Self {
        SpotPredictor::exact()
    }
}

/// The largest slot-over-slot power increase in `rack`'s retained
/// metering history (zero with fewer than two readings).
fn worst_upward_ramp(meter: &PowerMeter, rack: RackId) -> Watts {
    let history = meter.history(rack);
    history
        .windows(2)
        .map(|w| (w[1].power - w[0].power).clamp_non_negative())
        .fold(Watts::ZERO, Watts::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotdc_power::topology::TopologyBuilder;
    use spotdc_units::{Slot, TenantId};

    fn setup() -> (PowerTopology, PowerMeter) {
        let topo = TopologyBuilder::new(Watts::new(500.0))
            .pdu(Watts::new(300.0))
            .rack(TenantId::new(0), Watts::new(100.0), Watts::new(50.0))
            .rack(TenantId::new(1), Watts::new(150.0), Watts::ZERO)
            .pdu(Watts::new(300.0))
            .rack(TenantId::new(2), Watts::new(200.0), Watts::new(60.0))
            .build()
            .unwrap();
        let mut meter = PowerMeter::new(&topo, 4).unwrap();
        meter.record(Slot::ZERO, RackId::new(0), Watts::new(60.0));
        meter.record(Slot::ZERO, RackId::new(1), Watts::new(90.0));
        meter.record(Slot::ZERO, RackId::new(2), Watts::new(120.0));
        (topo, meter)
    }

    #[test]
    fn references_use_readings_for_non_participants() {
        let (topo, meter) = setup();
        let spot = SpotPredictor::exact().predict(&topo, &meter, []);
        assert_eq!(spot.pdu[0], Watts::new(150.0)); // 300 - 60 - 90
        assert_eq!(spot.pdu[1], Watts::new(180.0)); // 300 - 120
        assert_eq!(spot.ups, Watts::new(230.0)); // 500 - 270
    }

    #[test]
    fn spot_racks_reserve_their_full_guarantee() {
        let (topo, meter) = setup();
        let spot = SpotPredictor::exact().predict(&topo, &meter, [RackId::new(0)]);
        // Rack 0 counts as 100 (guarantee) instead of 60 (reading).
        assert_eq!(spot.pdu[0], Watts::new(110.0));
        assert_eq!(spot.ups, Watts::new(190.0));
    }

    #[test]
    fn readings_above_guarantee_are_clamped() {
        let (topo, mut meter) = setup();
        // Rack 1 briefly reads above its 150 W guarantee.
        meter.record(Slot::new(1), RackId::new(1), Watts::new(170.0));
        let spot = SpotPredictor::exact().predict(&topo, &meter, []);
        assert_eq!(spot.pdu[0], Watts::new(90.0)); // 300 - 60 - 150
    }

    #[test]
    fn under_prediction_scales_everything() {
        let (topo, meter) = setup();
        let exact = SpotPredictor::exact().predict(&topo, &meter, []);
        let under = SpotPredictor::under_predicting(15.0).predict(&topo, &meter, []);
        for (u, e) in under.pdu.iter().zip(&exact.pdu) {
            assert!(u.approx_eq(*e * 0.85, 1e-9));
        }
        assert!(under.ups.approx_eq(exact.ups * 0.85, 1e-9));
    }

    #[test]
    fn never_negative_even_when_overcommitted() {
        // Oversubscribed PDU fully loaded: raw spot would be negative.
        let topo = TopologyBuilder::new(Watts::new(100.0))
            .pdu(Watts::new(100.0))
            .rack(TenantId::new(0), Watts::new(120.0), Watts::ZERO)
            .build()
            .unwrap();
        let mut meter = PowerMeter::new(&topo, 4).unwrap();
        meter.record(Slot::ZERO, RackId::new(0), Watts::new(115.0));
        let spot = SpotPredictor::exact().predict(&topo, &meter, []);
        assert_eq!(spot.pdu[0], Watts::ZERO);
        assert_eq!(spot.ups, Watts::ZERO);
    }

    #[test]
    fn unread_racks_count_zero_reference() {
        let topo = TopologyBuilder::new(Watts::new(100.0))
            .pdu(Watts::new(100.0))
            .rack(TenantId::new(0), Watts::new(50.0), Watts::ZERO)
            .build()
            .unwrap();
        let meter = PowerMeter::new(&topo, 4).unwrap();
        let spot = SpotPredictor::exact().predict(&topo, &meter, []);
        assert_eq!(spot.pdu[0], Watts::new(100.0));
    }

    #[test]
    fn total_pdu_helper() {
        let (topo, meter) = setup();
        let spot = SpotPredictor::exact().predict(&topo, &meter, []);
        assert_eq!(spot.total_pdu(), Watts::new(330.0));
    }

    #[test]
    fn adaptive_predictor_pads_by_worst_ramp() {
        let (topo, mut meter) = setup();
        // Rack 0 ramped +15 W then -5 W: worst upward ramp is 15 W.
        meter.record(Slot::new(1), RackId::new(0), Watts::new(75.0));
        meter.record(Slot::new(2), RackId::new(0), Watts::new(70.0));
        let exact = SpotPredictor::exact().predict(&topo, &meter, []);
        let adaptive = SpotPredictor::adaptive(1.0).predict(&topo, &meter, []);
        // Rack 0's reference is padded by 15 W; others are flat.
        assert!(adaptive.pdu[0].approx_eq(exact.pdu[0] - Watts::new(15.0), 1e-9));
        assert!(adaptive.ups <= exact.ups);
    }

    #[test]
    fn adaptive_equals_exact_on_flat_history() {
        let (topo, mut meter) = setup();
        for slot in 1..4 {
            meter.record(Slot::new(slot), RackId::new(0), Watts::new(60.0));
            meter.record(Slot::new(slot), RackId::new(1), Watts::new(90.0));
            meter.record(Slot::new(slot), RackId::new(2), Watts::new(120.0));
        }
        let exact = SpotPredictor::exact().predict(&topo, &meter, []);
        let adaptive = SpotPredictor::adaptive(2.0).predict(&topo, &meter, []);
        assert_eq!(exact, adaptive);
    }

    #[test]
    fn adaptive_padding_respects_the_guarantee_clamp() {
        let (topo, mut meter) = setup();
        // A huge ramp cannot push the reference past the guarantee.
        meter.record(Slot::new(1), RackId::new(0), Watts::new(95.0));
        let adaptive = SpotPredictor::adaptive(10.0).predict(&topo, &meter, []);
        // Reference clamped at 100 W guarantee: spot = 300 - 100 - 90.
        assert_eq!(adaptive.pdu[0], Watts::new(110.0));
    }

    #[test]
    fn staleness_fallback_matches_exact_when_fresh() {
        let (topo, meter) = setup();
        let exact = SpotPredictor::exact().predict(&topo, &meter, [RackId::new(0)]);
        let degraded = SpotPredictor::exact().predict_with_staleness(
            &topo,
            &meter,
            [RackId::new(0)],
            Slot::new(1),
            StalenessPolicy::paper_default(),
        );
        assert!(!degraded.is_degraded());
        assert_eq!(degraded.spot, exact);
    }

    #[test]
    fn stale_readings_widen_the_margin() {
        let (topo, meter) = setup();
        let policy = StalenessPolicy::paper_default();
        // Readings are from slot 0; predicting for slot 4 expects slot
        // 3 readings, so every rack is 3 slots stale: references are
        // padded by 30 W each, shrinking predicted spot.
        let fresh = SpotPredictor::exact().predict(&topo, &meter, []);
        let stale =
            SpotPredictor::exact().predict_with_staleness(&topo, &meter, [], Slot::new(4), policy);
        assert_eq!(stale.stale_racks, 3);
        assert_eq!(stale.withheld_pdus, 0);
        // PDU 0: refs 60+30=90 and 90+30=120 ⇒ spot 300-210 = 90.
        assert_eq!(stale.spot.pdu[0], Watts::new(90.0));
        assert!(stale.spot.pdu[0] < fresh.pdu[0]);
        assert!(stale.spot.ups < fresh.ups);
    }

    #[test]
    fn excessive_staleness_withholds_the_pdu() {
        let (topo, mut meter) = setup();
        let policy = StalenessPolicy::paper_default();
        // Refresh PDU 1's rack so only PDU 0's racks go over the bound.
        meter.record(Slot::new(9), RackId::new(2), Watts::new(120.0));
        let degraded =
            SpotPredictor::exact().predict_with_staleness(&topo, &meter, [], Slot::new(10), policy);
        // PDU 0's racks are 9 slots stale (> 5): the PDU sells nothing.
        assert_eq!(degraded.spot.pdu[0], Watts::ZERO);
        assert_eq!(degraded.withheld_pdus, 1);
        // PDU 1 is fresh and unaffected.
        assert_eq!(degraded.spot.pdu[1], Watts::new(180.0));
        // Withheld racks count as their full guarantee at the UPS.
        assert_eq!(degraded.spot.ups, Watts::new(130.0)); // 500-100-150-120
    }

    #[test]
    fn never_read_rack_withholds_its_pdu() {
        let topo = TopologyBuilder::new(Watts::new(100.0))
            .pdu(Watts::new(100.0))
            .rack(TenantId::new(0), Watts::new(50.0), Watts::ZERO)
            .build()
            .unwrap();
        let meter = PowerMeter::new(&topo, 4).unwrap();
        let degraded = SpotPredictor::exact().predict_with_staleness(
            &topo,
            &meter,
            [],
            Slot::ZERO,
            StalenessPolicy::paper_default(),
        );
        assert_eq!(degraded.spot.pdu[0], Watts::ZERO);
        assert_eq!(degraded.withheld_pdus, 1);
    }

    #[test]
    #[should_panic(expected = "under-prediction must be in [0,100)")]
    fn full_under_prediction_rejected() {
        let _ = SpotPredictor::under_predicting(100.0);
    }

    #[test]
    fn cached_prediction_matches_uncached_across_changes() {
        let (topo, mut meter) = setup();
        let predictor = SpotPredictor::under_predicting(10.0);
        let mut scratch = PredictionScratch::new();
        // Slot-by-slot script: unchanged readings, one rack moving,
        // membership flips, a rack pinned at its guarantee clamp.
        type Step = (Vec<(usize, f64)>, Vec<RackId>);
        let script: Vec<Step> = vec![
            (vec![], vec![]),
            (vec![], vec![]),                        // nothing changed
            (vec![(0, 75.0)], vec![]),               // one rack moved
            (vec![], vec![RackId::new(0)]),          // membership flip
            (vec![(1, 90.0)], vec![RackId::new(0)]), // same value re-recorded
            (vec![(2, 250.0)], vec![]),              // above guarantee
            (vec![(0, 60.0), (2, 120.0)], vec![]),   // two racks move back
        ];
        for (slot, (updates, members)) in script.into_iter().enumerate() {
            for (rack, w) in updates {
                meter.record(Slot::new(slot as u64 + 1), RackId::new(rack), Watts::new(w));
            }
            let cached =
                predictor.predict_cached(&topo, &meter, members.iter().copied(), &mut scratch);
            let uncached = predictor.predict(&topo, &meter, members.iter().copied());
            assert_eq!(cached, uncached, "slot {slot} diverged");
        }
    }

    #[test]
    fn cached_prediction_adaptive_delegates_to_uncached() {
        let (topo, mut meter) = setup();
        meter.record(Slot::new(1), RackId::new(0), Watts::new(75.0));
        let predictor = SpotPredictor::adaptive(1.5);
        let mut scratch = PredictionScratch::new();
        let cached = predictor.predict_cached(&topo, &meter, [], &mut scratch);
        let uncached = predictor.predict(&topo, &meter, []);
        assert_eq!(cached, uncached);
        // The scratch stays untouched (the delegate path never fills it).
        assert!(!scratch.initialized);
    }

    #[test]
    fn prediction_scratch_survives_topology_reshape() {
        let (topo, meter) = setup();
        let predictor = SpotPredictor::exact();
        let mut scratch = PredictionScratch::new();
        let _ = predictor.predict_cached(&topo, &meter, [], &mut scratch);
        // A different (smaller) topology with its own meter: the
        // scratch must invalidate rather than reuse stale references.
        let small = TopologyBuilder::new(Watts::new(100.0))
            .pdu(Watts::new(100.0))
            .rack(TenantId::new(0), Watts::new(50.0), Watts::ZERO)
            .build()
            .unwrap();
        let mut small_meter = PowerMeter::new(&small, 4).unwrap();
        small_meter.record(Slot::ZERO, RackId::new(0), Watts::new(30.0));
        let cached = predictor.predict_cached(&small, &small_meter, [], &mut scratch);
        let uncached = predictor.predict(&small, &small_meter, []);
        assert_eq!(cached, uncached);
    }
}
