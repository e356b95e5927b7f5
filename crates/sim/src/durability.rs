//! Checkpoint and slot-log *policy*: what engine state persists, and
//! how it comes back.
//!
//! The mechanism layer (CRC framing, atomic replacement, the WAL file
//! format) lives in `spotdc-durable`; this module decides the contents.
//! Two artifacts exist:
//!
//! * [`EngineSnapshot`] — the cross-slot market state at a slot
//!   boundary, O(racks + tenants) whatever the horizon. Everything *not*
//!   captured here is provably rebuildable: the topology, operator,
//!   fault plan and trace cursors (re-stepped to `slots_done`) are pure
//!   functions of the scenario and config (every fault verdict is a hash
//!   of `(seed, slot, target)`, so a snapshot carries no RNG state); per-slot
//!   scratch, the scenario's valuation-row caches (as warm as its other
//!   runs left them) and the prediction cache are bit-transparent
//!   (warm-vs-cold equality is pinned by tests) and clearing keeps no
//!   state between slots (only buffers it rebuilds);
//!   the agents' load intensities are dead at a slot boundary (`Sense`,
//!   the first stage of every composition, observes every agent before
//!   any stage reads one); the emergency detector keeps only its
//!   capacities, so a run's overloads persist as the report's two
//!   counters and the cap controller's holds; and the rack-PDU bank is
//!   excluded because the Sense stage unconditionally resets every
//!   budget at the top of each slot, so nothing the bank holds at a slot
//!   boundary survives into the next slot.
//! * The slot log (`records.wal`, see `encode_slot_frame`) — one frame
//!   per finished slot, appended and never rewritten: the slot's
//!   delivered bids and market outcome ([`encode_wal_record`]'s bytes,
//!   length-prefixed and never decoded), then its [`SlotRecord`]. It is
//!   synced before every checkpoint, so a snapshot's `slots_done` names
//!   frames that are on media. Recovery does **not** rebuild state from
//!   the frames past the snapshot: it re-simulates those slots (the
//!   engine is deterministic) and requires each re-encoded frame to
//!   equal the logged one byte for byte, so any divergence between the
//!   persisted history and the replay is detected instead of silently
//!   accepted. The frames the snapshot covers are the report's records.
//!
//! Float fields travel as IEEE-754 bit patterns end to end, which is
//! what makes "resumed report == uninterrupted report" an equality of
//! bytes, not an approximation.

use spotdc_core::{RackBid, TenantBid};
use spotdc_durable::{DecodeError, Decoder, Encoder, Persist};
use spotdc_power::PowerMeter;
use spotdc_units::{Price, RackId, Slot, TenantId, Watts};

use crate::baselines::Mode;
use crate::metrics::{SlotRecord, TenantSlotMetrics};
use crate::pipeline::{SimState, SlotContext, Stage, METER_HISTORY_LEN};

/// Snapshot format version; bump on any layout change, of the snapshot
/// or of the slot log beside it.
pub const SNAPSHOT_FORMAT: u32 = 8;

/// The stable tag a [`Mode`] serializes as.
#[must_use]
pub fn mode_tag(mode: Mode) -> u8 {
    match mode {
        Mode::PowerCapped => 0,
        Mode::SpotDc => 1,
        Mode::MaxPerf => 2,
    }
}

impl Persist for TenantSlotMetrics {
    fn persist(&self, enc: &mut Encoder) {
        enc.put_bool(self.wanted);
        enc.put_f64(self.grant);
        enc.put_f64(self.draw);
        enc.put_f64(self.perf_index);
        self.slo_met.persist(enc);
        enc.put_f64(self.cost_rate);
        enc.put_f64(self.payment);
    }
    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(TenantSlotMetrics {
            wanted: dec.get_bool()?,
            grant: dec.get_f64()?,
            draw: dec.get_f64()?,
            perf_index: dec.get_f64()?,
            slo_met: Option::<bool>::restore(dec)?,
            cost_rate: dec.get_f64()?,
            payment: dec.get_f64()?,
        })
    }
}

impl Persist for SlotRecord {
    fn persist(&self, enc: &mut Encoder) {
        enc.put_u64(self.slot);
        self.price.persist(enc);
        enc.put_f64(self.spot_available);
        enc.put_f64(self.spot_sold);
        enc.put_f64(self.ups_power);
        self.pdu_power.persist(enc);
        self.tenants.persist(enc);
    }
    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(SlotRecord {
            slot: dec.get_u64()?,
            price: Option::<f64>::restore(dec)?,
            spot_available: dec.get_f64()?,
            spot_sold: dec.get_f64()?,
            ups_power: dec.get_f64()?,
            pdu_power: Vec::<f64>::restore(dec)?,
            tenants: Vec::<TenantSlotMetrics>::restore(dec)?,
        })
    }
}

/// Every reading the meter retains per rack (its lag view needs the one
/// before a full history) in portable `(slot, watts)` form, oldest first
/// — exactly the replay argument order for `PowerMeter::record`.
type MeterHistory = Vec<Vec<(u64, f64)>>;

fn capture_meter(meter: &PowerMeter) -> MeterHistory {
    (0..meter.rack_count())
        .map(|i| {
            meter
                .retained(RackId::new(i))
                .map(|r| (r.slot.index(), r.power.value()))
                .collect()
        })
        .collect()
}

/// Replays `history` into a fresh meter, refusing a row longer than a
/// meter retains (replayed, it would evict silently). The caller has
/// checked it holds one row per rack of `topology`.
fn rebuild_meter(
    history: &MeterHistory,
    topology: &spotdc_power::topology::PowerTopology,
) -> Result<PowerMeter, DecodeError> {
    let mut meter = PowerMeter::new(topology, METER_HISTORY_LEN)
        .map_err(|e| DecodeError::Invalid(format!("meter rebuild: {e}")))?;
    for (i, readings) in history.iter().enumerate() {
        if readings.len() > METER_HISTORY_LEN + 1 {
            return Err(DecodeError::Invalid(format!(
                "snapshot meter row {i} holds {} readings, at most {} fit",
                readings.len(),
                METER_HISTORY_LEN + 1
            )));
        }
        for &(slot, power) in readings {
            // Recorded values already passed the meter's non-negative
            // clamp once, so replaying them is exact.
            meter.record(Slot::new(slot), RackId::new(i), Watts::new(power));
        }
    }
    Ok(meter)
}

/// The complete cross-slot engine state at a slot boundary.
///
/// `PartialEq`/`Clone`/`Debug` exist for the round-trip property tests;
/// float comparisons are fine because every field round-trips by bit
/// pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineSnapshot {
    /// Snapshot layout version ([`SNAPSHOT_FORMAT`]).
    pub format: u32,
    /// Operating mode tag ([`mode_tag`]).
    pub mode: u8,
    /// Scenario master seed.
    pub seed: u64,
    /// Rack count, for mismatch detection before any restore runs.
    pub rack_count: u64,
    /// Tenant-agent count.
    pub agent_count: u64,
    /// PDU count.
    pub pdu_count: u64,
    /// Slots fully simulated when the snapshot was cut.
    pub slots_done: u64,
    /// Every retained observed meter reading, per rack, oldest first.
    pub meter: MeterHistory,
    /// Overloads beyond the breaker-tolerance band so far.
    pub emergencies: u64,
    /// Overloads within the breaker-tolerance band so far.
    pub transient_overshoots: u64,
    /// Cap-controller hysteresis holds, when the controller is enabled,
    /// including those the last simulated slot's overloads started.
    pub cap_hold: Option<(Vec<Option<u64>>, Option<u64>)>,
    /// Per-agent predicted price. (No intensity: `Sense`, the first
    /// stage of every slot, observes every agent's load before anything
    /// reads it.)
    pub agents: Vec<Option<f64>>,
    /// Physical rack draws of the last simulated slot, watts.
    pub true_draw: Vec<f64>,
    /// Per-PDU base load of the last simulated slot, watts.
    pub prev_base_pdu: Vec<f64>,
    /// Total faults injected so far.
    pub faults_injected: u64,
    /// Degraded slots so far.
    pub degraded_slots: u64,
    /// Invariant violations so far.
    pub invariant_violations: u64,
    /// Bids a fault made late in the last simulated slot, which
    /// `CollectBids` delivers in the next one.
    pub late_bids: Vec<TenantBid>,
}

impl Persist for EngineSnapshot {
    fn persist(&self, enc: &mut Encoder) {
        enc.put_u32(self.format);
        enc.put_u8(self.mode);
        enc.put_u64(self.seed);
        enc.put_u64(self.rack_count);
        enc.put_u64(self.agent_count);
        enc.put_u64(self.pdu_count);
        enc.put_u64(self.slots_done);
        self.meter.persist(enc);
        enc.put_u64(self.emergencies);
        enc.put_u64(self.transient_overshoots);
        self.cap_hold.persist(enc);
        self.agents.persist(enc);
        self.true_draw.persist(enc);
        self.prev_base_pdu.persist(enc);
        enc.put_u64(self.faults_injected);
        enc.put_u64(self.degraded_slots);
        enc.put_u64(self.invariant_violations);
        encode_tenant_bids(enc, &self.late_bids);
    }

    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let format = dec.get_u32()?;
        if format != SNAPSHOT_FORMAT {
            return Err(DecodeError::Invalid(format!(
                "snapshot format {format}, this build reads {SNAPSHOT_FORMAT}"
            )));
        }
        Ok(EngineSnapshot {
            format,
            mode: dec.get_u8()?,
            seed: dec.get_u64()?,
            rack_count: dec.get_u64()?,
            agent_count: dec.get_u64()?,
            pdu_count: dec.get_u64()?,
            slots_done: dec.get_u64()?,
            meter: MeterHistory::restore(dec)?,
            emergencies: dec.get_u64()?,
            transient_overshoots: dec.get_u64()?,
            cap_hold: Option::<(Vec<Option<u64>>, Option<u64>)>::restore(dec)?,
            agents: Vec::<Option<f64>>::restore(dec)?,
            true_draw: Vec::<f64>::restore(dec)?,
            prev_base_pdu: Vec::<f64>::restore(dec)?,
            faults_injected: dec.get_u64()?,
            degraded_slots: dec.get_u64()?,
            invariant_violations: dec.get_u64()?,
            late_bids: decode_tenant_bids(dec)?,
        })
    }
}

impl EngineSnapshot {
    /// Captures the full cross-slot state after `slots_done` completed
    /// slots.
    #[must_use]
    pub fn capture(
        state: &SimState,
        stages: &[Stage],
        mode: Mode,
        seed: u64,
        slots_done: u64,
    ) -> Self {
        EngineSnapshot {
            format: SNAPSHOT_FORMAT,
            mode: mode_tag(mode),
            seed,
            rack_count: state.topology.rack_count() as u64,
            agent_count: state.agents.len() as u64,
            pdu_count: state.topology.pdu_count() as u64,
            slots_done,
            meter: capture_meter(&state.meter),
            emergencies: state.report.emergencies as u64,
            transient_overshoots: state.report.transient_overshoots as u64,
            cap_hold: state
                .cap
                .as_ref()
                .map(spotdc_power::CapController::hold_state),
            agents: state
                .agents
                .iter()
                .map(|a| a.predicted_price().map(Price::per_kw_hour_value))
                .collect(),
            true_draw: state.true_draw.iter().map(|w| w.value()).collect(),
            prev_base_pdu: state.prev_base_pdu.iter().map(|w| w.value()).collect(),
            faults_injected: state.report.faults_injected as u64,
            degraded_slots: state.report.degraded_slots as u64,
            invariant_violations: state.report.invariant_violations as u64,
            late_bids: stages
                .iter()
                .find_map(|stage| match stage {
                    Stage::CollectBids { late_bids, .. } => Some(late_bids.clone()),
                    _ => None,
                })
                .unwrap_or_default(),
        }
    }

    /// Encodes the snapshot as the checkpoint payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        self.persist(&mut enc);
        enc.into_bytes()
    }

    /// Decodes a checkpoint payload, requiring every byte consumed.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] for a truncated, damaged, or
    /// wrong-version payload.
    pub fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut dec = Decoder::new(bytes);
        let snap = EngineSnapshot::restore(&mut dec)?;
        dec.finish()?;
        Ok(snap)
    }

    /// Applies the checkpoint covering `slots_done` slots onto a fresh
    /// `SimState` + stage sequence, leaving them as they were when it was
    /// cut, but for the report's records (the slot log's first
    /// `slots_done` frames, `decode_slot_record`), the agents' load
    /// intensities (`Sense` sets those before any stage reads them) and
    /// the trace cursors, re-stepped to slot `slots_done` (their samplers
    /// would put the RNG's state in the format). Validate, then apply: a
    /// checksum only proves the bytes are the ones written, so its slot
    /// count and every length the engine will index by are checked
    /// against this run before the first assignment to `state`.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] when the snapshot does not belong to
    /// this run (mode/seed/shape mismatch), covers another slot count
    /// than `slots_done`, or is inconsistent with its own header.
    pub fn apply(
        &self,
        state: &mut SimState,
        stages: &mut [Stage],
        mode: Mode,
        seed: u64,
        slots_done: u64,
    ) -> Result<(), DecodeError> {
        let racks = state.topology.rack_count() as u64;
        let agents = state.agents.len() as u64;
        let pdus = state.topology.pdu_count() as u64;
        let cap_holds = self.cap_hold.as_ref().map(|(pdu_hold, _)| pdu_hold.len());
        let expected = [
            ("mode", u64::from(self.mode), u64::from(mode_tag(mode))),
            ("seed", self.seed, seed),
            ("slots_done", self.slots_done, slots_done),
            ("rack count", self.rack_count, racks),
            ("agent count", self.agent_count, agents),
            ("pdu count", self.pdu_count, pdus),
            ("meter rows", self.meter.len() as u64, racks),
            ("true_draw length", self.true_draw.len() as u64, racks),
            ("agents length", self.agents.len() as u64, agents),
            (
                "prev_base_pdu length",
                self.prev_base_pdu.len() as u64,
                pdus,
            ),
            (
                "cap_hold length",
                cap_holds.map_or(pdus, |n| n as u64),
                pdus,
            ),
            (
                "cap_hold presence",
                u64::from(self.cap_hold.is_some()),
                u64::from(state.cap.is_some()),
            ),
        ];
        for (what, snap, run) in expected {
            if snap != run {
                return Err(DecodeError::Invalid(format!(
                    "snapshot {what} is {snap}, this run expects {run}"
                )));
            }
        }
        let meter = rebuild_meter(&self.meter, &state.topology)?;

        for stage in stages {
            if let Stage::CollectBids { late_bids, .. } = stage {
                late_bids.clone_from(&self.late_bids);
            }
        }
        state.meter = meter;
        if let (Some(cap), Some((pdu_hold, ups_hold))) = (&mut state.cap, &self.cap_hold) {
            cap.restore_hold_state(pdu_hold.clone(), *ups_hold);
        }
        for (agent, &price) in state.agents.iter_mut().zip(&self.agents) {
            agent.predict_price(price.map(Price::per_kw_hour));
        }
        state.true_draw = self.true_draw.iter().map(|&w| Watts::new(w)).collect();
        state.prev_base_pdu = self.prev_base_pdu.iter().map(|&w| Watts::new(w)).collect();
        state.report.emergencies = self.emergencies as usize;
        state.report.transient_overshoots = self.transient_overshoots as usize;
        state.report.faults_injected = self.faults_injected as usize;
        state.report.degraded_slots = self.degraded_slots as usize;
        state.report.invariant_violations = self.invariant_violations as usize;
        state.cursors.seek(slots_done as usize);
        Ok(())
    }
}

/// Encodes one finished slot's slot-log frame: its journal bytes
/// ([`encode_wal_record`] of the post-settle context), length-prefixed,
/// then its [`SlotRecord`]. A replayed slot's frame is compared with
/// the logged one byte for byte, so both parts are checked.
#[must_use]
pub(crate) fn encode_slot_frame(ctx: &SlotContext, record: &SlotRecord) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_bytes(&encode_wal_record(ctx));
    record.persist(&mut enc);
    enc.into_bytes()
}

/// Decodes the record of slot-log frame `slot`. The frame must hold
/// that slot's record, with one entry per tenant and per PDU of this
/// run, and nothing after it: a CRC proves only that the bytes are the
/// ones written, and the report indexes those vectors. The journal
/// bytes before it are skipped.
///
/// # Errors
///
/// Returns a [`DecodeError`] for a frame that does not decode to slot
/// `slot`'s record of this run's shape.
pub(crate) fn decode_slot_record(
    frame: &[u8],
    slot: u64,
    tenants: usize,
    pdus: usize,
) -> Result<SlotRecord, DecodeError> {
    let mut dec = Decoder::new(frame);
    dec.get_bytes()?;
    let record = SlotRecord::restore(&mut dec)?;
    dec.finish()?;
    let shape = (record.slot, record.tenants.len(), record.pdu_power.len());
    if shape != (slot, tenants, pdus) {
        return Err(DecodeError::Invalid(format!(
            "record-log frame {slot} holds (slot, tenants, pdus) {shape:?}, \
             this run expects {:?}",
            (slot, tenants, pdus)
        )));
    }
    Ok(record)
}

/// Encodes one slot's journal record from the post-settle context: the
/// slot number, the degradation verdict, the market outcome, and the
/// bids exactly as they were delivered (`ctx.bids` is
/// stable after CollectBids; `ctx.rack_bids` is not — the validating
/// clear pass overwrites it). It opens the slot's slot-log frame
/// (`encode_slot_frame`).
#[must_use]
pub fn encode_wal_record(ctx: &SlotContext) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_u64(ctx.slot.index());
    enc.put_bool(ctx.slot_degraded);
    ctx.price.persist(&mut enc);
    enc.put_f64(ctx.spot_sold);
    encode_tenant_bids(&mut enc, &ctx.bids);
    enc.into_bytes()
}

/// Serializes tenant bids (a journal record's delivered bids, a
/// snapshot's late bids). Each rack bid goes through `spotdc-core`'s
/// one binary shape for a demand function, its bytes on the wire.
fn encode_tenant_bids(enc: &mut Encoder, bids: &[TenantBid]) {
    enc.put_usize(bids.len());
    for bid in bids {
        enc.put_usize(bid.tenant().index());
        enc.put_usize(bid.rack_bids().len());
        for rb in bid.rack_bids() {
            rb.persist(enc);
        }
    }
}

/// Deserializes tenant bids written by [`encode_tenant_bids`]. The bid
/// constructors re-validate every invariant, so damaged bytes fail
/// here rather than corrupting the market.
fn decode_tenant_bids(dec: &mut Decoder<'_>) -> Result<Vec<TenantBid>, DecodeError> {
    let n = dec.get_usize()?;
    let mut bids = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let tenant = TenantId::new(dec.get_usize()?);
        let racks = dec.get_usize()?;
        let mut rack_bids = Vec::with_capacity(racks.min(1024));
        for _ in 0..racks {
            rack_bids.push(RackBid::restore(dec)?);
        }
        let bid = TenantBid::new(tenant, rack_bids)
            .map_err(|e| DecodeError::Invalid(format!("restored bid: {e:?}")))?;
        bids.push(bid);
    }
    Ok(bids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotdc_core::{FullBid, LinearBid, StepBid};

    /// Two tenants: a linear and a step bid, then a three-point curve.
    fn sample_bids() -> Vec<TenantBid> {
        let price = Price::per_kw_hour;
        let linear = LinearBid::new(Watts::new(40.0), price(0.05), Watts::new(10.0), price(0.30));
        let step = StepBid::new(Watts::new(25.0), price(0.2));
        let full = FullBid::new(vec![
            (Price::ZERO, Watts::new(60.0)),
            (price(0.1), Watts::new(35.5)),
            (price(0.25), Watts::ZERO),
        ]);
        let first = vec![
            RackBid::new(RackId::new(3), linear.unwrap().into()),
            RackBid::new(RackId::new(4), step.unwrap().into()),
        ];
        let second = vec![RackBid::new(RackId::new(9), full.unwrap().into())];
        vec![
            TenantBid::new(TenantId::new(1), first).unwrap(),
            TenantBid::new(TenantId::new(7), second).unwrap(),
        ]
    }

    /// What the hand-rolled per-variant encoder this module had before
    /// it called `RackBid::persist` wrote for [`sample_bids`]: slot logs
    /// and checkpoints on disk hold these bytes.
    const SAMPLE_HEX: &str = "\
        0200000000000000010000000000000002000000000000000300000000000000\
        0000000000000044409a9999999999a93f0000000000002440333333333333d3\
        3f04000000000000000100000000000039409a9999999999c93f070000000000\
        0000010000000000000009000000000000000203000000000000000000000000\
        0000000000000000004e409a9999999999b93f0000000000c041400000000000\
        00d03f0000000000000000";

    fn encoded(bids: &[TenantBid]) -> Vec<u8> {
        let mut enc = Encoder::new();
        encode_tenant_bids(&mut enc, bids);
        enc.into_bytes()
    }

    #[test]
    fn tenant_bids_keep_their_disk_bytes() {
        let bytes = encoded(&sample_bids());
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, SAMPLE_HEX);
        let mut dec = Decoder::new(&bytes);
        assert_eq!(decode_tenant_bids(&mut dec), Ok(sample_bids()));
        assert_eq!(dec.finish(), Ok(()));
    }

    #[test]
    fn damaged_tenant_bids_are_errors_not_panics() {
        let bytes = encoded(&sample_bids());
        // Torn anywhere: the decoder runs out of bytes.
        for cut in 0..bytes.len() {
            assert!(
                decode_tenant_bids(&mut Decoder::new(&bytes[..cut])).is_err(),
                "cut {cut}"
            );
        }
        // The tail is the three-point curve. Its point count blown up to
        // more points than bytes remain, its demand tag made unknown, and
        // its last demand raised above the one before it (a curve that
        // rises with price) must each be refused.
        let count_at = bytes.len() - 3 * 16 - 8;
        let mut huge = bytes.clone();
        huge[count_at..count_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let mut tagged = bytes.clone();
        tagged[count_at - 1] = 9;
        let mut rising = bytes.clone();
        let last = rising.len() - 8;
        rising[last..].copy_from_slice(&100.0_f64.to_bits().to_le_bytes());
        for (what, bad) in [("count", huge), ("tag", tagged), ("rising", rising)] {
            assert!(
                decode_tenant_bids(&mut Decoder::new(&bad)).is_err(),
                "{what}"
            );
        }
    }
}
