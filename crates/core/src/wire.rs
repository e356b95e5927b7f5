//! Typed wire messages for the distributed controller ↔ agent split.
//!
//! The market distributes along its natural seam: per-PDU sub-markets
//! ([`MarketClearing::per_pdu_submarket_shares`]) become shard-owned tasks,
//! while the controller keeps everything stateful at the market level —
//! bid collection, UPS-level constraint construction, the serial
//! in-order merge, settlement and reporting. Below the market level the
//! protocol is a *session* that holds exactly one thing: the static
//! constraint layers (headrooms, rack→PDU map, zones, phases), shipped
//! once per (re)sync. Bids and gains churn nearly every slot, so every
//! task travels whole every slot — one shipping granularity, no
//! per-task state on either side of the wire.
//!
//! The whole slot travels as **one frame per shard per direction**: a
//! [`WireMsg::SlotFrame`] down (epoch, optional statics, the slot's
//! per-PDU spot vector, every task) and a [`WireMsg::ShardCleared`] up
//! (every result plus the shard's [`ClearingCacheStats`]). An agent
//! that holds no statics for a statics-less frame — fresh restart,
//! epoch gap — answers [`WireMsg::ResyncNeeded`] *without mutating
//! anything*, and the controller re-sends the same frame with the
//! statics attached. A frame either lands on exactly the statics the
//! controller built it against or not at all, which is what keeps
//! reports byte-identical across shard counts, transports, and
//! crash/recovery.
//!
//! Messages travel as [`spotdc_durable::Persist`] payloads inside the
//! shared length-prefix + CRC-32 [`frame`](crate::frame) codec — the
//! same framing the WAL and checkpoints use, not a second
//! implementation. Every field round-trips exactly (floats as IEEE-754
//! bit patterns); a torn or corrupt frame surfaces as a clean error at
//! the framing layer and an undecodable payload as a [`WireError`]
//! here, never a panic.
//!
//! The sequence (see DESIGN.md §15–§16):
//!
//! ```text
//! controller → agent: AssignShard   (setup: shard identity + config)
//! controller → agent: SlotFrame     (every slot: one coalesced frame)
//! agent → controller: ShardCleared  (results + clear counts)
//!               — or: ResyncNeeded  (session can't absorb the frame)
//! controller → agent: SlotFrame     (same frame + statics, epoch bump)
//! agent → controller: ShardCleared
//! controller → agent: Shutdown      (once, at teardown)
//! ```
//!
//! Failure semantics mirror the paper's comms-loss rule ("lost messages
//! ⇒ no spot capacity"): a dead agent or damaged frame degrades that
//! shard's tasks to empty results at the controller — it never invents
//! capacity and never crashes the market.

use std::collections::BTreeMap;

use spotdc_durable::{DecodeError, Decoder, Encoder, Persist};
use spotdc_units::{Price, RackId, Slot, Watts};

use crate::bid::RackBid;
use crate::clearing::{ClearingCacheStats, ClearingConfig, MarketOutcome};
use crate::constraints::ConstraintSet;
use crate::demand::{DemandBid, FullBid, LinearBid, StepBid};
use crate::maxperf::ConcaveGain;

#[cfg(doc)]
use crate::clearing::MarketClearing;

/// Why a wire payload failed to decode into a [`WireMsg`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload's leading message tag names no known message.
    UnknownMessage(u8),
    /// A field inside the payload failed to decode.
    Decode(DecodeError),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::UnknownMessage(tag) => write!(f, "unknown wire message tag {tag:#04x}"),
            WireError::Decode(e) => write!(f, "wire payload does not decode: {e}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::UnknownMessage(_) => None,
            WireError::Decode(e) => Some(e),
        }
    }
}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> Self {
        WireError::Decode(e)
    }
}

/// One task of a slot: what [`WireMsg::SlotFrame`] carries and what the
/// controller's `clear_session` takes. No variant carries a constraint
/// set: the agent rebuilds each task's constraints from its held
/// statics, the frame's `pdu_spot` vector, and the variant's
/// `ups_spot` share — bit-identical to the controller-side
/// `constraints.clone().with_ups_spot(share)`.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskShip {
    /// A (sub-)market of rack bids.
    Market {
        /// This task's UPS spot share (already clamped to the global).
        ups_spot: Watts,
        /// The complete bid list, in controller order.
        bids: Vec<RackBid>,
    },
    /// A MaxPerf water-filling allocation.
    MaxPerf {
        /// This task's UPS spot share (already clamped to the global).
        ups_spot: Watts,
        /// Concave gain envelope per requesting rack.
        gains: BTreeMap<RackId, ConcaveGain>,
    },
}

/// A shard agent's answer to one task, in task order.
#[derive(Debug, Clone, PartialEq)]
pub enum ClearResult {
    /// The cleared (sub-)market outcome.
    Market(MarketOutcome),
    /// The MaxPerf grant set.
    MaxPerf(BTreeMap<RackId, Watts>),
}

/// A message of the controller ↔ agent protocol. See the module docs
/// for the per-slot sequence and [`WireMsg::encode`]/[`WireMsg::decode`]
/// for the framing contract.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMsg {
    /// Controller → agent, once at setup: which shard this agent is, of
    /// how many, and the clearing configuration to build its market
    /// engine with. Resets any session state.
    AssignShard {
        /// This agent's shard index (`0..shard_count`).
        shard: u64,
        /// Total number of shards in the topology.
        shard_count: u64,
        /// Clearing configuration for the shard's `MarketClearing`.
        clearing: ClearingConfig,
    },
    /// Controller → agent, every slot: the whole slot in one coalesced
    /// frame — session epoch, optional static constraint layers (resync
    /// frames carry them; steady-state frames omit them), the slot's
    /// per-PDU spot capacities, and every task for this shard.
    SlotFrame {
        /// The slot to clear.
        slot: Slot,
        /// Session epoch. An agent accepts a statics-bearing frame at
        /// any epoch (adopting it), and a statics-less frame only at
        /// exactly `held_epoch + 1`.
        epoch: u64,
        /// Static constraint layers (headrooms, rack→PDU map, zones,
        /// phases). Present on resync frames; absent in steady state.
        statics: Option<ConstraintSet>,
        /// The slot's per-PDU spot capacities, replacing the held
        /// vector.
        pdu_spot: Vec<Watts>,
        /// The shard's tasks, in controller order.
        tasks: Vec<TaskShip>,
    },
    /// Agent → controller, every slot: results for the slot's tasks in
    /// task order, plus the shard engine's cumulative clear counters.
    ShardCleared {
        /// The slot the results belong to.
        slot: Slot,
        /// The agent's session epoch after applying the frame.
        epoch: u64,
        /// One result per task, in the order the tasks arrived.
        results: Vec<ClearResult>,
        /// The cumulative clear counters of the shard's engine.
        cache: ClearingCacheStats,
    },
    /// Agent → controller, instead of `ShardCleared`: the agent holds
    /// no statics the frame could clear against (restart, epoch gap).
    /// Nothing was mutated; the controller must re-send the frame with
    /// the statics attached.
    ResyncNeeded {
        /// The slot of the rejected frame.
        slot: Slot,
        /// The epoch the agent currently holds (0 if fresh).
        epoch: u64,
    },
    /// Controller → agent, once at teardown: exit cleanly. No reply.
    Shutdown,
}

impl WireMsg {
    /// A short human-readable name for telemetry and diagnostics.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            WireMsg::AssignShard { .. } => "AssignShard",
            WireMsg::SlotFrame { .. } => "SlotFrame",
            WireMsg::ShardCleared { .. } => "ShardCleared",
            WireMsg::ResyncNeeded { .. } => "ResyncNeeded",
            WireMsg::Shutdown => "Shutdown",
        }
    }

    /// Encodes this message into a frame-ready payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        self.encode_into(Vec::new())
    }

    /// Encodes this message into a frame-ready payload, reusing `buf`'s
    /// allocation (the buffer is cleared first). Transports call this
    /// every slot with a recycled buffer to avoid per-message
    /// allocation on the hot path.
    #[must_use]
    pub fn encode_into(&self, buf: Vec<u8>) -> Vec<u8> {
        let mut enc = Encoder::from_vec(buf);
        self.persist(&mut enc);
        enc.into_bytes()
    }

    /// Decodes one message from a complete frame payload, requiring
    /// every byte to be consumed.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] for an unknown message tag, a field that
    /// fails to decode, or trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut dec = Decoder::new(payload);
        let msg = WireMsg::restore(&mut dec)?;
        dec.finish()?;
        Ok(msg)
    }
}

impl Persist for WireMsg {
    fn persist(&self, enc: &mut Encoder) {
        match self {
            WireMsg::AssignShard {
                shard,
                shard_count,
                clearing,
            } => {
                enc.put_u8(0);
                enc.put_u64(*shard);
                enc.put_u64(*shard_count);
                clearing.persist(enc);
            }
            WireMsg::SlotFrame {
                slot,
                epoch,
                statics,
                pdu_spot,
                tasks,
            } => {
                enc.put_u8(1);
                enc.put_u64(slot.index());
                enc.put_u64(*epoch);
                match statics {
                    Some(s) => {
                        enc.put_bool(true);
                        s.persist(enc);
                    }
                    None => enc.put_bool(false),
                }
                enc.put_usize(pdu_spot.len());
                for w in pdu_spot {
                    enc.put_f64(w.value());
                }
                tasks.persist(enc);
            }
            WireMsg::ShardCleared {
                slot,
                epoch,
                results,
                cache,
            } => {
                enc.put_u8(2);
                enc.put_u64(slot.index());
                enc.put_u64(*epoch);
                results.persist(enc);
                cache.persist(enc);
            }
            WireMsg::ResyncNeeded { slot, epoch } => {
                enc.put_u8(3);
                enc.put_u64(slot.index());
                enc.put_u64(*epoch);
            }
            WireMsg::Shutdown => enc.put_u8(4),
        }
    }

    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.get_u8()? {
            0 => Ok(WireMsg::AssignShard {
                shard: dec.get_u64()?,
                shard_count: dec.get_u64()?,
                clearing: ClearingConfig::restore(dec)?,
            }),
            1 => {
                let slot = Slot::new(dec.get_u64()?);
                let epoch = dec.get_u64()?;
                let statics = if dec.get_bool()? {
                    Some(ConstraintSet::restore(dec)?)
                } else {
                    None
                };
                let n = dec.get_usize()?;
                if n > dec.remaining() {
                    return Err(DecodeError::BadLength(n as u64));
                }
                let mut pdu_spot = Vec::with_capacity(n);
                for _ in 0..n {
                    pdu_spot.push(Watts::new(dec.get_f64()?));
                }
                Ok(WireMsg::SlotFrame {
                    slot,
                    epoch,
                    statics,
                    pdu_spot,
                    tasks: Vec::restore(dec)?,
                })
            }
            2 => Ok(WireMsg::ShardCleared {
                slot: Slot::new(dec.get_u64()?),
                epoch: dec.get_u64()?,
                results: Vec::restore(dec)?,
                cache: ClearingCacheStats::restore(dec)?,
            }),
            3 => Ok(WireMsg::ResyncNeeded {
                slot: Slot::new(dec.get_u64()?),
                epoch: dec.get_u64()?,
            }),
            4 => Ok(WireMsg::Shutdown),
            tag => Err(DecodeError::Invalid(format!(
                "unknown wire message tag {tag:#04x}"
            ))),
        }
    }
}

// Tags 2 and 4 were the per-task delta variants; they stay retired so
// an old peer's delta frame is a clean decode error, not a misread.
impl Persist for TaskShip {
    fn persist(&self, enc: &mut Encoder) {
        match self {
            TaskShip::Market { ups_spot, bids } => {
                enc.put_u8(1);
                enc.put_f64(ups_spot.value());
                bids.persist(enc);
            }
            TaskShip::MaxPerf { ups_spot, gains } => {
                enc.put_u8(3);
                enc.put_f64(ups_spot.value());
                enc.put_usize(gains.len());
                for (rack, gain) in gains {
                    enc.put_usize(rack.index());
                    gain.persist(enc);
                }
            }
        }
    }

    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.get_u8()? {
            1 => Ok(TaskShip::Market {
                ups_spot: Watts::new(dec.get_f64()?),
                bids: Vec::restore(dec)?,
            }),
            3 => {
                let ups_spot = Watts::new(dec.get_f64()?);
                let n = dec.get_usize()?;
                if n > dec.remaining() {
                    return Err(DecodeError::BadLength(n as u64));
                }
                let mut gains = BTreeMap::new();
                for _ in 0..n {
                    let rack = RackId::new(dec.get_usize()?);
                    gains.insert(rack, ConcaveGain::restore(dec)?);
                }
                Ok(TaskShip::MaxPerf { ups_spot, gains })
            }
            tag => Err(DecodeError::Invalid(format!(
                "unknown task-ship tag {tag:#04x}"
            ))),
        }
    }
}

impl Persist for ClearingCacheStats {
    fn persist(&self, enc: &mut Encoder) {
        enc.put_u64(self.full_sweeps);
        enc.put_u64(self.cache_hits);
        enc.put_u64(self.delta_sweeps);
        enc.put_u64(self.legacy_scans);
        enc.put_u64(self.candidates_total);
        enc.put_u64(self.candidates_swept);
    }

    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(ClearingCacheStats {
            full_sweeps: dec.get_u64()?,
            cache_hits: dec.get_u64()?,
            delta_sweeps: dec.get_u64()?,
            legacy_scans: dec.get_u64()?,
            candidates_total: dec.get_u64()?,
            candidates_swept: dec.get_u64()?,
        })
    }
}

impl Persist for ClearResult {
    fn persist(&self, enc: &mut Encoder) {
        match self {
            ClearResult::Market(outcome) => {
                enc.put_u8(0);
                outcome.persist(enc);
            }
            ClearResult::MaxPerf(grants) => {
                enc.put_u8(1);
                enc.put_usize(grants.len());
                for (rack, grant) in grants {
                    enc.put_usize(rack.index());
                    enc.put_f64(grant.value());
                }
            }
        }
    }

    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.get_u8()? {
            0 => Ok(ClearResult::Market(MarketOutcome::restore(dec)?)),
            1 => {
                let n = dec.get_usize()?;
                if n > dec.remaining() {
                    return Err(DecodeError::BadLength(n as u64));
                }
                let mut grants = BTreeMap::new();
                for _ in 0..n {
                    let rack = RackId::new(dec.get_usize()?);
                    grants.insert(rack, Watts::new(dec.get_f64()?));
                }
                Ok(ClearResult::MaxPerf(grants))
            }
            tag => Err(DecodeError::Invalid(format!(
                "unknown clear-result tag {tag:#04x}"
            ))),
        }
    }
}

impl Persist for ClearingConfig {
    fn persist(&self, enc: &mut Encoder) {
        enc.put_f64(self.price_step.per_kw_hour_value());
    }

    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(ClearingConfig::grid(Price::per_kw_hour(dec.get_f64()?)))
    }
}

impl Persist for RackBid {
    fn persist(&self, enc: &mut Encoder) {
        enc.put_usize(self.rack().index());
        self.demand().persist(enc);
    }

    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let rack = RackId::new(dec.get_usize()?);
        Ok(RackBid::new(rack, DemandBid::restore(dec)?))
    }
}

// The demand layout matches the sim durability layer's WAL encoding
// (tag 0 = Linear, 1 = Step, 2 = Full), so a demand function has one
// binary shape whether it travels to disk or over the wire. Decoding
// goes through the validating constructors: hostile bytes become a
// clean `Invalid` error, and the constructors store their arguments
// verbatim, so valid values round-trip bit for bit.
impl Persist for DemandBid {
    fn persist(&self, enc: &mut Encoder) {
        match self {
            DemandBid::Linear(b) => {
                enc.put_u8(0);
                enc.put_f64(b.d_max().value());
                enc.put_f64(b.q_min().per_kw_hour_value());
                enc.put_f64(b.d_min().value());
                enc.put_f64(b.q_max().per_kw_hour_value());
            }
            DemandBid::Step(b) => {
                enc.put_u8(1);
                enc.put_f64(b.demand().value());
                enc.put_f64(b.price_cap().per_kw_hour_value());
            }
            DemandBid::Full(b) => {
                enc.put_u8(2);
                enc.put_usize(b.points().len());
                for (price, watts) in b.points() {
                    enc.put_f64(price.per_kw_hour_value());
                    enc.put_f64(watts.value());
                }
            }
        }
    }

    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.get_u8()? {
            0 => {
                let d_max = Watts::new(dec.get_f64()?);
                let q_min = Price::per_kw_hour(dec.get_f64()?);
                let d_min = Watts::new(dec.get_f64()?);
                let q_max = Price::per_kw_hour(dec.get_f64()?);
                LinearBid::new(d_max, q_min, d_min, q_max)
                    .map(DemandBid::from)
                    .map_err(|e| DecodeError::Invalid(e.to_string()))
            }
            1 => {
                let demand = Watts::new(dec.get_f64()?);
                let cap = Price::per_kw_hour(dec.get_f64()?);
                StepBid::new(demand, cap)
                    .map(DemandBid::from)
                    .map_err(|e| DecodeError::Invalid(e.to_string()))
            }
            2 => {
                let n = dec.get_usize()?;
                if n > dec.remaining() {
                    return Err(DecodeError::BadLength(n as u64));
                }
                let mut points = Vec::with_capacity(n);
                for _ in 0..n {
                    let price = Price::per_kw_hour(dec.get_f64()?);
                    let watts = Watts::new(dec.get_f64()?);
                    points.push((price, watts));
                }
                FullBid::new(points)
                    .map(DemandBid::from)
                    .map_err(|e| DecodeError::Invalid(e.to_string()))
            }
            tag => Err(DecodeError::Invalid(format!(
                "unknown demand tag {tag:#04x}"
            ))),
        }
    }
}

impl Persist for ConcaveGain {
    fn persist(&self, enc: &mut Encoder) {
        enc.put_usize(self.segments().len());
        for &(watts, slope) in self.segments() {
            enc.put_f64(watts);
            enc.put_f64(slope);
        }
    }

    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let n = dec.get_usize()?;
        if n > dec.remaining() {
            return Err(DecodeError::BadLength(n as u64));
        }
        let mut segments = Vec::with_capacity(n);
        for _ in 0..n {
            segments.push((dec.get_f64()?, dec.get_f64()?));
        }
        ConcaveGain::new(segments).map_err(|e| DecodeError::Invalid(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame;
    use spotdc_power::topology::TopologyBuilder;
    use spotdc_units::TenantId;

    fn sample_constraints() -> ConstraintSet {
        let topo = TopologyBuilder::new(Watts::new(400.0))
            .pdu(Watts::new(200.0))
            .rack(TenantId::new(0), Watts::new(100.0), Watts::new(50.0))
            .rack(TenantId::new(1), Watts::new(80.0), Watts::new(40.0))
            .pdu(Watts::new(200.0))
            .rack(TenantId::new(2), Watts::new(90.0), Watts::new(45.0))
            .build()
            .unwrap();
        ConstraintSet::new(
            &topo,
            vec![Watts::new(60.0), Watts::new(30.0)],
            Watts::new(70.0),
        )
        .with_zone(
            "aisle-1",
            vec![RackId::new(0), RackId::new(2)],
            Watts::new(40.0),
        )
        .with_phases(vec![0, 1, 2], Watts::new(25.0))
    }

    fn sample_bids() -> Vec<RackBid> {
        vec![
            RackBid::new(
                RackId::new(0),
                LinearBid::new(
                    Watts::new(40.0),
                    Price::per_kw_hour(0.05),
                    Watts::new(10.0),
                    Price::per_kw_hour(0.30),
                )
                .unwrap()
                .into(),
            ),
            RackBid::new(
                RackId::new(1),
                StepBid::new(Watts::new(25.0), Price::per_kw_hour(0.2))
                    .unwrap()
                    .into(),
            ),
            RackBid::new(
                RackId::new(2),
                FullBid::new(vec![
                    (Price::per_kw_hour(0.1), Watts::new(30.0)),
                    (Price::per_kw_hour(0.4), Watts::new(5.0)),
                ])
                .unwrap()
                .into(),
            ),
        ]
    }

    fn sample_gains() -> BTreeMap<RackId, ConcaveGain> {
        [(
            RackId::new(1),
            ConcaveGain::new(vec![(20.0, 2.0), (15.0, 0.5)]).unwrap(),
        )]
        .into_iter()
        .collect()
    }

    fn sample_messages() -> Vec<WireMsg> {
        let constraints = sample_constraints();
        let outcome = crate::clearing::MarketClearing::new(ClearingConfig::default()).clear(
            Slot::new(3),
            &sample_bids(),
            &constraints,
        );
        vec![
            WireMsg::AssignShard {
                shard: 1,
                shard_count: 4,
                clearing: ClearingConfig::grid(Price::cents_per_kw_hour(0.5)),
            },
            WireMsg::SlotFrame {
                slot: Slot::new(7),
                epoch: 1,
                statics: Some(constraints),
                pdu_spot: vec![Watts::new(60.0), Watts::new(30.0)],
                tasks: vec![
                    TaskShip::Market {
                        ups_spot: Watts::new(40.0),
                        bids: sample_bids(),
                    },
                    TaskShip::MaxPerf {
                        ups_spot: Watts::new(30.0),
                        gains: sample_gains(),
                    },
                ],
            },
            WireMsg::SlotFrame {
                slot: Slot::new(8),
                epoch: 2,
                statics: None,
                pdu_spot: vec![Watts::new(55.0), Watts::new(35.0)],
                tasks: vec![
                    TaskShip::MaxPerf {
                        ups_spot: Watts::new(28.0),
                        gains: sample_gains(),
                    },
                    TaskShip::Market {
                        ups_spot: Watts::new(42.0),
                        bids: sample_bids().split_off(1),
                    },
                ],
            },
            WireMsg::ShardCleared {
                slot: Slot::new(7),
                epoch: 2,
                results: vec![
                    ClearResult::Market(outcome),
                    ClearResult::MaxPerf(
                        [(RackId::new(1), Watts::new(12.5))].into_iter().collect(),
                    ),
                ],
                cache: ClearingCacheStats {
                    full_sweeps: 3,
                    cache_hits: 11,
                    delta_sweeps: 0,
                    legacy_scans: 1,
                    candidates_total: 900,
                    candidates_swept: 41,
                },
            },
            WireMsg::ResyncNeeded {
                slot: Slot::new(9),
                epoch: 0,
            },
            WireMsg::Shutdown,
        ]
    }

    #[test]
    fn every_message_round_trips_through_the_frame_codec() {
        for msg in sample_messages() {
            let mut buf = Vec::new();
            frame::write_frame(&mut buf, &msg.encode()).unwrap();
            let payload = frame::read_frame(&mut &buf[..]).unwrap().unwrap();
            assert_eq!(WireMsg::decode(&payload).unwrap(), msg);
        }
    }

    #[test]
    fn encode_into_reuses_the_buffer_and_matches_encode() {
        let mut buf = Vec::with_capacity(4096);
        buf.extend_from_slice(b"stale bytes from the previous slot");
        for msg in sample_messages() {
            buf = msg.encode_into(buf);
            assert_eq!(buf, msg.encode());
        }
    }

    #[test]
    fn unknown_tags_and_trailing_bytes_are_clean_errors() {
        assert!(matches!(
            WireMsg::decode(&[0xfe]),
            Err(WireError::Decode(DecodeError::Invalid(_)))
        ));
        let mut bytes = WireMsg::Shutdown.encode();
        bytes.push(0);
        assert!(matches!(
            WireMsg::decode(&bytes),
            Err(WireError::Decode(DecodeError::TrailingBytes(1)))
        ));
        assert!(matches!(
            WireMsg::decode(&[]),
            Err(WireError::Decode(DecodeError::UnexpectedEnd { .. }))
        ));
        // The retired delta task tags (2, 4) and the retired stateless
        // tag (0) fail the whole frame — no partially built `SlotFrame`.
        let frame = |tasks| WireMsg::SlotFrame {
            slot: Slot::new(8),
            epoch: 2,
            statics: None,
            pdu_spot: vec![Watts::new(55.0)],
            tasks,
        };
        let head = frame(Vec::new()).encode().len();
        let good = frame(vec![TaskShip::MaxPerf {
            ups_spot: Watts::new(28.0),
            gains: sample_gains(),
        }])
        .encode();
        assert_eq!(good[head], 3, "the first task's tag follows the count");
        for tag in [0, 2, 4, 5, 0xff] {
            let mut bytes = good.clone();
            bytes[head] = tag;
            let err = WireMsg::decode(&bytes).unwrap_err();
            assert!(
                matches!(&err, WireError::Decode(DecodeError::Invalid(m)) if m.contains("task-ship tag")),
                "tag {tag}: {err}"
            );
        }
    }

    #[test]
    fn truncated_payloads_never_panic() {
        for msg in sample_messages() {
            let bytes = msg.encode();
            for cut in 0..bytes.len() {
                assert!(WireMsg::decode(&bytes[..cut]).is_err(), "cut at {cut}");
            }
        }
    }

    #[test]
    fn damaged_payloads_are_errors_not_panics() {
        // Every other value of every byte of every message: a tag, a
        // bool, a length word's high byte (a count of 2^56 elements), a
        // float's exponent. The decoder answers `Ok` or a typed error —
        // an unchecked length would abort in `with_capacity` — and what
        // it builds is never larger than what it was given: each
        // element it keeps took at least its own encoding off the wire.
        let (mut refused, mut decoded) = (0usize, 0usize);
        for msg in sample_messages() {
            let bytes = msg.encode();
            for at in 0..bytes.len() {
                let mut damaged = bytes.clone();
                for value in (0..=u8::MAX).filter(|&v| v != bytes[at]) {
                    damaged[at] = value;
                    match WireMsg::decode(&damaged) {
                        Ok(read) => {
                            assert!(read.encode().len() <= damaged.len(), "byte {at} = {value}");
                            decoded += 1;
                        }
                        Err(WireError::Decode(_) | WireError::UnknownMessage(_)) => refused += 1,
                    }
                }
            }
        }
        // Both arms are exercised: tags, bools and lengths refuse,
        // float and id payload bits decode.
        assert!(
            refused > 0 && decoded > 0,
            "{refused} refused, {decoded} decoded"
        );
    }

    #[test]
    fn wire_errors_render_their_cause() {
        let e = WireError::from(DecodeError::BadBool(7));
        assert!(e.to_string().contains("does not decode"));
        assert!(WireError::UnknownMessage(0xab).to_string().contains("0xab"));
    }
}
