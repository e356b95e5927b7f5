//! Typed wire messages for the distributed controller ↔ agent split.
//!
//! The market distributes along its natural seam: per-PDU sub-markets
//! ([`MarketClearing::per_pdu_submarket_shares`]) become shard-owned tasks,
//! while the controller keeps everything stateful at the market level —
//! bid collection, UPS-level constraint construction, the serial
//! in-order merge, settlement and reporting. A clear is a pure function
//! of one slot's bids and constraints, so below the market level there
//! is no session: every frame is self-contained.
//!
//! The whole slot travels as **one frame per shard per direction**: a
//! [`WireMsg::SlotFrame`] down (the slot's constraint set and every
//! market task for the shard) and a [`WireMsg::ShardCleared`] up (every
//! outcome plus the shard's [`ClearingCacheStats`]). An agent answers a
//! frame from that frame alone, so a restarted agent needs nothing but
//! its [`WireMsg::AssignShard`] handshake, and a frame clears against
//! exactly the constraints the controller built — which is what keeps
//! reports byte-identical across shard counts, transports, and
//! crash/recovery.
//!
//! Messages travel as [`spotdc_durable::Persist`] payloads inside the
//! shared length-prefix + CRC-32 [`frame`](crate::frame) codec — the
//! same framing the WAL and checkpoints use, not a second
//! implementation. Every field round-trips exactly (floats as IEEE-754
//! bit patterns); a torn or corrupt frame surfaces as a clean error at
//! the framing layer and an undecodable payload as a [`DecodeError`]
//! here, never a panic.
//!
//! The sequence (see DESIGN.md §15):
//!
//! ```text
//! controller → agent: AssignShard   (setup: the clearing config)
//! controller → agent: SlotFrame     (every slot: constraints + tasks)
//! agent → controller: ShardCleared  (outcomes + clear counts)
//! controller → agent: Shutdown      (once, at teardown)
//! ```
//!
//! Failure semantics mirror the paper's comms-loss rule ("lost messages
//! ⇒ no spot capacity"): a dead agent or damaged frame degrades that
//! shard's tasks to empty results at the controller — it never invents
//! capacity and never crashes the market.

use spotdc_durable::{DecodeError, Decoder, Encoder, Persist};
use spotdc_units::{Price, RackId, Slot, Watts};

use crate::bid::RackBid;
use crate::clearing::{ClearingCacheStats, ClearingConfig, MarketOutcome};
use crate::constraints::ConstraintSet;
use crate::demand::{DemandBid, FullBid, LinearBid, StepBid};

#[cfg(doc)]
use crate::clearing::MarketClearing;

/// One market task of a slot: a (sub-)market of rack bids and its share
/// of the UPS spot capacity. [`MarketClearing::clear_tasks`] clears it
/// against the slot's constraint set re-pointed at `ups_spot` —
/// bit-identical to `constraints.clone().with_ups_spot(ups_spot)`.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskShip {
    /// This task's UPS spot share (already clamped to the global).
    pub ups_spot: Watts,
    /// The complete bid list, in controller order.
    pub bids: Vec<RackBid>,
}

/// A message of the controller ↔ agent protocol. See the module docs
/// for the per-slot sequence and [`WireMsg::encode`]/[`WireMsg::decode`]
/// for the framing contract.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMsg {
    /// Controller → agent, once at setup: the clearing configuration to
    /// build the agent's market engine with.
    AssignShard {
        /// Clearing configuration for the shard's `MarketClearing`.
        clearing: ClearingConfig,
    },
    /// Controller → agent, every slot: the whole slot in one
    /// self-contained frame.
    SlotFrame {
        /// The slot to clear.
        slot: Slot,
        /// The slot's constraint set, exactly as the controller built
        /// it; each task re-points its UPS spot.
        constraints: ConstraintSet,
        /// The shard's tasks, in controller order.
        tasks: Vec<TaskShip>,
    },
    /// Agent → controller, every slot: one outcome per task in task
    /// order, plus the shard engine's cumulative clear counters.
    ShardCleared {
        /// The slot the results belong to.
        slot: Slot,
        /// One outcome per task, in the order the tasks arrived.
        results: Vec<MarketOutcome>,
        /// The cumulative clear counters of the shard's engine.
        cache: ClearingCacheStats,
    },
    /// Controller → agent, once at teardown: exit cleanly. No reply.
    Shutdown,
}

impl WireMsg {
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
    /// Returns a [`DecodeError`] for an unknown message tag, a field
    /// that fails to decode, or trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, DecodeError> {
        let mut dec = Decoder::new(payload);
        let msg = WireMsg::restore(&mut dec)?;
        dec.finish()?;
        Ok(msg)
    }
}

impl Persist for WireMsg {
    fn persist(&self, enc: &mut Encoder) {
        match self {
            WireMsg::AssignShard { clearing } => {
                enc.put_u8(0);
                clearing.persist(enc);
            }
            WireMsg::SlotFrame {
                slot,
                constraints,
                tasks,
            } => {
                enc.put_u8(1);
                enc.put_u64(slot.index());
                constraints.persist(enc);
                tasks.persist(enc);
            }
            WireMsg::ShardCleared {
                slot,
                results,
                cache,
            } => {
                enc.put_u8(2);
                enc.put_u64(slot.index());
                results.persist(enc);
                cache.persist(enc);
            }
            WireMsg::Shutdown => enc.put_u8(3),
        }
    }

    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.get_u8()? {
            0 => Ok(WireMsg::AssignShard {
                clearing: ClearingConfig::restore(dec)?,
            }),
            1 => Ok(WireMsg::SlotFrame {
                slot: Slot::new(dec.get_u64()?),
                constraints: ConstraintSet::restore(dec)?,
                tasks: Vec::restore(dec)?,
            }),
            2 => Ok(WireMsg::ShardCleared {
                slot: Slot::new(dec.get_u64()?),
                results: Vec::restore(dec)?,
                cache: ClearingCacheStats::restore(dec)?,
            }),
            3 => Ok(WireMsg::Shutdown),
            tag => Err(DecodeError::Invalid(format!(
                "unknown wire message tag {tag:#04x}"
            ))),
        }
    }
}

impl Persist for TaskShip {
    fn persist(&self, enc: &mut Encoder) {
        enc.put_f64(self.ups_spot.value());
        self.bids.persist(enc);
    }

    fn restore(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(TaskShip {
            ups_spot: Watts::new(dec.get_f64()?),
            bids: Vec::restore(dec)?,
        })
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

    fn sample_messages() -> Vec<WireMsg> {
        let constraints = sample_constraints();
        let outcome = crate::clearing::MarketClearing::new(ClearingConfig::default()).clear(
            Slot::new(3),
            &sample_bids(),
            &constraints,
        );
        vec![
            WireMsg::AssignShard {
                clearing: ClearingConfig::grid(Price::cents_per_kw_hour(0.5)),
            },
            WireMsg::SlotFrame {
                slot: Slot::new(7),
                constraints: constraints.clone(),
                tasks: vec![
                    TaskShip {
                        ups_spot: Watts::new(40.0),
                        bids: sample_bids(),
                    },
                    TaskShip {
                        ups_spot: Watts::new(42.0),
                        bids: sample_bids().split_off(1),
                    },
                ],
            },
            WireMsg::SlotFrame {
                slot: Slot::new(8),
                constraints,
                tasks: Vec::new(),
            },
            WireMsg::ShardCleared {
                slot: Slot::new(7),
                results: vec![outcome],
                cache: ClearingCacheStats {
                    full_sweeps: 3,
                    cache_hits: 11,
                    delta_sweeps: 0,
                    legacy_scans: 1,
                    candidates_total: 900,
                    candidates_swept: 41,
                },
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
        for tag in [4, 0xfe] {
            assert!(matches!(
                WireMsg::decode(&[tag]),
                Err(DecodeError::Invalid(m)) if m.contains("unknown wire message tag")
            ));
        }
        let mut bytes = WireMsg::Shutdown.encode();
        bytes.push(0);
        assert_eq!(WireMsg::decode(&bytes), Err(DecodeError::TrailingBytes(1)));
        assert!(matches!(
            WireMsg::decode(&[]),
            Err(DecodeError::UnexpectedEnd { .. })
        ));
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
                        Err(_) => refused += 1,
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
        let e = WireMsg::decode(&[0xab]).unwrap_err();
        assert!(e.to_string().contains("0xab"), "{e}");
    }
}
