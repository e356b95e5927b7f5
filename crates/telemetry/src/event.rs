//! Typed structured events and their JSONL wire format.
//!
//! Events are hand-serialized (the build environment has no serde
//! runtime) to one flat JSON object per line:
//!
//! ```json
//! {"event":"SlotCleared","slot":12,"t_ns":83012,"price_per_kw_hour":0.25,...}
//! ```
//!
//! The schema is stated once, in the [`event_table!`] invocation below:
//! each entry is a variant with its fields, and the macro derives the
//! [`Event`] enum, [`Event::KINDS`], the accessors and **both**
//! directions of the wire format from it, so a field the writer emits
//! and the reader does not expect (or the reverse) cannot be written
//! down. How a single value is encoded and decoded belongs to the
//! [`Field`] impl of its type. [`Event::from_jsonl`] lets downstream
//! tooling and the repro binary consume `telemetry.jsonl` without a
//! JSON library; `tests/golden/events.jsonl` pins the bytes.

use std::fmt::{self, Write as _};
use std::str::FromStr;

use spotdc_units::{MonotonicNanos, Slot};

use crate::json::{json_str, parse_flat_object, Fields, JsonValue};

/// Declares the event schema. Every entry is
/// `Variant { slot: Slot, at: MonotonicNanos, payload_field: type, ... }`
/// with its doc comments; the payload types must implement [`Field`].
/// On the wire a variant is its name under `"event"`, the optional
/// `"run"` tag, `"slot"`, `"t_ns"`, then the payload fields under
/// their own names in declaration order.
macro_rules! event_table {
    ($(
        $(#[$variant_meta:meta])*
        $variant:ident {
            $(#[$slot_meta:meta])*
            slot: Slot,
            $(#[$at_meta:meta])*
            at: MonotonicNanos,
            $( $(#[$field_meta:meta])* $field:ident: $ty:ty, )*
        },
    )+) => {
        /// One structured telemetry event from the market pipeline.
        #[derive(Debug, Clone, PartialEq)]
        pub enum Event {$(
            $(#[$variant_meta])*
            $variant {
                $(#[$slot_meta])*
                slot: Slot,
                $(#[$at_meta])*
                at: MonotonicNanos,
                $( $(#[$field_meta])* $field: $ty, )*
            },
        )+}

        impl Event {
            /// Every type tag [`Event::kind`] can return, in schema
            /// order: the tags a reader of this version understands.
            pub const KINDS: &'static [&'static str] = &[$(stringify!($variant)),+];

            /// The event's type tag as serialized in the `"event"` field.
            #[must_use]
            pub fn kind(&self) -> &'static str {
                match self {
                    $(Event::$variant { .. } => stringify!($variant),)+
                }
            }

            /// The market slot the event belongs to.
            #[must_use]
            pub fn slot(&self) -> Slot {
                match self {
                    $(Event::$variant { slot, .. })|+ => *slot,
                }
            }

            /// The event's monotonic timestamp.
            #[must_use]
            pub fn at(&self) -> MonotonicNanos {
                match self {
                    $(Event::$variant { at, .. })|+ => *at,
                }
            }

            /// Appends `,"<field>":<value>` for every payload field.
            fn write_payload(&self, out: &mut String) {
                match self {$(
                    Event::$variant { $($field,)* .. } => {$(
                        out.push_str(concat!(",\"", stringify!($field), "\":"));
                        $field.encode(out);
                    )*}
                )+}
            }

            /// Builds the variant tagged `kind` from a parsed line.
            fn read_payload(
                kind: &str,
                slot: Slot,
                at: MonotonicNanos,
                fields: &Fields,
            ) -> Result<Event, EventParseError> {
                match kind {
                    $(stringify!($variant) => Ok(Event::$variant {
                        slot,
                        at,
                        $($field: read_field(fields, stringify!($field))?,)*
                    }),)+
                    other => Err(EventParseError::UnknownTag(other.to_owned())),
                }
            }
        }
    };
}

event_table! {
    /// A market slot cleared (once per clearing run; per-PDU clearing
    /// emits one event per PDU sub-market).
    SlotCleared {
        /// The market slot that cleared.
        slot: Slot,
        /// Monotonic timestamp of the clearing.
        at: MonotonicNanos,
        /// Uniform clearing price, $/kW/h.
        price_per_kw_hour: f64,
        /// Spot capacity sold, watts.
        sold_watts: f64,
        /// Operator revenue rate at the clearing point, $/h.
        revenue_rate_per_hour: f64,
        /// Size of the price grid the clearing search considered — the
        /// prices the outcome is the best of, not how many of them the
        /// engine had to sum to know it.
        candidates_evaluated: u64,
    },
    /// The operator issued a spot-capacity prediction for a slot.
    PredictionIssued {
        /// The slot the prediction is for.
        slot: Slot,
        /// Monotonic timestamp of the prediction.
        at: MonotonicNanos,
        /// Predicted UPS-level spot capacity, watts.
        ups_watts: f64,
        /// Sum of predicted per-PDU spot capacities, watts.
        pdu_total_watts: f64,
        /// Number of PDUs in the prediction.
        pdus: u64,
    },
    /// A clearing allocation ran into a capacity constraint (the
    /// aggregate grant reached a PDU or UPS spot bound).
    ConstraintBound {
        /// The slot being cleared.
        slot: Slot,
        /// Monotonic timestamp.
        at: MonotonicNanos,
        /// Which constraint bound ("ups" or "pdu-<i>").
        constraint: String,
        /// The binding limit, watts.
        limit_watts: f64,
    },
    /// A power emergency (PDU or UPS overload) was observed.
    EmergencyTriggered {
        /// The slot in which the overload was observed.
        slot: Slot,
        /// Monotonic timestamp.
        at: MonotonicNanos,
        /// Overloaded level ("ups" or "pdu-<i>").
        level: String,
        /// Observed load, watts.
        load_watts: f64,
        /// Rated capacity at that level, watts.
        capacity_watts: f64,
    },
    /// A tenant bid was rejected before the market ran (admission
    /// control: unmetered racks, malformed bids, ...).
    BidRejected {
        /// The slot the bid targeted.
        slot: Slot,
        /// Monotonic timestamp.
        at: MonotonicNanos,
        /// The bidding tenant's dense index.
        tenant: u64,
        /// Number of racks in the rejected bid.
        racks: u64,
        /// Human-readable rejection reason.
        reason: String,
    },
    /// The fault-injection plan fired a fault (simulation only).
    FaultInjected {
        /// The slot the fault fired in.
        slot: Slot,
        /// Monotonic timestamp.
        at: MonotonicNanos,
        /// Fault channel ("meter-dropout", "bid-late", ...).
        kind: String,
        /// The affected target ("rack-3", "tenant-1", "predictor").
        target: String,
    },
    /// The operator degraded gracefully instead of failing: stale-meter
    /// fallback, withheld PDU spot, or a late bid rolled to the next
    /// slot.
    DegradedDecision {
        /// The slot of the decision.
        slot: Slot,
        /// Monotonic timestamp.
        at: MonotonicNanos,
        /// Degradation kind ("stale-meter", "late-bid", "cap-shed").
        kind: String,
        /// Human-readable detail of what was degraded.
        detail: String,
        /// Watts affected by the decision (penalized, withheld or shed).
        watts: f64,
    },
    /// The emergency cap controller acted on a capacity level.
    CapApplied {
        /// The slot the cap was applied in.
        slot: Slot,
        /// Monotonic timestamp.
        at: MonotonicNanos,
        /// Protected level ("ups" or "pdu-<i>").
        level: String,
        /// Spot watts shed at the level.
        shed_watts: f64,
        /// Guaranteed watts capped at the level.
        capped_watts: f64,
    },
    /// The post-clearing invariant checker found a violation of the
    /// paper's Eqns. 1-4 (rack/PDU/UPS spot limits, uniform-price
    /// consistency).
    InvariantViolated {
        /// The slot whose allocation violated an invariant.
        slot: Slot,
        /// Monotonic timestamp.
        at: MonotonicNanos,
        /// Human-readable description of the violated invariant.
        violation: String,
    },
    /// A timing span closed: one pipeline stage (or other instrumented
    /// region) finished for a slot. Emitted by `SpanGuard`'s drop and
    /// nowhere else, so post-hoc tooling (`spotdc-trace`) reconstructs
    /// every span's latency distribution from the JSONL log alone.
    SpanClosed {
        /// The slot the span ran in (`Slot::ZERO` for setup spans).
        slot: Slot,
        /// Monotonic timestamp at close.
        at: MonotonicNanos,
        /// Span name (`stage.sense`, `stage.clear_market`, ...).
        span: String,
        /// Measured duration, nanoseconds.
        nanos: u64,
    },
    /// The durable engine cut a checkpoint: the slot log was synced and
    /// the full cross-slot market state was atomically persisted.
    CheckpointWritten {
        /// The first slot *not* covered by the checkpoint (i.e. the
        /// checkpoint captures slots `0..slot`).
        slot: Slot,
        /// Monotonic timestamp.
        at: MonotonicNanos,
        /// Size of the finished checkpoint file, bytes.
        bytes: u64,
        /// Wall time spent serializing and persisting, nanoseconds.
        nanos: u64,
    },
    /// A resumed run recovered from durable state: the newest checkpoint
    /// the slot log backs was loaded and the logged slots past it were
    /// replayed, each against its logged frame.
    RecoveryPerformed {
        /// The first slot simulated live after recovery.
        slot: Slot,
        /// Monotonic timestamp.
        at: MonotonicNanos,
        /// Slots covered by the checkpoint the recovery started from
        /// (0 when no checkpoint existed and replay started cold).
        snapshot_slot: u64,
        /// Logged slots deterministically re-simulated and checked.
        replayed_slots: u64,
    },
    /// Recovery found a damaged tail in the slot log and truncated it:
    /// either a partial record from the crash ("torn") or a CRC
    /// mismatch under a complete record ("corrupt").
    JournalTruncated {
        /// The slot recovery resumed from after truncation.
        slot: Slot,
        /// Monotonic timestamp.
        at: MonotonicNanos,
        /// Damage class: "torn" or "corrupt".
        reason: String,
        /// Bytes discarded from the file's tail.
        dropped_bytes: u64,
    },
    /// Aggregated wire traffic for one controller↔agents exchange
    /// (distributed mode only). Emitted once per slot by the controller
    /// with `phase: "slot"`, and once per `AssignShard` handshake with
    /// `phase: "setup"` so connection setup never pollutes per-slot
    /// tallies. Byte counts include the 8-byte frame header.
    ShardRpc {
        /// The slot the exchange belongs to (for setup: the slot at
        /// which the handshake happened, `0` at startup).
        slot: Slot,
        /// Monotonic timestamp.
        at: MonotonicNanos,
        /// "slot" for per-slot clearing traffic, "setup" for the
        /// `AssignShard` handshake.
        phase: String,
        /// Frames sent controller → agents.
        frames_sent: u64,
        /// Frames received back from agents.
        frames_recv: u64,
        /// Bytes sent controller → agents.
        bytes_sent: u64,
        /// Bytes received back from agents.
        bytes_recv: u64,
        /// Tasks shipped (every task travels whole every slot).
        tasks: u64,
    },
    /// A shard agent returned its clearing results for a slot
    /// (distributed mode only).
    ShardCleared {
        /// The slot that was cleared.
        slot: Slot,
        /// Monotonic timestamp.
        at: MonotonicNanos,
        /// The replying shard agent.
        shard: u64,
        /// Clearing results in the reply (one per dispatched
        /// sub-market).
        outcomes: u64,
        /// Controller-observed latency from dispatch to reply,
        /// nanoseconds (includes wire and queueing time).
        nanos: u64,
    },
    /// The controller marked a shard agent dead (distributed mode
    /// only): its sub-markets sell no spot capacity until the next
    /// dispatch respawns it.
    ShardDown {
        /// The slot whose exchange failed.
        slot: Slot,
        /// Monotonic timestamp.
        at: MonotonicNanos,
        /// The shard marked dead.
        shard: u64,
        /// What the controller saw: a send or receive error (a torn or
        /// corrupt frame included), a reply for the wrong slot, or the
        /// wrong outcome count.
        reason: String,
    },
}

impl Event {
    /// Whether the event must bypass `sample_every` down-sampling.
    ///
    /// Routine per-slot traffic (clearings, predictions) can be sampled;
    /// anomalies (emergencies, rejections, binding constraints, dead
    /// shards) and one-per-run lifecycle events (recoveries, journal
    /// truncations) are rare and always recorded. Checkpoint writes are
    /// routine cadence traffic and may be sampled.
    #[must_use]
    pub fn is_critical(&self) -> bool {
        matches!(
            self,
            Event::ConstraintBound { .. }
                | Event::EmergencyTriggered { .. }
                | Event::BidRejected { .. }
                | Event::DegradedDecision { .. }
                | Event::CapApplied { .. }
                | Event::InvariantViolated { .. }
                | Event::RecoveryPerformed { .. }
                | Event::JournalTruncated { .. }
                | Event::ShardDown { .. }
        )
    }

    /// Serializes the event as one JSON line (no trailing newline).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        self.to_jsonl_tagged(None)
    }

    /// Serializes the event as one JSON line, with an optional `"run"`
    /// field naming the experiment/run the event belongs to.
    ///
    /// Concurrent simulations interleave their lines in a shared
    /// `telemetry.jsonl`; the tag keeps each line attributable.
    /// [`Event::from_jsonl`] ignores the field on read-back, so tagged
    /// and untagged lines parse identically.
    #[must_use]
    pub fn to_jsonl_tagged(&self, run: Option<&str>) -> String {
        let mut out = String::with_capacity(128);
        let _ = write!(out, "{{\"event\":\"{}\"", self.kind());
        if let Some(run) = run {
            let _ = write!(out, ",\"run\":{}", json_str(run));
        }
        let _ = write!(
            out,
            ",\"slot\":{},\"t_ns\":{}",
            self.slot().index(),
            self.at().as_nanos()
        );
        self.write_payload(&mut out);
        out.push('}');
        out
    }

    /// Parses one JSONL line produced by [`Event::to_jsonl`].
    ///
    /// # Errors
    ///
    /// [`EventParseError::Malformed`] describing the first syntactic or
    /// semantic problem (broken JSON, missing field, wrong value type),
    /// or [`EventParseError::UnknownTag`] for an otherwise well-formed
    /// line of an event type this version does not know.
    pub fn from_jsonl(line: &str) -> Result<Event, EventParseError> {
        Ok(Event::from_jsonl_tagged(line)?.1)
    }

    /// Parses one JSONL line, also returning the `"run"` tag written by
    /// [`Event::to_jsonl_tagged`] when present. This is what log
    /// consumers (`spotdc-trace`) use to keep interleaved runs
    /// attributable.
    ///
    /// # Errors
    ///
    /// Same as [`Event::from_jsonl`].
    pub fn from_jsonl_tagged(line: &str) -> Result<(Option<String>, Event), EventParseError> {
        let fields = parse_flat_object(line).map_err(EventParseError::Malformed)?;
        let run = read_optional_field(&fields, "run")?;
        let slot = Slot::new(read_field(&fields, "slot")?);
        let at = MonotonicNanos::from_raw(read_field(&fields, "t_ns")?);
        let kind: String = read_field(&fields, "event")?;
        Ok((run, Event::read_payload(&kind, slot, at, &fields)?))
    }
}

/// Why a JSONL line did not parse into an [`Event`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventParseError {
    /// The line is a well-formed event (an object with its `slot` and
    /// `t_ns`) whose `"event"` tag, carried here, is not in
    /// [`Event::KINDS`]: a newer writer's log, not a damaged one.
    UnknownTag(String),
    /// Anything else — broken JSON, a missing field, a value of the
    /// wrong type — with a description of the first problem found.
    Malformed(String),
}

impl fmt::Display for EventParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventParseError::UnknownTag(tag) => write!(f, "unknown event tag {tag:?}"),
            EventParseError::Malformed(why) => f.write_str(why),
        }
    }
}

impl std::error::Error for EventParseError {}

/// How one payload value crosses the wire: the single place that
/// decides a type's number formatting or string escaping, and what
/// counts as a valid token for it on the way back.
trait Field: Sized {
    /// Appends the value as one JSON token.
    fn encode(&self, out: &mut String);

    /// Parses the value back. The error says what is wrong with the
    /// token, worded to follow `field "<name>"`.
    fn decode(value: &JsonValue) -> Result<Self, String>;
}

impl Field for f64 {
    /// JSON has no Infinity/NaN, and a null-ish sentinel would be worse
    /// than being explicit: non-finite values serialize as `0`.
    fn encode(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            out.push('0');
        }
    }

    fn decode(value: &JsonValue) -> Result<Self, String> {
        decode_number(value, "number")
    }
}

impl Field for u64 {
    fn encode(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }

    fn decode(value: &JsonValue) -> Result<Self, String> {
        decode_number(value, "integer")
    }
}

impl Field for String {
    fn encode(&self, out: &mut String) {
        out.push_str(&json_str(self));
    }

    fn decode(value: &JsonValue) -> Result<Self, String> {
        match value {
            JsonValue::Str(s) => Ok(s.clone()),
            JsonValue::Num(_) => Err(" is not a string".to_owned()),
        }
    }
}

/// Parses a numeric token losslessly as `T` (`what` names the expected
/// class, "number" or "integer", in the error).
fn decode_number<T: FromStr>(value: &JsonValue, what: &str) -> Result<T, String> {
    match value {
        JsonValue::Num(raw) => raw.parse().map_err(|_| format!(": bad {what} {raw:?}")),
        JsonValue::Str(_) => Err(" is not a number".to_owned()),
    }
}

/// Decodes a field that a parsed line must have.
fn read_field<T: Field>(fields: &Fields, key: &str) -> Result<T, EventParseError> {
    read_optional_field(fields, key)?
        .ok_or_else(|| EventParseError::Malformed(format!("missing field {key:?}")))
}

/// Decodes a field of a parsed line, if the line has it.
fn read_optional_field<T: Field>(fields: &Fields, key: &str) -> Result<Option<T>, EventParseError> {
    let decoded = fields.get(key).map(T::decode).transpose();
    decoded.map_err(|why| EventParseError::Malformed(format!("field {key:?}{why}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One event per variant: the untagged lines of the golden file
    /// (`tests/event_golden.rs` holds the hand-written originals).
    fn sample_events() -> Vec<Event> {
        include_str!("../tests/golden/events.jsonl")
            .lines()
            .step_by(2)
            .map(|line| Event::from_jsonl(line).expect(line))
            .collect()
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        for bad in [
            "",
            "{}",
            "{\"event\":\"SlotCleared\",\"slot\":1,\"t_ns\":2}",
            "{\"slot\":1",
            "{\"slot\":1} trailing",
            // No slot: not even a well-formed event of unknown type.
            "{\"event\":\"Nope\"}",
            "{\"event\":\"SpanClosed\",\"run\":3,\"slot\":1,\"t_ns\":2,\"span\":\"s\",\"nanos\":4}",
            "{\"event\":\"SpanClosed\",\"slot\":1,\"t_ns\":2,\"span\":\"s\",\"nanos\":-4}",
            "{\"event\":\"SpanClosed\",\"slot\":1,\"t_ns\":2,\"span\":5,\"nanos\":4}",
        ] {
            let err = Event::from_jsonl(bad).unwrap_err();
            assert!(matches!(err, EventParseError::Malformed(_)), "{bad}: {err}");
        }
    }

    #[test]
    fn error_messages_name_the_field_and_the_problem() {
        let err = |line: &str| Event::from_jsonl(line).unwrap_err().to_string();
        let span = |rest: &str| format!("{{\"event\":\"SpanClosed\",\"slot\":1,\"t_ns\":2{rest}}}");
        assert_eq!(err(&span("")), "missing field \"span\"");
        assert_eq!(err(&span(",\"span\":5")), "field \"span\" is not a string");
        assert_eq!(
            err(&span(",\"span\":\"s\",\"nanos\":\"4\"")),
            "field \"nanos\" is not a number"
        );
        assert_eq!(
            err(&span(",\"span\":\"s\",\"nanos\":1.5")),
            "field \"nanos\": bad integer \"1.5\""
        );
        assert_eq!(
            err("{\"event\":\"CapApplied\",\"slot\":1,\"t_ns\":2,\"level\":\"ups\",\"shed_watts\":1-2}"),
            "field \"shed_watts\": bad number \"1-2\""
        );
        assert_eq!(
            err(&span(",\"run\":7,\"span\":\"s\",\"nanos\":4")),
            "field \"run\" is not a string"
        );
    }

    #[test]
    fn unknown_tags_are_typed_not_described() {
        let err = Event::from_jsonl("{\"event\":\"Nope\",\"slot\":1,\"t_ns\":2}").unwrap_err();
        assert_eq!(err, EventParseError::UnknownTag("Nope".to_owned()));
        assert_eq!(err.to_string(), "unknown event tag \"Nope\"");
    }

    #[test]
    fn parser_tolerates_whitespace() {
        let spaced = "{ \"event\" : \"PredictionIssued\" , \"slot\" : 7 , \"t_ns\" : 1 ,\
                      \"ups_watts\" : 1.5 , \"pdu_total_watts\" : 2.5 , \"pdus\" : 2 }";
        let event = Event::from_jsonl(spaced).unwrap();
        assert_eq!(event.slot(), Slot::new(7));
        assert_eq!(event.kind(), "PredictionIssued");
    }

    #[test]
    fn non_finite_floats_serialize_as_zero() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let line = Event::ConstraintBound {
                slot: Slot::new(1),
                at: MonotonicNanos::from_raw(2),
                constraint: "ups".to_owned(),
                limit_watts: x,
            }
            .to_jsonl();
            assert!(line.ends_with("\"limit_watts\":0}"), "{line}");
        }
    }

    #[test]
    fn critical_events_bypass_sampling() {
        let critical: Vec<&str> = sample_events()
            .iter()
            .filter(|e| e.is_critical())
            .map(Event::kind)
            .collect();
        assert_eq!(
            critical,
            vec![
                "ConstraintBound",
                "EmergencyTriggered",
                "BidRejected",
                "DegradedDecision",
                "CapApplied",
                "InvariantViolated",
                "RecoveryPerformed",
                "JournalTruncated",
                "ShardDown",
            ]
        );
    }
}
