//! Typed structured events and their JSONL wire format.
//!
//! Events are hand-serialized (the build environment has no serde
//! runtime) to one flat JSON object per line:
//!
//! ```json
//! {"event":"SlotCleared","slot":12,"t_ns":83012,"price_per_kw_hour":0.25,...}
//! ```
//!
//! [`Event::from_jsonl`] parses that format back, which keeps the
//! round-trip honest (see the crate tests) and lets downstream tooling
//! and the repro binary consume `telemetry.jsonl` without a JSON
//! library.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use spotdc_units::{MonotonicNanos, Slot};

/// One structured telemetry event from the market pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
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
        /// Candidate prices evaluated by the clearing search.
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
    /// region) finished for a slot. Emitted by the engine loop so
    /// post-hoc tooling (`spotdc-trace`) can reconstruct per-stage
    /// latency distributions from the JSONL log alone, without access
    /// to the in-process registry histograms.
    SpanClosed {
        /// The slot the span ran in.
        slot: Slot,
        /// Monotonic timestamp at close.
        at: MonotonicNanos,
        /// Span name (`stage.sense`, `stage.clear_market`, ...).
        span: String,
        /// Measured duration, nanoseconds.
        nanos: u64,
    },
    /// How the clearing engine resolved a slot: a full price sweep, a
    /// fingerprint cache hit reusing every cached sum, or the legacy
    /// per-candidate scan (zone/phase markets). Lets `spotdc-trace`
    /// report clearing-cache effectiveness per run.
    ClearingCache {
        /// The slot that was cleared.
        slot: Slot,
        /// Monotonic timestamp.
        at: MonotonicNanos,
        /// Resolution mode ("full", "hit", "legacy").
        mode: String,
        /// Candidate prices considered by the search.
        candidates_total: u64,
        /// Candidate prices actually re-swept (0 on a cache hit).
        candidates_swept: u64,
    },
    /// The durable engine cut a checkpoint: the full cross-slot market
    /// state was atomically persisted and the write-ahead journal was
    /// restarted.
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
    /// A resumed run recovered from durable state: the latest valid
    /// checkpoint was loaded and the journaled slots were replayed.
    RecoveryPerformed {
        /// The first slot simulated live after recovery.
        slot: Slot,
        /// Monotonic timestamp.
        at: MonotonicNanos,
        /// Slots covered by the checkpoint the recovery started from
        /// (0 when no checkpoint existed and replay started cold).
        snapshot_slot: u64,
        /// Journaled slots deterministically re-simulated.
        replayed_slots: u64,
    },
    /// Recovery found a damaged journal tail and truncated it: either a
    /// partial record from the crash ("torn") or a CRC mismatch under a
    /// complete record ("corrupt").
    JournalTruncated {
        /// The slot recovery resumed from after truncation.
        slot: Slot,
        /// Monotonic timestamp.
        at: MonotonicNanos,
        /// Damage class: "torn" or "corrupt".
        reason: String,
        /// Bytes discarded from the journal tail.
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
}

impl Event {
    /// The event's type tag as serialized in the `"event"` field.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Event::SlotCleared { .. } => "SlotCleared",
            Event::PredictionIssued { .. } => "PredictionIssued",
            Event::ConstraintBound { .. } => "ConstraintBound",
            Event::EmergencyTriggered { .. } => "EmergencyTriggered",
            Event::BidRejected { .. } => "BidRejected",
            Event::FaultInjected { .. } => "FaultInjected",
            Event::DegradedDecision { .. } => "DegradedDecision",
            Event::CapApplied { .. } => "CapApplied",
            Event::InvariantViolated { .. } => "InvariantViolated",
            Event::SpanClosed { .. } => "SpanClosed",
            Event::ClearingCache { .. } => "ClearingCache",
            Event::CheckpointWritten { .. } => "CheckpointWritten",
            Event::RecoveryPerformed { .. } => "RecoveryPerformed",
            Event::JournalTruncated { .. } => "JournalTruncated",
            Event::ShardRpc { .. } => "ShardRpc",
            Event::ShardCleared { .. } => "ShardCleared",
        }
    }

    /// The market slot the event belongs to.
    #[must_use]
    pub fn slot(&self) -> Slot {
        match self {
            Event::SlotCleared { slot, .. }
            | Event::PredictionIssued { slot, .. }
            | Event::ConstraintBound { slot, .. }
            | Event::EmergencyTriggered { slot, .. }
            | Event::BidRejected { slot, .. }
            | Event::FaultInjected { slot, .. }
            | Event::DegradedDecision { slot, .. }
            | Event::CapApplied { slot, .. }
            | Event::InvariantViolated { slot, .. }
            | Event::SpanClosed { slot, .. }
            | Event::ClearingCache { slot, .. }
            | Event::CheckpointWritten { slot, .. }
            | Event::RecoveryPerformed { slot, .. }
            | Event::JournalTruncated { slot, .. }
            | Event::ShardRpc { slot, .. }
            | Event::ShardCleared { slot, .. } => *slot,
        }
    }

    /// The event's monotonic timestamp.
    #[must_use]
    pub fn at(&self) -> MonotonicNanos {
        match self {
            Event::SlotCleared { at, .. }
            | Event::PredictionIssued { at, .. }
            | Event::ConstraintBound { at, .. }
            | Event::EmergencyTriggered { at, .. }
            | Event::BidRejected { at, .. }
            | Event::FaultInjected { at, .. }
            | Event::DegradedDecision { at, .. }
            | Event::CapApplied { at, .. }
            | Event::InvariantViolated { at, .. }
            | Event::SpanClosed { at, .. }
            | Event::ClearingCache { at, .. }
            | Event::CheckpointWritten { at, .. }
            | Event::RecoveryPerformed { at, .. }
            | Event::JournalTruncated { at, .. }
            | Event::ShardRpc { at, .. }
            | Event::ShardCleared { at, .. } => *at,
        }
    }

    /// Whether the event must bypass `sample_every` down-sampling.
    ///
    /// Routine per-slot traffic (clearings, predictions) can be sampled;
    /// anomalies (emergencies, rejections, binding constraints) and
    /// one-per-run lifecycle events (recoveries, journal truncations)
    /// are rare and always recorded. Checkpoint writes are routine
    /// cadence traffic and may be sampled.
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
        )
    }

    /// Whether the event is a capacity-emergency-class anomaly that
    /// should trip the flight recorder's black-box dump: an observed
    /// overload, an invariant violation, or cap-shedding (either the
    /// cap controller acting or a `cap-shed` degradation decision).
    ///
    /// A strict subset of [`Event::is_critical`]: routine degradations
    /// (stale meters, late bids) and bid rejections are critical enough
    /// to bypass sampling but not emergencies worth a disk snapshot.
    #[must_use]
    pub fn is_blackbox_trigger(&self) -> bool {
        match self {
            Event::EmergencyTriggered { .. }
            | Event::InvariantViolated { .. }
            | Event::CapApplied { .. } => true,
            Event::DegradedDecision { kind, .. } => kind == "cap-shed",
            _ => false,
        }
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
        match self {
            Event::SlotCleared {
                price_per_kw_hour,
                sold_watts,
                revenue_rate_per_hour,
                candidates_evaluated,
                ..
            } => {
                let _ = write!(
                    out,
                    ",\"price_per_kw_hour\":{},\"sold_watts\":{},\
                     \"revenue_rate_per_hour\":{},\"candidates_evaluated\":{}",
                    json_num(*price_per_kw_hour),
                    json_num(*sold_watts),
                    json_num(*revenue_rate_per_hour),
                    candidates_evaluated
                );
            }
            Event::PredictionIssued {
                ups_watts,
                pdu_total_watts,
                pdus,
                ..
            } => {
                let _ = write!(
                    out,
                    ",\"ups_watts\":{},\"pdu_total_watts\":{},\"pdus\":{}",
                    json_num(*ups_watts),
                    json_num(*pdu_total_watts),
                    pdus
                );
            }
            Event::ConstraintBound {
                constraint,
                limit_watts,
                ..
            } => {
                let _ = write!(
                    out,
                    ",\"constraint\":{},\"limit_watts\":{}",
                    json_str(constraint),
                    json_num(*limit_watts)
                );
            }
            Event::EmergencyTriggered {
                level,
                load_watts,
                capacity_watts,
                ..
            } => {
                let _ = write!(
                    out,
                    ",\"level\":{},\"load_watts\":{},\"capacity_watts\":{}",
                    json_str(level),
                    json_num(*load_watts),
                    json_num(*capacity_watts)
                );
            }
            Event::BidRejected {
                tenant,
                racks,
                reason,
                ..
            } => {
                let _ = write!(
                    out,
                    ",\"tenant\":{},\"racks\":{},\"reason\":{}",
                    tenant,
                    racks,
                    json_str(reason)
                );
            }
            Event::FaultInjected { kind, target, .. } => {
                let _ = write!(
                    out,
                    ",\"kind\":{},\"target\":{}",
                    json_str(kind),
                    json_str(target)
                );
            }
            Event::DegradedDecision {
                kind,
                detail,
                watts,
                ..
            } => {
                let _ = write!(
                    out,
                    ",\"kind\":{},\"detail\":{},\"watts\":{}",
                    json_str(kind),
                    json_str(detail),
                    json_num(*watts)
                );
            }
            Event::CapApplied {
                level,
                shed_watts,
                capped_watts,
                ..
            } => {
                let _ = write!(
                    out,
                    ",\"level\":{},\"shed_watts\":{},\"capped_watts\":{}",
                    json_str(level),
                    json_num(*shed_watts),
                    json_num(*capped_watts)
                );
            }
            Event::InvariantViolated { violation, .. } => {
                let _ = write!(out, ",\"violation\":{}", json_str(violation));
            }
            Event::SpanClosed { span, nanos, .. } => {
                let _ = write!(out, ",\"span\":{},\"nanos\":{}", json_str(span), nanos);
            }
            Event::ClearingCache {
                mode,
                candidates_total,
                candidates_swept,
                ..
            } => {
                let _ = write!(
                    out,
                    ",\"mode\":{},\"candidates_total\":{},\"candidates_swept\":{}",
                    json_str(mode),
                    candidates_total,
                    candidates_swept
                );
            }
            Event::CheckpointWritten { bytes, nanos, .. } => {
                let _ = write!(out, ",\"bytes\":{bytes},\"nanos\":{nanos}");
            }
            Event::RecoveryPerformed {
                snapshot_slot,
                replayed_slots,
                ..
            } => {
                let _ = write!(
                    out,
                    ",\"snapshot_slot\":{snapshot_slot},\"replayed_slots\":{replayed_slots}"
                );
            }
            Event::JournalTruncated {
                reason,
                dropped_bytes,
                ..
            } => {
                let _ = write!(
                    out,
                    ",\"reason\":{},\"dropped_bytes\":{}",
                    json_str(reason),
                    dropped_bytes
                );
            }
            Event::ShardRpc {
                phase,
                frames_sent,
                frames_recv,
                bytes_sent,
                bytes_recv,
                tasks,
                ..
            } => {
                let _ = write!(
                    out,
                    ",\"phase\":{},\"frames_sent\":{},\"frames_recv\":{},\"bytes_sent\":{},\"bytes_recv\":{},\"tasks\":{}",
                    json_str(phase),
                    frames_sent,
                    frames_recv,
                    bytes_sent,
                    bytes_recv,
                    tasks
                );
            }
            Event::ShardCleared {
                shard,
                outcomes,
                nanos,
                ..
            } => {
                let _ = write!(
                    out,
                    ",\"shard\":{shard},\"outcomes\":{outcomes},\"nanos\":{nanos}"
                );
            }
        }
        out.push('}');
        out
    }

    /// Parses one JSONL line produced by [`Event::to_jsonl`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntactic or semantic problem
    /// (malformed JSON, unknown event tag, missing field).
    pub fn from_jsonl(line: &str) -> Result<Event, String> {
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
    pub fn from_jsonl_tagged(line: &str) -> Result<(Option<String>, Event), String> {
        let fields = parse_flat_object(line)?;
        let run = match fields.get("run") {
            Some(JsonValue::Str(s)) => Some(s.clone()),
            Some(JsonValue::Num(_)) => return Err("field \"run\" is not a string".to_owned()),
            None => None,
        };
        let str_field = |k: &str| -> Result<&str, String> {
            match fields.get(k) {
                Some(JsonValue::Str(s)) => Ok(s),
                Some(JsonValue::Num(_)) => Err(format!("field {k:?} is not a string")),
                None => Err(format!("missing field {k:?}")),
            }
        };
        let num = |k: &str| -> Result<f64, String> {
            match fields.get(k) {
                Some(JsonValue::Num(raw)) => raw
                    .parse::<f64>()
                    .map_err(|_| format!("field {k:?}: bad number {raw:?}")),
                Some(JsonValue::Str(_)) => Err(format!("field {k:?} is not a number")),
                None => Err(format!("missing field {k:?}")),
            }
        };
        let int = |k: &str| -> Result<u64, String> {
            match fields.get(k) {
                Some(JsonValue::Num(raw)) => raw
                    .parse::<u64>()
                    .map_err(|_| format!("field {k:?}: bad integer {raw:?}")),
                Some(JsonValue::Str(_)) => Err(format!("field {k:?} is not a number")),
                None => Err(format!("missing field {k:?}")),
            }
        };

        let slot = Slot::new(int("slot")?);
        let at = MonotonicNanos::from_raw(int("t_ns")?);
        let event = match str_field("event")? {
            "SlotCleared" => Ok(Event::SlotCleared {
                slot,
                at,
                price_per_kw_hour: num("price_per_kw_hour")?,
                sold_watts: num("sold_watts")?,
                revenue_rate_per_hour: num("revenue_rate_per_hour")?,
                candidates_evaluated: int("candidates_evaluated")?,
            }),
            "PredictionIssued" => Ok(Event::PredictionIssued {
                slot,
                at,
                ups_watts: num("ups_watts")?,
                pdu_total_watts: num("pdu_total_watts")?,
                pdus: int("pdus")?,
            }),
            "ConstraintBound" => Ok(Event::ConstraintBound {
                slot,
                at,
                constraint: str_field("constraint")?.to_owned(),
                limit_watts: num("limit_watts")?,
            }),
            "EmergencyTriggered" => Ok(Event::EmergencyTriggered {
                slot,
                at,
                level: str_field("level")?.to_owned(),
                load_watts: num("load_watts")?,
                capacity_watts: num("capacity_watts")?,
            }),
            "BidRejected" => Ok(Event::BidRejected {
                slot,
                at,
                tenant: int("tenant")?,
                racks: int("racks")?,
                reason: str_field("reason")?.to_owned(),
            }),
            "FaultInjected" => Ok(Event::FaultInjected {
                slot,
                at,
                kind: str_field("kind")?.to_owned(),
                target: str_field("target")?.to_owned(),
            }),
            "DegradedDecision" => Ok(Event::DegradedDecision {
                slot,
                at,
                kind: str_field("kind")?.to_owned(),
                detail: str_field("detail")?.to_owned(),
                watts: num("watts")?,
            }),
            "CapApplied" => Ok(Event::CapApplied {
                slot,
                at,
                level: str_field("level")?.to_owned(),
                shed_watts: num("shed_watts")?,
                capped_watts: num("capped_watts")?,
            }),
            "InvariantViolated" => Ok(Event::InvariantViolated {
                slot,
                at,
                violation: str_field("violation")?.to_owned(),
            }),
            "SpanClosed" => Ok(Event::SpanClosed {
                slot,
                at,
                span: str_field("span")?.to_owned(),
                nanos: int("nanos")?,
            }),
            "ClearingCache" => Ok(Event::ClearingCache {
                slot,
                at,
                mode: str_field("mode")?.to_owned(),
                candidates_total: int("candidates_total")?,
                candidates_swept: int("candidates_swept")?,
            }),
            "CheckpointWritten" => Ok(Event::CheckpointWritten {
                slot,
                at,
                bytes: int("bytes")?,
                nanos: int("nanos")?,
            }),
            "RecoveryPerformed" => Ok(Event::RecoveryPerformed {
                slot,
                at,
                snapshot_slot: int("snapshot_slot")?,
                replayed_slots: int("replayed_slots")?,
            }),
            "JournalTruncated" => Ok(Event::JournalTruncated {
                slot,
                at,
                reason: str_field("reason")?.to_owned(),
                dropped_bytes: int("dropped_bytes")?,
            }),
            "ShardRpc" => Ok(Event::ShardRpc {
                slot,
                at,
                phase: str_field("phase")?.to_owned(),
                frames_sent: int("frames_sent")?,
                frames_recv: int("frames_recv")?,
                bytes_sent: int("bytes_sent")?,
                bytes_recv: int("bytes_recv")?,
                tasks: int("tasks")?,
            }),
            "ShardCleared" => Ok(Event::ShardCleared {
                slot,
                at,
                shard: int("shard")?,
                outcomes: int("outcomes")?,
                nanos: int("nanos")?,
            }),
            other => Err(format!("unknown event tag {other:?}")),
        }?;
        Ok((run, event))
    }
}

/// Formats an `f64` so it survives the round-trip (JSON has no
/// Infinity/NaN; clamp those to null-ish sentinels is worse than being
/// explicit, so they serialize as 0 with the sign preserved for -0).
fn json_num(x: f64) -> String {
    if x.is_finite() {
        let s = x.to_string();
        // `f64::to_string` never produces exponents for the magnitudes
        // telemetry sees, but be safe: JSON accepts them anyway.
        s
    } else {
        "0".to_owned()
    }
}

/// Quotes and escapes a JSON string.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A value in a flat JSON object: a string, or a number kept as its raw
/// token so integers parse losslessly.
#[derive(Debug, Clone, PartialEq)]
enum JsonValue {
    Str(String),
    Num(String),
}

/// Parses a single-level JSON object (`{"k":v,...}` with string or
/// numeric values — all this crate ever emits).
fn parse_flat_object(input: &str) -> Result<BTreeMap<String, JsonValue>, String> {
    let mut chars = input.trim().chars().peekable();
    let mut out = BTreeMap::new();
    if chars.next() != Some('{') {
        return Err("expected '{'".to_owned());
    }
    loop {
        skip_ws(&mut chars);
        match chars.peek() {
            Some('}') => {
                chars.next();
                break;
            }
            Some('"') => {}
            other => return Err(format!("expected key or '}}', found {other:?}")),
        }
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        if chars.next() != Some(':') {
            return Err(format!("expected ':' after key {key:?}"));
        }
        skip_ws(&mut chars);
        let value = match chars.peek() {
            Some('"') => JsonValue::Str(parse_string(&mut chars)?),
            Some(c) if c.is_ascii_digit() || *c == '-' => {
                let mut raw = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E') {
                        raw.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                JsonValue::Num(raw)
            }
            other => return Err(format!("unsupported value start {other:?}")),
        };
        out.insert(key, value);
        skip_ws(&mut chars);
        match chars.next() {
            Some(',') => {}
            Some('}') => break,
            other => return Err(format!("expected ',' or '}}', found {other:?}")),
        }
    }
    skip_ws(&mut chars);
    if chars.next().is_some() {
        return Err("trailing characters after object".to_owned());
    }
    Ok(out)
}

fn skip_ws(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) {
    while chars.peek().is_some_and(|c| c.is_ascii_whitespace()) {
        chars.next();
    }
}

fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Result<String, String> {
    if chars.next() != Some('"') {
        return Err("expected '\"'".to_owned());
    }
    let mut out = String::new();
    loop {
        match chars.next() {
            None => return Err("unterminated string".to_owned()),
            Some('"') => return Ok(out),
            Some('\\') => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('/') => out.push('/'),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('t') => out.push('\t'),
                Some('u') => {
                    let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                    let code = u32::from_str_radix(&hex, 16)
                        .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                    out.push(char::from_u32(code).ok_or("invalid \\u code point")?);
                }
                other => return Err(format!("bad escape {other:?}")),
            },
            Some(c) => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::SlotCleared {
                slot: Slot::new(12),
                at: MonotonicNanos::from_raw(83_012),
                price_per_kw_hour: 0.25,
                sold_watts: 1_234.5,
                revenue_rate_per_hour: 0.3086,
                candidates_evaluated: 101,
            },
            Event::PredictionIssued {
                slot: Slot::new(12),
                at: MonotonicNanos::from_raw(82_000),
                ups_watts: 5_000.0,
                pdu_total_watts: 6_200.0,
                pdus: 4,
            },
            Event::ConstraintBound {
                slot: Slot::new(13),
                at: MonotonicNanos::from_raw(90_001),
                constraint: "pdu-2".to_owned(),
                limit_watts: 800.0,
            },
            Event::EmergencyTriggered {
                slot: Slot::new(14),
                at: MonotonicNanos::from_raw(95_555),
                level: "ups".to_owned(),
                load_watts: 10_500.0,
                capacity_watts: 10_000.0,
            },
            Event::BidRejected {
                slot: Slot::new(15),
                at: MonotonicNanos::from_raw(99_999),
                tenant: 3,
                racks: 2,
                reason: "rack \"r7\" not metered\nretry next slot".to_owned(),
            },
            Event::FaultInjected {
                slot: Slot::new(16),
                at: MonotonicNanos::from_raw(100_001),
                kind: "meter-dropout".to_owned(),
                target: "rack-3".to_owned(),
            },
            Event::DegradedDecision {
                slot: Slot::new(17),
                at: MonotonicNanos::from_raw(100_055),
                kind: "stale-meter".to_owned(),
                detail: "2 stale racks, 1 withheld pdu".to_owned(),
                watts: 120.5,
            },
            Event::CapApplied {
                slot: Slot::new(18),
                at: MonotonicNanos::from_raw(100_101),
                level: "pdu-1".to_owned(),
                shed_watts: 35.0,
                capped_watts: 0.0,
            },
            Event::InvariantViolated {
                slot: Slot::new(19),
                at: MonotonicNanos::from_raw(100_201),
                violation: "pdu-0 spot 410 W exceeds predicted 400 W".to_owned(),
            },
            Event::SpanClosed {
                slot: Slot::new(20),
                at: MonotonicNanos::from_raw(100_301),
                span: "stage.clear_market".to_owned(),
                nanos: 48_211,
            },
            Event::ClearingCache {
                slot: Slot::new(21),
                at: MonotonicNanos::from_raw(100_401),
                mode: "hit".to_owned(),
                candidates_total: 101,
                candidates_swept: 0,
            },
            Event::CheckpointWritten {
                slot: Slot::new(50),
                at: MonotonicNanos::from_raw(100_501),
                bytes: 18_432,
                nanos: 312_000,
            },
            Event::RecoveryPerformed {
                slot: Slot::new(73),
                at: MonotonicNanos::from_raw(100_601),
                snapshot_slot: 50,
                replayed_slots: 23,
            },
            Event::JournalTruncated {
                slot: Slot::new(73),
                at: MonotonicNanos::from_raw(100_600),
                reason: "torn".to_owned(),
                dropped_bytes: 41,
            },
            Event::ShardRpc {
                slot: Slot::new(80),
                at: MonotonicNanos::from_raw(100_700),
                phase: "slot".to_owned(),
                frames_sent: 2,
                frames_recv: 2,
                bytes_sent: 612,
                bytes_recv: 498,
                tasks: 6,
            },
            Event::ShardCleared {
                slot: Slot::new(80),
                at: MonotonicNanos::from_raw(100_750),
                shard: 1,
                outcomes: 3,
                nanos: 52_000,
            },
        ]
    }

    #[test]
    fn jsonl_round_trip_preserves_every_event() {
        for event in sample_events() {
            let line = event.to_jsonl();
            assert!(!line.contains('\n'), "JSONL must be one line: {line}");
            let back = Event::from_jsonl(&line).expect(&line);
            assert_eq!(back, event, "line: {line}");
        }
    }

    #[test]
    fn jsonl_shape_is_stable() {
        let line = sample_events()[0].to_jsonl();
        assert_eq!(
            line,
            "{\"event\":\"SlotCleared\",\"slot\":12,\"t_ns\":83012,\
             \"price_per_kw_hour\":0.25,\"sold_watts\":1234.5,\
             \"revenue_rate_per_hour\":0.3086,\"candidates_evaluated\":101}"
        );
    }

    #[test]
    fn tagged_lines_carry_run_and_parse_back() {
        for event in sample_events() {
            let line = event.to_jsonl_tagged(Some("fig12"));
            assert!(line.starts_with("{\"event\":\""), "line: {line}");
            assert!(line.contains("\"run\":\"fig12\""), "line: {line}");
            let back = Event::from_jsonl(&line).expect(&line);
            assert_eq!(back, event, "run tag must not change the payload");
        }
        // Untagged serialization is unchanged.
        assert_eq!(
            sample_events()[0].to_jsonl_tagged(None),
            sample_events()[0].to_jsonl()
        );
    }

    #[test]
    fn run_tags_with_quotes_are_escaped() {
        let line = sample_events()[0].to_jsonl_tagged(Some("ab\"c"));
        assert!(line.contains("\"run\":\"ab\\\"c\""), "line: {line}");
        assert!(Event::from_jsonl(&line).is_ok());
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(Event::from_jsonl("").is_err());
        assert!(Event::from_jsonl("{}").is_err());
        assert!(Event::from_jsonl("{\"event\":\"Nope\",\"slot\":1,\"t_ns\":2}").is_err());
        assert!(Event::from_jsonl("{\"event\":\"SlotCleared\",\"slot\":1,\"t_ns\":2}").is_err());
        assert!(Event::from_jsonl("{\"slot\":1").is_err());
        assert!(Event::from_jsonl("{\"slot\":1} trailing").is_err());
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
    fn critical_events_bypass_sampling() {
        let kinds: Vec<(String, bool)> = sample_events()
            .iter()
            .map(|e| (e.kind().to_owned(), e.is_critical()))
            .collect();
        assert_eq!(
            kinds,
            vec![
                ("SlotCleared".to_owned(), false),
                ("PredictionIssued".to_owned(), false),
                ("ConstraintBound".to_owned(), true),
                ("EmergencyTriggered".to_owned(), true),
                ("BidRejected".to_owned(), true),
                ("FaultInjected".to_owned(), false),
                ("DegradedDecision".to_owned(), true),
                ("CapApplied".to_owned(), true),
                ("InvariantViolated".to_owned(), true),
                ("SpanClosed".to_owned(), false),
                ("ClearingCache".to_owned(), false),
                ("CheckpointWritten".to_owned(), false),
                ("RecoveryPerformed".to_owned(), true),
                ("JournalTruncated".to_owned(), true),
                ("ShardRpc".to_owned(), false),
                ("ShardCleared".to_owned(), false),
            ]
        );
    }

    #[test]
    fn blackbox_triggers_are_the_emergency_subset() {
        let triggers: Vec<&str> = sample_events()
            .iter()
            .filter(|e| e.is_blackbox_trigger())
            .map(Event::kind)
            .collect();
        assert_eq!(
            triggers,
            vec!["EmergencyTriggered", "CapApplied", "InvariantViolated"]
        );
        // Every trigger is also critical (never down-sampled away).
        for e in sample_events() {
            if e.is_blackbox_trigger() {
                assert!(e.is_critical(), "{} must be critical", e.kind());
            }
        }
        // A cap-shed degradation triggers; other degradations don't.
        let shed = Event::DegradedDecision {
            slot: Slot::new(1),
            at: MonotonicNanos::from_raw(1),
            kind: "cap-shed".to_owned(),
            detail: "pdu-0".to_owned(),
            watts: 10.0,
        };
        assert!(shed.is_blackbox_trigger());
    }

    #[test]
    fn from_jsonl_tagged_recovers_the_run() {
        for event in sample_events() {
            let line = event.to_jsonl_tagged(Some("fig14"));
            let (run, back) = Event::from_jsonl_tagged(&line).expect(&line);
            assert_eq!(run.as_deref(), Some("fig14"));
            assert_eq!(back, event);
            let (none, back) = Event::from_jsonl_tagged(&event.to_jsonl()).unwrap();
            assert_eq!(none, None);
            assert_eq!(back, event);
        }
    }
}
