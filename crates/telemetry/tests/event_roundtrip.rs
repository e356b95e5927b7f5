//! Property test: the JSONL wire format round-trips every [`Event`]
//! variant exactly, tagged or not.
//!
//! `spotdc-trace` trusts `Event::from_jsonl_tagged` to reconstruct
//! whatever a `FileSink` wrote; this pins that
//! trust down across every variant with adversarial strings (quotes,
//! backslashes, newlines, control characters, non-ASCII) and full-range
//! numeric fields. `every_kind_is_generated` keeps "every" true: a
//! variant added to the event table without a generator here fails it.

use std::collections::BTreeSet;

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use spotdc_telemetry::Event;
use spotdc_units::{MonotonicNanos, Slot};

/// Strings drawn from an alphabet chosen to stress the escaper: JSON
/// metacharacters, whitespace escapes, a control character, and
/// multi-byte UTF-8. (The vendored proptest has no string strategies,
/// so build them from a character vector.)
fn text() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop_oneof![
            Just('a'),
            Just('Z'),
            Just('3'),
            Just('-'),
            Just('_'),
            Just(' '),
            Just('"'),
            Just('\\'),
            Just('/'),
            Just('\n'),
            Just('\r'),
            Just('\t'),
            Just('\u{1}'),
            Just('µ'),
            Just('→'),
        ],
        0..12,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

/// Finite non-negative magnitudes, the range telemetry fields carry.
fn magnitude() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), 0.0..2.0e7, 0.0..0.001]
}

fn any_u64() -> impl Strategy<Value = u64> {
    0u64..=u64::MAX
}

fn base() -> impl Strategy<Value = (Slot, MonotonicNanos)> {
    (any_u64(), any_u64()).prop_map(|(slot, at)| (Slot::new(slot), MonotonicNanos::from_raw(at)))
}

fn event() -> impl Strategy<Value = Event> {
    prop_oneof![
        (
            base(),
            magnitude(),
            magnitude(),
            magnitude(),
            0u64..=u64::MAX
        )
            .prop_map(
                |((slot, at), price_per_kw_hour, sold_watts, revenue_rate_per_hour, candidates)| {
                    Event::SlotCleared {
                        slot,
                        at,
                        price_per_kw_hour,
                        sold_watts,
                        revenue_rate_per_hour,
                        candidates_evaluated: candidates,
                    }
                }
            ),
        (base(), magnitude(), magnitude(), 0u64..=64).prop_map(
            |((slot, at), ups_watts, pdu_total_watts, pdus)| Event::PredictionIssued {
                slot,
                at,
                ups_watts,
                pdu_total_watts,
                pdus,
            }
        ),
        (base(), text(), magnitude()).prop_map(|((slot, at), constraint, limit_watts)| {
            Event::ConstraintBound {
                slot,
                at,
                constraint,
                limit_watts,
            }
        }),
        (base(), text(), magnitude(), magnitude()).prop_map(
            |((slot, at), level, load_watts, capacity_watts)| Event::EmergencyTriggered {
                slot,
                at,
                level,
                load_watts,
                capacity_watts,
            }
        ),
        (base(), 0u64..=u64::MAX, 0u64..=48, text()).prop_map(
            |((slot, at), tenant, racks, reason)| Event::BidRejected {
                slot,
                at,
                tenant,
                racks,
                reason,
            }
        ),
        (base(), text(), text()).prop_map(|((slot, at), kind, target)| Event::FaultInjected {
            slot,
            at,
            kind,
            target,
        }),
        (base(), text(), text(), magnitude()).prop_map(|((slot, at), kind, detail, watts)| {
            Event::DegradedDecision {
                slot,
                at,
                kind,
                detail,
                watts,
            }
        }),
        (base(), text(), magnitude(), magnitude()).prop_map(
            |((slot, at), level, shed_watts, capped_watts)| Event::CapApplied {
                slot,
                at,
                level,
                shed_watts,
                capped_watts,
            }
        ),
        (base(), text()).prop_map(|((slot, at), violation)| Event::InvariantViolated {
            slot,
            at,
            violation,
        }),
        (base(), text(), 0u64..=u64::MAX).prop_map(|((slot, at), span, nanos)| {
            Event::SpanClosed {
                slot,
                at,
                span,
                nanos,
            }
        }),
        (base(), any_u64(), any_u64()).prop_map(|((slot, at), bytes, nanos)| {
            Event::CheckpointWritten {
                slot,
                at,
                bytes,
                nanos,
            }
        }),
        (base(), any_u64(), any_u64()).prop_map(|((slot, at), snapshot_slot, replayed_slots)| {
            Event::RecoveryPerformed {
                slot,
                at,
                snapshot_slot,
                replayed_slots,
            }
        }),
        (base(), text(), any_u64()).prop_map(|((slot, at), reason, dropped_bytes)| {
            Event::JournalTruncated {
                slot,
                at,
                reason,
                dropped_bytes,
            }
        }),
        (
            base(),
            text(),
            any_u64(),
            any_u64(),
            any_u64(),
            any_u64(),
            any_u64()
        )
            .prop_map(
                |((slot, at), phase, frames_sent, frames_recv, bytes_sent, bytes_recv, tasks)| {
                    Event::ShardRpc {
                        slot,
                        at,
                        phase,
                        frames_sent,
                        frames_recv,
                        bytes_sent,
                        bytes_recv,
                        tasks,
                    }
                }
            ),
        (base(), any_u64(), any_u64(), any_u64()).prop_map(
            |((slot, at), shard, outcomes, nanos)| Event::ShardCleared {
                slot,
                at,
                shard,
                outcomes,
                nanos,
            }
        ),
        (base(), any_u64(), text()).prop_map(|((slot, at), shard, reason)| Event::ShardDown {
            slot,
            at,
            shard,
            reason,
        }),
    ]
}

/// The generator above is a hand-written list; the table is the truth.
#[test]
fn every_kind_is_generated() {
    let strategy = event();
    let mut rng = TestRng::deterministic("every_kind_is_generated");
    let generated: BTreeSet<&str> = (0..4_096)
        .map(|_| strategy.sample(&mut rng).kind())
        .collect();
    let declared: BTreeSet<&str> = Event::KINDS.iter().copied().collect();
    assert_eq!(generated, declared);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn untagged_round_trip_is_exact(event in event()) {
        let line = event.to_jsonl();
        prop_assert!(!line.contains('\n'), "JSONL must stay one line: {line:?}");
        let (run, back) = Event::from_jsonl_tagged(&line)
            .unwrap_or_else(|e| panic!("parse failed: {e}\nline: {line}"));
        prop_assert_eq!(run, None);
        prop_assert_eq!(back, event);
    }

    #[test]
    fn tagged_round_trip_recovers_run_and_event(event in event(), run in text()) {
        let line = event.to_jsonl_tagged(Some(&run));
        prop_assert!(!line.contains('\n'), "JSONL must stay one line: {line:?}");
        let (tag, back) = Event::from_jsonl_tagged(&line)
            .unwrap_or_else(|e| panic!("parse failed: {e}\nline: {line}"));
        prop_assert_eq!(tag.as_deref(), Some(run.as_str()));
        prop_assert_eq!(back, event);
    }
}
