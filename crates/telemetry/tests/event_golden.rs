//! The JSONL wire format, pinned byte for byte, and the reader's
//! behaviour on damaged lines.
//!
//! `tests/golden/events.jsonl` holds one untagged and one tagged line
//! per [`Event`] variant, written by the hand-rolled per-variant encoder
//! that preceded the event table. The table-driven codec must reproduce
//! the file exactly and read it back to the samples below, so "the
//! refactor kept the wire format" is a file comparison, not a claim.
//!
//! Regenerate (only when a wire-format change is intended — every
//! consumer of old `telemetry.jsonl` files breaks with it):
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test -p spotdc-telemetry --test event_golden
//! ```

use std::path::PathBuf;

use spotdc_telemetry::{Event, EventParseError};
use spotdc_units::{MonotonicNanos, Slot};

/// The run tag on every second golden line: a quote, a backslash and a
/// multi-byte character, so the tag's escaping is pinned too.
const RUN: &str = "fig12/\"µ\\";

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/events.jsonl")
}

/// One event per variant, in [`Event::KINDS`] order, with payloads that
/// exercise the encoder's corners: escapes, non-ASCII, `u64::MAX`,
/// integral and tiny floats.
fn samples() -> Vec<Event> {
    let at = MonotonicNanos::from_raw;
    vec![
        Event::SlotCleared {
            slot: Slot::new(12),
            at: at(83_012),
            price_per_kw_hour: 0.25,
            sold_watts: 1_234.5,
            revenue_rate_per_hour: 0.3086,
            candidates_evaluated: 101,
        },
        Event::PredictionIssued {
            slot: Slot::new(12),
            at: at(82_000),
            ups_watts: 5_000.0,
            pdu_total_watts: 20_000_000.0,
            pdus: 4,
        },
        Event::ConstraintBound {
            slot: Slot::new(13),
            at: at(90_001),
            constraint: "pdu-2".to_owned(),
            limit_watts: 0.000_000_1,
        },
        Event::EmergencyTriggered {
            slot: Slot::new(14),
            at: at(95_555),
            level: "ups".to_owned(),
            load_watts: 10_500.0,
            capacity_watts: 10_000.0,
        },
        Event::BidRejected {
            slot: Slot::new(15),
            at: at(99_999),
            tenant: u64::MAX,
            racks: 2,
            reason: "rack \"r7\" not metered\nretry\tnext slot\r".to_owned(),
        },
        Event::FaultInjected {
            slot: Slot::new(16),
            at: at(100_001),
            kind: "meter-dropout".to_owned(),
            target: "rack-3".to_owned(),
        },
        Event::DegradedDecision {
            slot: Slot::new(17),
            at: at(100_055),
            kind: "stale-meter".to_owned(),
            detail: "2 stale racks → 1 withheld pdu, 35 µs late".to_owned(),
            watts: 120.5,
        },
        Event::CapApplied {
            slot: Slot::new(18),
            at: at(100_101),
            level: "pdu-1".to_owned(),
            shed_watts: 35.0,
            capped_watts: 0.0,
        },
        Event::InvariantViolated {
            slot: Slot::new(19),
            at: at(100_201),
            violation: "C:\\pdu-0 spot 410 W / predicted 400 W \u{1}\u{1f}".to_owned(),
        },
        Event::SpanClosed {
            slot: Slot::new(20),
            at: at(100_301),
            span: "stage.clear_market".to_owned(),
            nanos: 48_211,
        },
        Event::CheckpointWritten {
            slot: Slot::new(50),
            at: at(100_501),
            bytes: 18_432,
            nanos: 312_000,
        },
        Event::RecoveryPerformed {
            slot: Slot::new(73),
            at: at(100_601),
            snapshot_slot: 50,
            replayed_slots: 23,
        },
        Event::JournalTruncated {
            slot: Slot::new(73),
            at: at(100_600),
            reason: "torn".to_owned(),
            dropped_bytes: 41,
        },
        Event::ShardRpc {
            slot: Slot::new(u64::MAX),
            at: at(u64::MAX),
            phase: "slot".to_owned(),
            frames_sent: 2,
            frames_recv: 3,
            bytes_sent: 612,
            bytes_recv: 498,
            tasks: 6,
        },
        Event::ShardCleared {
            slot: Slot::new(80),
            at: at(100_750),
            shard: 1,
            outcomes: 3,
            nanos: 52_000,
        },
        Event::ShardDown {
            slot: Slot::new(81),
            at: at(100_760),
            shard: 0,
            reason: "reply receive failed: torn frame: stream ended 3 bytes into the header"
                .to_owned(),
        },
    ]
}

/// The golden file's lines: per sample, untagged then tagged.
fn encoded(samples: &[Event]) -> String {
    samples
        .iter()
        .flat_map(|e| [e.to_jsonl(), e.to_jsonl_tagged(Some(RUN))])
        .map(|line| line + "\n")
        .collect()
}

fn golden() -> String {
    std::fs::read_to_string(golden_path()).expect("golden events.jsonl is checked in")
}

#[test]
fn samples_cover_every_kind_in_table_order() {
    let kinds: Vec<&str> = samples().iter().map(Event::kind).collect();
    assert_eq!(kinds, Event::KINDS);
}

#[test]
fn encoder_reproduces_the_golden_file() {
    let fresh = encoded(&samples());
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(golden_path(), &fresh).expect("write golden events.jsonl");
        return;
    }
    assert_eq!(fresh, golden(), "wire format drifted from the golden file");
}

#[test]
fn decoder_reads_the_golden_file_back_to_the_samples() {
    let golden = golden();
    let samples = samples();
    let mut lines = golden.lines();
    for event in &samples {
        for want_run in [None, Some(RUN)] {
            let line = lines.next().expect("two golden lines per sample");
            let (run, back) = Event::from_jsonl_tagged(line).expect(line);
            assert_eq!(run.as_deref(), want_run, "line: {line}");
            assert_eq!(&back, event, "line: {line}");
        }
    }
    assert_eq!(lines.next(), None, "golden file has extra lines");
}

/// Parses `line`, which must not panic: the result is an event or a
/// typed error that says something.
fn parse_is_total(line: &str) {
    if let Err(e) = Event::from_jsonl_tagged(line) {
        assert!(!e.to_string().is_empty(), "empty error for {line:?}");
    }
}

/// The `"key":value` members of a golden line, split on the commas
/// that separate them (commas inside string values stay put).
fn members(line: &str) -> Vec<&str> {
    let body = &line[1..line.len() - 1];
    let mut out = Vec::new();
    let (mut start, mut in_string, mut escaped) = (0, false, false);
    for (i, c) in body.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' if in_string => escaped = true,
            '"' => in_string = !in_string,
            ',' if !in_string => {
                out.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&body[start..]);
    out
}

#[test]
fn reader_never_panics_on_mutated_golden_lines() {
    let golden = golden();
    for line in golden.lines() {
        // Every prefix truncation on a char boundary.
        for (cut, _) in line.char_indices() {
            parse_is_total(&line[..cut]);
        }
        // Every single-byte substitution of an ASCII byte.
        for (i, c) in line.char_indices().filter(|(_, c)| c.is_ascii()) {
            for sub in "{}[]\",:\\-e.\u{1}".chars().filter(|s| *s != c) {
                let mut mutated = line.to_owned();
                mutated.replace_range(i..=i, sub.encode_utf8(&mut [0; 4]));
                parse_is_total(&mutated);
            }
        }
    }
}

#[test]
fn a_deleted_member_is_a_missing_field_and_a_duplicated_one_is_harmless() {
    let golden = golden();
    let samples = samples();
    let events = samples.iter().flat_map(|e| [e, e]);
    for (line, event) in golden.lines().zip(events) {
        let members = members(line);
        for (i, member) in members.iter().enumerate() {
            let mut deleted = members.clone();
            deleted.remove(i);
            let parsed = Event::from_jsonl_tagged(&format!("{{{}}}", deleted.join(",")));
            if member.starts_with("\"run\":") {
                assert_eq!(parsed, Ok((None, event.clone())), "line: {line}");
            } else {
                let err = parsed.unwrap_err();
                assert!(matches!(err, EventParseError::Malformed(_)), "{err}");
                assert!(err.to_string().starts_with("missing field"), "{err}");
            }

            let mut duplicated = members.clone();
            duplicated.push(member);
            let back = Event::from_jsonl(&format!("{{{}}}", duplicated.join(","))).expect(line);
            assert_eq!(&back, event, "line: {line}");
        }
    }
}

#[test]
fn reader_handles_a_megabyte_string_value() {
    let violation = "µ\"\\\n".repeat(200_000);
    assert!(violation.len() >= 1_000_000);
    let event = Event::InvariantViolated {
        slot: Slot::new(1),
        at: MonotonicNanos::from_raw(2),
        violation,
    };
    let line = event.to_jsonl();
    assert_eq!(Event::from_jsonl(&line).expect("1 MB line parses"), event);
    // Torn anywhere inside the value, it is one malformed line.
    for cut in [line.len() / 2, line.len() - 2] {
        let cut = (cut..)
            .find(|&i| line.is_char_boundary(i))
            .expect("in range");
        let err = Event::from_jsonl(&line[..cut]).unwrap_err();
        assert!(matches!(err, EventParseError::Malformed(_)), "{err}");
    }
}

/// A `JournalTruncated` line written while recovery kept two logs names
/// the damaged file; the reader skips that member and reads the rest.
#[test]
fn a_journal_truncated_line_naming_its_file_still_parses() {
    let line = "{\"event\":\"JournalTruncated\",\"slot\":73,\"t_ns\":100600,\
                \"file\":\"journal.wal\",\"reason\":\"torn\",\"dropped_bytes\":41}";
    assert_eq!(
        Event::from_jsonl(line),
        Ok(Event::JournalTruncated {
            slot: Slot::new(73),
            at: MonotonicNanos::from_raw(100_600),
            reason: "torn".to_owned(),
            dropped_bytes: 41,
        })
    );
}
