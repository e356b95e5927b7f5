//! `spotdc-trace` end to end: damaged input costs lines, never the file.

use std::process::Command;

use spotdc_telemetry::Event;
use spotdc_units::{MonotonicNanos, Slot};

#[test]
fn a_log_torn_inside_a_multibyte_character_still_analyses_every_earlier_event() {
    let degraded = |slot: u64| {
        Event::DegradedDecision {
            slot: Slot::new(slot),
            at: MonotonicNanos::from_raw(slot),
            kind: "late-bid".to_owned(),
            detail: "rolled 35 µs late".to_owned(),
            watts: 10.0,
        }
        .to_jsonl_tagged(Some("r"))
    };
    let mut log: Vec<u8> = (0..5)
        .flat_map(|s| (degraded(s) + "\n").into_bytes())
        .collect();
    // The sixth line is cut between the two bytes of its `µ`, the way a
    // `kill -9` tears a `FileSink` tail.
    let torn = degraded(5);
    let cut = torn.find('µ').expect("detail carries a µ") + 1;
    log.extend_from_slice(&torn.as_bytes()[..cut]);
    assert!(
        String::from_utf8(log.clone()).is_err(),
        "log must be invalid UTF-8"
    );

    let path = std::env::temp_dir().join(format!("spotdc-trace-torn-{}.jsonl", std::process::id()));
    std::fs::write(&path, &log).expect("write log");
    let out = Command::new(env!("CARGO_BIN_EXE_spotdc-trace"))
        .arg("--json")
        .arg(&path)
        .output()
        .expect("run spotdc-trace");
    std::fs::remove_file(&path).expect("remove log");

    let stdout = String::from_utf8(out.stdout).expect("report is UTF-8");
    assert!(
        out.status.success(),
        "exit {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("\"events\":5,"), "{stdout}");
    assert!(
        stdout.contains("\"unknown_events\":0,\"malformed\":1,"),
        "{stdout}"
    );
    assert!(stdout.contains("\"late-bid\":{\"count\":5,"), "{stdout}");
}
