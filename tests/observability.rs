//! End-to-end tests for the observability layer: flight recorder,
//! trace analysis, and spans in the event log, driving real simulations
//! rather than hand-built event streams.
//!
//! Telemetry is process-global, so every test here takes the same
//! mutex; each one leaves telemetry disabled and the recorder channel
//! empty on the way out.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use spotdc_obs::{Analysis, BlackBoxConfig, FlightRecorder, PIPELINE_STAGES};
use spotdc_sim::engine::{EngineConfig, Simulation};
use spotdc_sim::{Mode, Scenario};
use spotdc_telemetry::{FileSink, SinkKind, TelemetryConfig};

static TELEMETRY_GATE: Mutex<()> = Mutex::new(());

fn gate() -> std::sync::MutexGuard<'static, ()> {
    TELEMETRY_GATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// `Scenario::testbed(42)` under MaxPerf crosses the pdu-1 breaker
/// around slot 325 of the one-day (720-slot) headline horizon; this is
/// the smallest fully deterministic emergency recipe the experiments
/// expose.
const EMERGENCY_SEED: u64 = 42;
const EMERGENCY_SLOTS: u64 = 720;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spotdc-obs-{tag}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("stale temp dir");
    }
    dir
}

#[test]
fn flight_recorder_and_trace_analysis_capture_a_real_emergency() {
    let _gate = gate();
    let dir = temp_dir("blackbox");

    spotdc_telemetry::install(spotdc_telemetry::TelemetryConfig::in_memory());
    let _ = spotdc_telemetry::memory_sink().take();
    let recorder = FlightRecorder::arm(&dir, BlackBoxConfig::default());

    let report = Simulation::new(
        Scenario::testbed(EMERGENCY_SEED),
        EngineConfig::new(Mode::MaxPerf),
    )
    .run(EMERGENCY_SLOTS);
    assert_eq!(report.records.len() as u64, EMERGENCY_SLOTS);
    // MaxPerf has no bidding or clearing-auction stages; two short
    // SpotDC runs (global and per-PDU pricing) fill in the rest of the
    // nine-stage pipeline for the coverage assertion below.
    let _ = Simulation::new(
        Scenario::testbed(EMERGENCY_SEED),
        EngineConfig::new(Mode::SpotDc),
    )
    .run(40);
    let _ = Simulation::new(
        Scenario::testbed(EMERGENCY_SEED),
        EngineConfig {
            per_pdu_pricing: true,
            ..EngineConfig::new(Mode::SpotDc)
        },
    )
    .run(40);
    spotdc_telemetry::flush();
    spotdc_telemetry::uninstall_recorder();
    let events = spotdc_telemetry::memory_sink().take();
    spotdc_telemetry::set_enabled(false);

    let emergencies: Vec<_> = events
        .iter()
        .filter(|e| matches!(e, spotdc_telemetry::Event::EmergencyTriggered { .. }))
        .collect();
    assert!(
        !emergencies.is_empty(),
        "the MaxPerf testbed run must trip at least one emergency"
    );

    // The recorder must have written at least one black-box dump, and
    // the dump must parse back through the analysis layer with the
    // emergency flagged.
    let dumps = recorder.dumps();
    assert!(!dumps.is_empty(), "no black-box dump written to {dir:?}");
    assert_eq!(recorder.write_errors(), 0, "{:?}", recorder.first_error());
    let body = std::fs::read_to_string(&dumps[0]).expect("dump readable");
    let analysis = Analysis::from_jsonl(&body, None);
    assert!(analysis.malformed.is_empty(), "{:?}", analysis.malformed);
    assert!(analysis.has_anomalies(), "dump must contain the trigger");
    assert!(
        !analysis.emergency_slots.is_empty(),
        "dump must flag the emergency slot"
    );

    // The full in-memory stream, serialized as JSONL, must analyze to
    // per-stage latency for all nine pipeline stages plus every
    // emergency the simulation raised.
    let log: String = events.iter().map(|e| e.to_jsonl() + "\n").collect();
    let full = Analysis::from_jsonl(&log, None);
    for stage in PIPELINE_STAGES {
        assert!(
            full.stages.get(stage).is_some_and(|s| s.count > 0),
            "stage {stage} missing from analysis"
        );
    }
    assert_eq!(full.emergency_slots.len(), emergencies.len());

    // Determinism: analyzing the same log twice renders byte-identical
    // text and JSON.
    let again = Analysis::from_jsonl(&log, None);
    assert_eq!(full.render_text(), again.render_text());
    assert_eq!(full.render_json(), again.render_json());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_runs_keep_their_spans_apart_in_the_log() {
    let _gate = gate();
    let dir = temp_dir("runs");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("telemetry.jsonl");
    spotdc_telemetry::install_with_sink(
        TelemetryConfig {
            enabled: true,
            sink: SinkKind::File,
            sample_every: 1,
        },
        Arc::new(FileSink::create(&path).expect("log file")),
    );
    // Two experiments at once, each tagged with its run id: a uniform
    // market, and a per-PDU one whose inner pool is wider than one
    // worker, so its sub-market clears close spans on pool threads.
    let runs = [
        ("uniform", EngineConfig::new(Mode::SpotDc), 40),
        (
            "per-pdu",
            EngineConfig {
                per_pdu_pricing: true,
                inner_jobs: 2,
                ..EngineConfig::new(Mode::SpotDc)
            },
            30,
        ),
    ];
    std::thread::scope(|s| {
        for (run, config, slots) in runs.clone() {
            s.spawn(move || {
                let _scope = spotdc_telemetry::run_scope(run);
                Simulation::new(Scenario::testbed(7), config).run(slots)
            });
        }
    });
    spotdc_telemetry::install(TelemetryConfig::default());
    let body = std::fs::read_to_string(&path).expect("log readable");
    std::fs::remove_dir_all(&dir).ok();

    let both = Analysis::from_jsonl(&body, None);
    assert!(both.malformed.is_empty(), "{:?}", both.malformed);
    let mut clears = 0;
    for (run, _, slots) in &runs {
        let one = Analysis::from_jsonl(&body, Some(run));
        let count = |span: &str| one.stages.get(span).map_or(0, |s| s.count);
        assert!(one.price.count > 0, "{run}: no SlotCleared");
        assert_eq!(count("clearing"), one.price.count, "{run}");
        assert_eq!(count("engine.slot"), *slots, "{run}");
        assert_eq!(count("par.collect_bids"), *slots, "{run}");
        clears += count("clearing");
    }
    assert_eq!(both.stages["clearing"].count, clears);
    let uniform = Analysis::from_jsonl(&body, Some("uniform"));
    assert_eq!(uniform.stages["clearing"].count, 40, "one clear a slot");
    let per_pdu = Analysis::from_jsonl(&body, Some("per-pdu"));
    assert!(per_pdu.stages["stage.clear_per_pdu"].count > 0);
    assert!(per_pdu.stages.contains_key("par.clear_per_pdu"));
    assert!(!uniform.stages.contains_key("par.clear_per_pdu"));
}
