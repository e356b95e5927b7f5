//! End-to-end tests for the observability layer: trace analysis and
//! spans in the event log, driving real simulations rather than
//! hand-built event streams.
//!
//! Telemetry is process-global, so every test here takes the same
//! mutex; each one leaves telemetry disabled on the way out.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use spotdc_obs::{Analysis, PIPELINE_STAGES};
use spotdc_sim::engine::{EngineConfig, Simulation};
use spotdc_sim::experiments::common::fan_out;
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

/// Installs a file sink at `dir/telemetry.jsonl` and returns its path.
fn log_to_file(dir: &Path) -> PathBuf {
    std::fs::create_dir_all(dir).expect("temp dir");
    let path = dir.join("telemetry.jsonl");
    spotdc_telemetry::install_with_sink(
        TelemetryConfig {
            enabled: true,
            sink: SinkKind::File,
            sample_every: 1,
        },
        Arc::new(FileSink::create(&path).expect("log file")),
    );
    path
}

#[test]
fn trace_analysis_attributes_a_real_emergency_to_its_run() {
    let _gate = gate();
    let dir = temp_dir("emergency");
    let path = log_to_file(&dir);

    // MaxPerf has no bidding or clearing-auction stages; two short
    // SpotDC runs (global and per-PDU pricing) fill in the rest of the
    // nine-stage pipeline for the coverage assertion below. Fanned out
    // like an experiment's simulations, each logs under its own tag.
    let jobs = [
        (EngineConfig::new(Mode::MaxPerf), EMERGENCY_SLOTS),
        (EngineConfig::new(Mode::SpotDc), 40),
        (
            EngineConfig {
                per_pdu_pricing: true,
                ..EngineConfig::new(Mode::SpotDc)
            },
            40,
        ),
    ];
    let reports = {
        let _scope = spotdc_telemetry::run_scope("obs");
        fan_out(&jobs, |(config, slots)| {
            Simulation::new(Scenario::testbed(EMERGENCY_SEED), config.clone()).run(*slots)
        })
    };
    assert_eq!(reports[0].records.len() as u64, EMERGENCY_SLOTS);
    spotdc_telemetry::install(TelemetryConfig::default());
    let log = std::fs::read_to_string(&path).expect("log readable");
    std::fs::remove_dir_all(&dir).ok();

    let emergencies = log
        .lines()
        .filter(|l| l.contains("\"event\":\"EmergencyTriggered\""))
        .count();
    assert!(
        emergencies > 0,
        "the MaxPerf testbed run must trip at least one emergency"
    );

    // The full log must analyze to per-stage latency for all nine
    // pipeline stages plus every emergency the simulations raised.
    let full = Analysis::from_jsonl(&log, None);
    assert!(full.malformed.is_empty(), "{:?}", full.malformed);
    assert!(full.has_anomalies());
    for stage in PIPELINE_STAGES {
        assert!(
            full.stages.get(stage).is_some_and(|s| s.count > 0),
            "stage {stage} missing from analysis"
        );
    }
    assert_eq!(full.emergency_slots.len(), emergencies);

    // Every emergency names the MaxPerf run, and filtering the log to
    // that run keeps them all: the log itself says which run tripped.
    for site in &full.emergency_slots {
        assert_eq!(site.run, "obs/0", "{site:?}");
    }
    let maxperf = Analysis::from_jsonl(&log, Some("obs/0"));
    assert_eq!(maxperf.emergency_slots, full.emergency_slots);
    assert_eq!(maxperf.runs.iter().collect::<Vec<_>>(), ["obs/0"]);
    assert!(maxperf.render_text().contains(&format!(
        "EMERGENCY run obs/0 slot {}",
        full.emergency_slots[0].slot
    )));

    // Determinism: analyzing the same log twice renders byte-identical
    // text and JSON.
    let again = Analysis::from_jsonl(&log, None);
    assert_eq!(full.render_text(), again.render_text());
    assert_eq!(full.render_json(), again.render_json());
}

#[test]
fn concurrent_runs_keep_their_spans_apart_in_the_log() {
    let _gate = gate();
    let dir = temp_dir("runs");
    let path = log_to_file(&dir);
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
