//! End-to-end telemetry check: run a real SpotDC simulation with the
//! in-memory sink installed and verify the event stream, the JSONL
//! round-trip, and the per-slot spans all line up.
//!
//! One `#[test]` on purpose: telemetry state is process-global, and a
//! single test avoids cross-test interference without a gate mutex.

use std::collections::BTreeMap;

use spotdc_sim::{
    baselines::Mode,
    engine::{EngineConfig, Simulation},
    metrics::SimReport,
    pipeline,
    scenario::Scenario,
};
use spotdc_telemetry::{Event, TelemetryConfig};

const SLOTS: u64 = 200;

/// Runs `config` with the in-memory sink armed and drains the sink, so
/// each leg sees its own events only. The first leg's engine installs
/// the sink from its configuration, as a user's run would; later legs
/// find it installed and only switch it back on. Every leg's spans are
/// checked against its composition.
fn traced_run(config: EngineConfig) -> (SimReport, Vec<Event>) {
    spotdc_telemetry::set_enabled(spotdc_telemetry::is_installed());
    let config = EngineConfig {
        telemetry: TelemetryConfig::in_memory(),
        ..config
    };
    let report = Simulation::new(Scenario::testbed(11), config.clone()).run(SLOTS);
    spotdc_telemetry::flush();
    let events = spotdc_telemetry::memory_sink().take();
    spotdc_telemetry::set_enabled(false);
    assert_one_span_per_stage_per_slot(&config, &events);
    (report, events)
}

/// Every slot carries exactly one `SpanClosed` per stage of `config`'s
/// composition plus one `engine.slot`, each stamped with that slot, and
/// the stages fit inside their slot's span.
fn assert_one_span_per_stage_per_slot(config: &EngineConfig, events: &[Event]) {
    let stages: Vec<&str> = pipeline::build(config).iter().map(|s| s.name()).collect();
    let mut closed: BTreeMap<(u64, &str), Vec<u64>> = BTreeMap::new();
    for event in events {
        if let Event::SpanClosed {
            slot, span, nanos, ..
        } = event
        {
            if span == "engine.slot" || stages.contains(&span.as_str()) {
                closed
                    .entry((slot.index(), span.as_str()))
                    .or_default()
                    .push(*nanos);
            }
        }
    }
    assert_eq!(closed.len() as u64, SLOTS * (stages.len() as u64 + 1));
    for t in 0..SLOTS {
        let one = |name: &str| -> u64 {
            match closed.get(&(t, name)).map(Vec::as_slice) {
                Some(&[nanos]) => nanos,
                other => panic!("slot {t}, span {name}: {other:?}"),
            }
        };
        let staged: u64 = stages.iter().map(|stage| one(stage)).sum();
        assert!(staged <= one("engine.slot"), "slot {t}");
    }
}

fn predictions(events: &[Event]) -> u64 {
    events
        .iter()
        .filter(|e| matches!(e, Event::PredictionIssued { .. }))
        .count() as u64
}

#[test]
fn simulation_produces_consistent_telemetry() {
    let (report, events) = traced_run(EngineConfig::new(Mode::SpotDc));

    // Every slot clears the market exactly once in SpotDC mode, and
    // with sample_every = 1 each clearing reaches the sink.
    let cleared: Vec<&Event> = events
        .iter()
        .filter(|e| matches!(e, Event::SlotCleared { .. }))
        .collect();
    assert_eq!(cleared.len() as u64, SLOTS, "one SlotCleared per slot");

    // Slots that sold spot power must report a positive price and
    // matching sold watts in their event.
    let sold_slots = report.records.iter().filter(|r| r.spot_sold > 0.0).count();
    let sold_events = cleared
        .iter()
        .filter(|e| matches!(e, Event::SlotCleared { sold_watts, .. } if *sold_watts > 0.0))
        .count();
    assert!(sold_slots > 0, "testbed scenario should sell spot");
    assert_eq!(sold_events, sold_slots);

    // A prediction is issued for every slot's market round.
    assert_eq!(predictions(&events), SLOTS);

    // Every event survives a JSONL round-trip unchanged.
    for event in &events {
        let line = event.to_jsonl();
        let parsed =
            Event::from_jsonl(&line).unwrap_or_else(|e| panic!("unparseable line {line:?}: {e}"));
        assert_eq!(&parsed, event);
    }

    // Every clearing closed one span, in the slot it cleared.
    let clearings: Vec<&Event> = events
        .iter()
        .filter(|e| matches!(e, Event::SpanClosed { span, .. } if span == "clearing"))
        .collect();
    assert_eq!(clearings.len(), cleared.len());
    for (span, clear) in clearings.iter().zip(&cleared) {
        assert_eq!(span.slot(), clear.slot());
    }

    // Every composition that predicts says so once per slot, whatever
    // clears it — which is what lets the analyzer join sold against
    // predicted capacity for a per-PDU run.
    let (_, per_pdu) = traced_run(EngineConfig {
        per_pdu_pricing: true,
        ..EngineConfig::new(Mode::SpotDc)
    });
    assert_eq!(predictions(&per_pdu), SLOTS);
    let log: String = per_pdu.iter().map(|e| e.to_jsonl() + "\n").collect();
    let analysis = spotdc_obs::Analysis::from_jsonl(&log, None);
    assert!(analysis.utilization.count > 0, "{:?}", analysis.utilization);

    let (_, max_perf) = traced_run(EngineConfig::new(Mode::MaxPerf));
    assert_eq!(predictions(&max_perf), SLOTS);
}
