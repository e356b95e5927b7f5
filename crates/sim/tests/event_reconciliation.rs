//! The event log is the one record of what the market did, so it must
//! add up to the report: every fault, overload, violation, prediction
//! and clearing the report counts appears in the log exactly once —
//! read back through the analyzer `spotdc-trace` uses, not through the
//! code that emitted it.
//!
//! One `#[test]`: the legs drain the process-global memory sink.

use spotdc_faults::FaultConfig;
use spotdc_obs::Analysis;
use spotdc_power::CapConfig;
use spotdc_sim::{
    baselines::Mode,
    engine::{EngineConfig, Simulation},
    scenario::{Scenario, ScenarioTuning},
};
use spotdc_telemetry::{Event, TelemetryConfig};

const SLOTS: u64 = 300;

#[test]
fn the_event_log_reconciles_with_the_report() {
    // 30 % oversubscribed instead of the testbed's 5 %, so the run has
    // overloads (one past breaker tolerance) for the cap ladder to meet.
    let scenario = Scenario::testbed_with(
        42,
        ScenarioTuning {
            pdu_oversubscription: 1.3,
            ups_oversubscription: 1.3,
            ..ScenarioTuning::default()
        },
    );
    let mut cleared_markets = Vec::new();
    for (leg, per_pdu_pricing, shards) in [
        ("uniform", false, 1),
        ("per-PDU", true, 1),
        ("per-PDU, two shards", true, 2),
    ] {
        let config = EngineConfig {
            per_pdu_pricing,
            shards,
            validate: true,
            faults: FaultConfig::uniform(0.1, 5),
            cap: CapConfig::paper_default(),
            telemetry: TelemetryConfig::in_memory(),
            ..EngineConfig::new(Mode::SpotDc)
        };
        let report = Simulation::new(scenario.clone(), config).run(SLOTS);
        spotdc_telemetry::flush();
        let events = spotdc_telemetry::memory_sink().take();
        let log: String = events.iter().map(|e| e.to_jsonl() + "\n").collect();
        let analysis = Analysis::from_jsonl(&log, None);
        assert_eq!(analysis.events, events.len() as u64, "{leg}");
        assert!(analysis.malformed.is_empty(), "{leg}");

        let faults: u64 = analysis.fault_clusters.iter().map(|c| c.count).sum();
        assert!(faults > 0, "{leg}: nothing was injected");
        assert_eq!(faults, report.faults_injected as u64, "{leg}: faults");

        let overloads = report.emergencies + report.transient_overshoots;
        assert!(overloads > 0, "{leg}: no overload to reconcile");
        assert_eq!(analysis.emergency_slots.len(), overloads, "{leg}");
        assert_eq!(
            analysis.invariant_slots.len(),
            report.invariant_violations,
            "{leg}: violations"
        );

        // The analyzer keeps the prediction only as one side of its
        // utilization join; count the events themselves.
        let predictions = events
            .iter()
            .filter(|e| matches!(e, Event::PredictionIssued { .. }))
            .count() as u64;
        assert_eq!(predictions, SLOTS, "{leg}: one prediction per slot");

        // One `SlotCleared` per cleared market. The uniform market
        // clears once a slot; per-PDU pricing clears one sub-market per
        // PDU that a bid reached, which the report bounds per slot: at
        // most every PDU, at least one where spot was sold.
        let mut clearings = vec![0usize; SLOTS as usize];
        for event in &events {
            if let Event::SlotCleared { slot, .. } = event {
                clearings[slot.index() as usize] += 1;
            }
        }
        let total = clearings.iter().sum::<usize>() as u64;
        assert_eq!(analysis.price.count, total, "{leg}: clearings");
        for (record, &cleared) in report.records.iter().zip(&clearings) {
            let slot = record.slot;
            if !per_pdu_pricing {
                assert_eq!(cleared, 1, "{leg}: slot {slot}");
                continue;
            }
            assert!(cleared <= record.pdu_power.len(), "{leg}: slot {slot}");
            assert!(cleared > 0 || record.spot_sold == 0.0, "{leg}: slot {slot}");
        }
        if per_pdu_pricing {
            cleared_markets.push(clearings);
        }
    }
    // Sharding moves sub-markets between agents; it neither adds nor
    // drops one.
    assert_eq!(cleared_markets[0], cleared_markets[1]);
}
