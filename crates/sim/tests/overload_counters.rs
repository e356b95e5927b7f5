//! The report's overload counters, recounted from the records alone.
//!
//! `Settle` counts each overload as the detector finds it, splitting
//! them at the ±5 % breaker-tolerance band into `emergencies` and
//! `transient_overshoots`, and hands them to the cap controller. Here
//! every overload is found again from `SlotRecord::pdu_power` against
//! the topology's capacities — the UPS load is the PDU loads summed in
//! PDU order, as the detector sums them — and held to both: the
//! counters must match the recount, and with the cap controller on, no
//! rack under an overloaded level may hold spot for the `hold_slots`
//! slots that follow.

use spotdc_power::CapConfig;
use spotdc_sim::durability::EngineSnapshot;
use spotdc_sim::engine::{DurabilityConfig, EngineConfig, Simulation};
use spotdc_sim::metrics::SimReport;
use spotdc_sim::{Mode, Scenario};

/// One overload found from a record: its slot, its PDU (`None` for the
/// UPS) and how far over capacity it went, as a fraction of it.
struct Overload {
    slot: usize,
    pdu: Option<usize>,
    severity: f64,
}

fn overloads(scenario: &Scenario, report: &SimReport) -> Vec<Overload> {
    let topology = &scenario.topology;
    let caps: Vec<f64> = topology
        .pdus()
        .map(|p| topology.pdu_capacity(p).expect("pdu").value())
        .collect();
    let ups = topology.ups_capacity().value();
    let mut found = Vec::new();
    for (slot, record) in report.records.iter().enumerate() {
        assert_eq!(record.pdu_power.len(), caps.len(), "slot {slot}");
        let mut total = 0.0;
        for (pdu, (&load, &cap)) in record.pdu_power.iter().zip(&caps).enumerate() {
            total += load;
            if load > cap {
                found.push(Overload {
                    slot,
                    pdu: Some(pdu),
                    severity: (load - cap) / cap,
                });
            }
        }
        if total > ups {
            found.push(Overload {
                slot,
                pdu: None,
                severity: (total - ups) / ups,
            });
        }
    }
    found
}

/// `(emergencies, transient_overshoots)` recounted from the records.
fn recount(scenario: &Scenario, report: &SimReport) -> (usize, usize) {
    let found = overloads(scenario, report);
    let emergencies = found.iter().filter(|o| o.severity > 0.05).count();
    (emergencies, found.len() - emergencies)
}

fn check(scenario: &Scenario, report: &SimReport, leg: &str) -> (usize, usize) {
    let counted = (report.emergencies, report.transient_overshoots);
    assert_eq!(counted, recount(scenario, report), "{leg}");
    assert!(counted.0 + counted.1 > 0, "{leg}: no overload to count");
    counted
}

/// The testbed with its three interactive tenants idle for five slots,
/// then at 75 % load for one, over and over; the batch tenants run
/// flat out. A jump the tenants do not bid for is one the prediction
/// cannot see, so every sixth slot overloads, some past the band.
fn jumping_testbed() -> Scenario {
    const INTERACTIVE: [usize; 3] = [0, 1, 4];
    let scripts = (0..8)
        .map(|i| {
            (0..720)
                .map(|t| match (INTERACTIVE.contains(&i), t % 6) {
                    (false, _) => 1.0,
                    (true, 5) => 0.75,
                    (true, _) => 0.0,
                })
                .collect()
        })
        .collect();
    Scenario::testbed(42).with_scripted_loads(scripts)
}

#[test]
fn overload_counters_match_a_recount_from_the_records() {
    let maxperf = EngineConfig::new(Mode::MaxPerf);

    let testbed = Scenario::testbed(42);
    let report = Simulation::new(testbed.clone(), maxperf.clone()).run(720);
    check(&testbed, &report, "testbed");

    let wide = Scenario::hyperscale(42, 104);
    let report = Simulation::new(wide.clone(), maxperf.clone()).run(720);
    check(&wide, &report, "hyperscale");

    let jumping = jumping_testbed();
    let report = Simulation::new(jumping.clone(), maxperf).run(120);
    let (emergencies, overshoots) = check(&jumping, &report, "scripted");
    assert!(
        emergencies > 0 && overshoots > 0,
        "scripted: both sides of the band, got {emergencies} / {overshoots}"
    );
}

#[test]
fn overload_counters_survive_a_checkpoint_and_resume() {
    const SLOTS: u64 = 720;
    let scenario = Scenario::hyperscale(42, 104);
    let dir = std::env::temp_dir().join(format!("spotdc-overloads-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = EngineConfig {
        durability: DurabilityConfig {
            dir: Some(dir.clone()),
            checkpoint_every: 50,
            stop_after: Some(330),
            ..DurabilityConfig::default()
        },
        ..EngineConfig::new(Mode::MaxPerf)
    };
    let stopped = Simulation::new(scenario.clone(), config.clone())
        .run_durable(SLOTS)
        .expect("stopped run");
    assert_eq!(stopped.stopped_after, Some(330));
    let loaded = spotdc_durable::load_latest(&dir)
        .expect("readable")
        .expect("a checkpoint");
    let snap = EngineSnapshot::decode(&loaded.payload).expect("decodes");
    assert_eq!(snap.slots_done, 300);
    assert!(
        snap.emergencies + snap.transient_overshoots > 0,
        "the resumed checkpoint must carry overloads"
    );

    config.durability.stop_after = None;
    config.durability.resume = true;
    let resumed = Simulation::new(scenario.clone(), config)
        .run_durable(SLOTS)
        .expect("resumed run");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(resumed.recovery.and_then(|r| r.snapshot_slot), Some(300));
    check(&scenario, &resumed.report, "resumed");
}

#[test]
fn an_overloaded_level_sells_no_spot_while_held() {
    let cap = CapConfig::paper_default();
    let scenario = jumping_testbed();
    let config = EngineConfig {
        cap,
        ..EngineConfig::new(Mode::MaxPerf)
    };
    let report = Simulation::new(scenario.clone(), config).run(120);
    let found = overloads(&scenario, &report);
    assert!(
        !found.is_empty(),
        "the cap controller prevented every overload"
    );
    let tenant_pdu: Vec<usize> = scenario
        .agents
        .iter()
        .map(|a| {
            scenario
                .topology
                .rack(a.rack())
                .expect("rack")
                .pdu()
                .index()
        })
        .collect();
    for o in &found {
        let held = report
            .records
            .iter()
            .skip(o.slot + 1)
            .take(cap.hold_slots as usize);
        for record in held {
            for (i, metrics) in record.tenants.iter().enumerate() {
                if o.pdu.is_none_or(|p| p == tenant_pdu[i]) {
                    assert_eq!(
                        metrics.grant, 0.0,
                        "tenant {i} holds spot in slot {} after slot {}'s overload at {:?}",
                        record.slot, o.slot, o.pdu
                    );
                }
            }
        }
    }
    assert!(
        report
            .records
            .iter()
            .any(|r| r.tenants.iter().any(|m| m.grant > 0.0)),
        "no spot sold at all: the holds were never tested"
    );
}
