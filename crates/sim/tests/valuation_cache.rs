//! Class-shared valuation rows answer exactly as private ones do.
//!
//! A scenario points every agent of one valuation class (equal
//! workload, reservation and headroom) at one row cache when it
//! assembles them, and every simulation of it runs clones that keep
//! those caches: a row one agent built is read by agents with other
//! cost models, by later simulations, and by simulations on other
//! threads. Checkpoints leave the caches out, so a resumed engine reads
//! whatever rows its scenario holds, warm or cold (see the durability
//! module). All of this is sound only if an agent reading its class's
//! warm cache answers exactly as an agent with a private, cold cache
//! would: this steps a simulation's agents through a hyper-scale load
//! trace and holds one agent of each Table I kind, jittered costs
//! included, to a new agent built from its parts at every slot, and
//! runs simulations of one scenario concurrently against each run alone
//! on a freshly built scenario.

use std::sync::Barrier;

use spotdc_sim::engine::{EngineConfig, Simulation};
use spotdc_sim::pipeline::SimState;
use spotdc_sim::scenario::{Scenario, TenantKind};
use spotdc_sim::Mode;
use spotdc_tenants::{share_valuation_rows, TenantAgent};

const SLOTS: usize = 200;
const CONCURRENT_SLOTS: u64 = 30;

#[test]
fn class_shared_rows_answer_as_a_fresh_private_agent_does() {
    for seed in [42, 7] {
        // Group 1 (indices 8..16) carries the ±20 % cost jitter; group
        // 0's agent of the same kind shares its rows at unjittered cost.
        let scenario = Scenario::hyperscale(seed, 16);
        let loads = scenario.traces(SLOTS).loads;
        let mut state = SimState::new(&scenario, &EngineConfig::new(Mode::SpotDc), SLOTS);
        let picks: Vec<(TenantKind, usize)> = [
            TenantKind::Search,
            TenantKind::Web,
            TenantKind::WordCount,
            TenantKind::TeraSort,
            TenantKind::Graph,
        ]
        .into_iter()
        .map(|kind| {
            let i = (8..16)
                .find(|&i| scenario.specs[i].kind == kind)
                .expect("every kind is in a Table I group");
            (kind, i)
        })
        .collect();
        for slot in 0..SLOTS {
            // Every agent values its load first, in rack order, so the
            // class's rows are warmed by whichever agent got there first.
            for (agent, load) in state.agents.iter_mut().zip(&loads) {
                agent.observe(load[slot]);
                let _ = agent.make_bid();
            }
            for &(kind, i) in &picks {
                // A clone would share the class cache under test; a
                // new agent built from the same parts has its own.
                let fresh = || {
                    let a = &scenario.agents[i];
                    let mut a = TenantAgent::new(
                        a.tenant(),
                        a.rack(),
                        a.reserved(),
                        a.headroom(),
                        a.model().clone(),
                        a.strategy().clone(),
                    );
                    a.observe(loads[i][slot]);
                    a
                };
                let shared = &mut state.agents[i];
                // Debug prints every float exactly, so equal strings
                // are equal bits.
                assert_eq!(
                    format!("{:?}", shared.make_bid()),
                    format!("{:?}", fresh().make_bid()),
                    "{kind:?} bid diverged at slot {slot}, seed {seed}"
                );
                assert_eq!(
                    format!("{:?}", shared.gain_curve()),
                    format!("{:?}", fresh().gain_curve()),
                    "{kind:?} gain curve diverged at slot {slot}, seed {seed}"
                );
            }
        }
    }
}

#[test]
fn a_simulation_holds_one_row_cache_per_table_i_kind() {
    for (name, scenario) in [
        ("hyperscale(15000)", Scenario::hyperscale(42, 15_000)),
        ("testbed", Scenario::testbed(42)),
    ] {
        let mut agents = scenario.agents.clone();
        assert_eq!(share_valuation_rows(&mut agents), 5, "{name}");
    }
}

/// The report's text form: every float in `Debug`, so equal text is
/// equal bits.
fn report_text(scenario: Scenario, mode: Mode) -> String {
    let report = Simulation::new(scenario, EngineConfig::new(mode)).run(CONCURRENT_SLOTS);
    let mut text = Vec::new();
    report.write_text(&mut text).expect("write to a Vec");
    String::from_utf8(text).expect("the text form is UTF-8")
}

#[test]
fn concurrent_simulations_of_one_scenario_match_each_run_alone() {
    let modes = [Mode::SpotDc, Mode::MaxPerf, Mode::SpotDc, Mode::MaxPerf];
    let shared = Scenario::hyperscale(42, 304);
    let start = Barrier::new(modes.len());
    let together: Vec<String> = std::thread::scope(|s| {
        let runs: Vec<_> = modes
            .iter()
            .map(|&mode| {
                let (scenario, start) = (shared.clone(), &start);
                s.spawn(move || {
                    start.wait();
                    report_text(scenario, mode)
                })
            })
            .collect();
        runs.into_iter()
            .map(|r| r.join().expect("simulation thread"))
            .collect()
    });
    for (mode, text) in modes.iter().zip(&together) {
        // A freshly built scenario has cold caches no other run touched.
        let alone = report_text(Scenario::hyperscale(42, 304), *mode);
        assert!(*text == alone, "{mode:?} diverged from its run alone");
    }
}
