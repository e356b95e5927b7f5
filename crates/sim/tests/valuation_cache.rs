//! Class-shared valuation rows answer exactly as private ones do.
//!
//! A simulation points every agent of one valuation class (equal
//! workload, reservation and headroom) at one row cache, built fresh by
//! `SimState::new`, so a row one agent built is read by agents with
//! other cost models. Checkpoints leave the caches out and a resumed
//! engine starts cold (see the durability module). Both are sound only
//! if an agent reading its class's warm cache answers exactly as a
//! fresh agent with a private cache would: this steps a simulation's
//! agents through a hyper-scale load trace and holds one agent of each
//! Table I kind, jittered costs included, to a fresh clone of its
//! construction-time self at every slot.

use spotdc_sim::engine::EngineConfig;
use spotdc_sim::pipeline::SimState;
use spotdc_sim::scenario::{Scenario, TenantKind};
use spotdc_sim::Mode;
use spotdc_tenants::share_valuation_rows;

const SLOTS: usize = 200;

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
                let fresh = || {
                    let mut a = scenario.agents[i].clone();
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
