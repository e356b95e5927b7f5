//! Warm-vs-cold equality of a tenant agent's valuation cache.
//!
//! An agent caches valuation rows across slots; nothing else it holds
//! changes what it bids. Checkpoints therefore leave the cache out and
//! a resumed engine starts every agent cold (see the durability
//! module). That is sound only if a warm agent answers exactly as a
//! fresh one would: this steps one agent of each Table I kind through
//! a hyper-scale load trace and holds its bid and gain curve, at every
//! slot, to those of a clone of its construction-time self.

use spotdc_sim::scenario::{Scenario, TenantKind};

const SLOTS: usize = 200;

#[test]
fn warm_agents_answer_as_fresh_ones_do() {
    for seed in [42, 7] {
        // Group 1 (indices 8..16) carries the ±20 % cost jitter.
        let scenario = Scenario::hyperscale(seed, 16);
        let loads = scenario.load_traces(SLOTS);
        for kind in [
            TenantKind::Search,
            TenantKind::Web,
            TenantKind::WordCount,
            TenantKind::TeraSort,
            TenantKind::Graph,
        ] {
            let i = (8..16)
                .find(|&i| scenario.specs[i].kind == kind)
                .expect("every kind is in a Table I group");
            let fresh = scenario.agents[i].clone();
            let mut warm = fresh.clone();
            for (slot, &load) in loads[i].iter().enumerate() {
                warm.observe(load);
                let cold = || {
                    let mut a = fresh.clone();
                    a.observe(load);
                    a
                };
                // Debug prints every float exactly, so equal strings
                // are equal bits.
                assert_eq!(
                    format!("{:?}", warm.make_bid()),
                    format!("{:?}", cold().make_bid()),
                    "{kind:?} bid diverged at slot {slot}, seed {seed}"
                );
                assert_eq!(
                    format!("{:?}", warm.gain_curve()),
                    format!("{:?}", cold().gain_curve()),
                    "{kind:?} gain curve diverged at slot {slot}, seed {seed}"
                );
            }
        }
    }
}
