//! Exact-growth check on the process-global wire counters.
//!
//! `wire_totals()` is shared by every `ShardRuntime` in the process, so
//! asserting how much one session adds to it is only sound while no
//! other runtime exists. This lives in its own test binary and holds a
//! single test for that reason: under the default threaded runner any
//! sibling test that starts a runtime would land in the count.

use spotdc_core::{ClearingConfig, ConstraintSet, RackBid, StepBid};
use spotdc_dist::{wire_totals, SessionTask, ShardRuntime, TransportKind};
use spotdc_power::topology::TopologyBuilder;
use spotdc_units::{Price, RackId, Slot, TenantId, Watts};

#[test]
fn delta_shipping_kicks_in_on_warm_slots() {
    let topo = TopologyBuilder::new(Watts::new(400.0))
        .pdu(Watts::new(200.0))
        .rack(TenantId::new(0), Watts::new(100.0), Watts::new(50.0))
        .rack(TenantId::new(1), Watts::new(80.0), Watts::new(40.0))
        .build()
        .unwrap();
    let c = ConstraintSet::new(&topo, vec![Watts::new(60.0)], Watts::new(60.0));
    let step = |rack, watts, price| {
        let demand = StepBid::new(Watts::new(watts), Price::per_kw_hour(price)).unwrap();
        RackBid::new(RackId::new(rack), demand.into())
    };
    let bids = vec![step(0, 20.0, 0.2), step(1, 15.0, 0.15)];

    let before = wire_totals();
    let mut runtime =
        ShardRuntime::new(1, TransportKind::InProc, ClearingConfig::default()).unwrap();
    for s in 0..3_u64 {
        let task = SessionTask::Market {
            bids: bids.clone(),
            ups_spot: Watts::new(50.0),
        };
        let out = runtime.clear_session(Slot::new(s), &c, vec![task]);
        assert!(out[0].is_some());
    }
    let after = wire_totals();
    // Slot 0 resyncs in full; the two identical warm slots ship as
    // (empty) deltas.
    assert_eq!(after.full_tasks - before.full_tasks, 1);
    assert_eq!(after.delta_tasks - before.delta_tasks, 2);
    assert_eq!(after.setup_frames - before.setup_frames, 1);
    assert_eq!(after.frames_sent - before.frames_sent, 3);
    let cache = runtime.shard_cache_stats();
    assert_eq!(cache.len(), 1);
    assert!(
        cache[0].cache_hits > 0,
        "warm identical slots must hit the shard-side cache: {cache:?}"
    );
}
