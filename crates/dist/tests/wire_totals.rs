//! Exact-growth check on the process-global wire counters.
//!
//! `wire_totals()` is shared by every `ShardRuntime` in the process, so
//! asserting how much one runtime adds to it is only sound while no
//! other runtime exists. This lives in its own test binary and holds a
//! single test for that reason: under the default threaded runner any
//! sibling test that starts a runtime would land in the count.

use spotdc_core::{ClearingConfig, ConstraintSet, RackBid, StepBid, TaskShip};
use spotdc_dist::{wire_totals, ShardRuntime, TransportKind};
use spotdc_power::topology::TopologyBuilder;
use spotdc_units::{Price, RackId, Slot, TenantId, Watts};

#[test]
fn every_slot_frame_is_self_contained_and_the_same_size() {
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

    let start = wire_totals();
    let mut runtime =
        ShardRuntime::new(1, TransportKind::InProc, ClearingConfig::default()).unwrap();
    let mut sent = Vec::new();
    for s in 0..3_u64 {
        let before = wire_totals();
        let task = TaskShip {
            ups_spot: Watts::new(50.0),
            bids: bids.clone(),
        };
        let out = runtime.clear_tasks(Slot::new(s), &c, vec![task]);
        assert!(out[0].is_some());
        let after = wire_totals();
        assert_eq!(after.frames_sent - before.frames_sent, 1, "slot {s}");
        assert_eq!(after.frames_recv - before.frames_recv, 1, "slot {s}");
        assert_eq!(after.full_tasks - before.full_tasks, 1, "slot {s}");
        sent.push(after.bytes_sent - before.bytes_sent);
    }
    let end = wire_totals();
    assert_eq!(end.setup_frames - start.setup_frames, 1);
    assert_eq!(end.frames_sent - start.frames_sent, 3);
    assert_eq!(end.full_tasks - start.full_tasks, 3);
    assert_eq!(end.delta_tasks - start.delta_tasks, 0);
    // Every frame carries its slot's whole constraint set: three
    // identical slots cost three identical byte counts, the first
    // included.
    assert!(
        sent.iter().all(|&b| b == sent[0]),
        "bytes sent per slot: {sent:?}"
    );
    // One engine served all three slots: its counter is cumulative.
    let cache = runtime.shard_cache_stats();
    assert_eq!(cache.len(), 1);
    assert_eq!(cache[0].full_sweeps, 3, "{cache:?}");
}
