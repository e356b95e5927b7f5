//! Property tests for the distributed market layer.
//!
//! Three guarantees are exercised: every wire message survives the
//! shared length-prefix + CRC-32 frame codec, with damaged frames (torn
//! tails, flipped bits) failing cleanly instead of panicking or
//! yielding a bogus message; the controller's serial in-order merge
//! reproduces the serial clear bit-for-bit for any shard width and any
//! task arrival order; and a warm session — held statics, epoch
//! bookkeeping, forced resyncs, agents SIGKILLed mid-sequence — returns
//! exactly the results of cold clears under arbitrary bid churn,
//! degrading only the killed shard's tasks. A trio of plain tests then
//! drives the real `spotdc-agent` subprocess end-to-end: healthy, dead,
//! and SIGKILLed mid-session.

/// `spotdc-core`'s independent Eqns. 1–4 reference: [`serial_clear`]
/// holds itself to it, so "merged equals serial" and "warm equals cold"
/// never bottom out in the engine agreeing with itself.
#[path = "../../core/tests/oracle/mod.rs"]
mod oracle;

use std::collections::BTreeMap;
use std::sync::Mutex;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng as _};
use spotdc_core::{
    frame, max_perf_allocate, ClearResult, ClearingCacheStats, ClearingConfig, ConcaveGain,
    ConstraintSet, DemandBid, LinearBid, MarketClearing, RackBid, StepBid, TaskShip, WireMsg,
};
use spotdc_dist::{ShardRuntime, TransportKind};
use spotdc_power::topology::TopologyBuilder;
use spotdc_power::PowerTopology;
use spotdc_units::{Price, RackId, Slot, TenantId, Watts};

/// A random linear bid, valid by parameter ordering.
fn linear_bid() -> impl Strategy<Value = DemandBid> {
    (0.0..80.0f64, 0.0..80.0f64, 0.0..0.3f64, 0.0..0.3f64).prop_map(|(d1, d2, q1, q2)| {
        let (d_min, d_max) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        let (q_min, q_max) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        LinearBid::new(
            Watts::new(d_max),
            Price::per_kw_hour(q_min),
            Watts::new(d_min),
            Price::per_kw_hour(q_max),
        )
        .expect("ordered parameters are valid")
        .into()
    })
}

fn step_bid() -> impl Strategy<Value = DemandBid> {
    (0.0..80.0f64, 0.0..0.4f64).prop_map(|(d, q)| {
        StepBid::new(Watts::new(d), Price::per_kw_hour(q))
            .expect("valid")
            .into()
    })
}

fn any_bid() -> impl Strategy<Value = DemandBid> {
    prop_oneof![linear_bid(), step_bid()]
}

/// A topology with `n` racks spread over two PDUs.
fn topology(n: usize) -> PowerTopology {
    let mut b = TopologyBuilder::new(Watts::new(1e6)).pdu(Watts::new(1e5));
    for i in 0..n {
        if i == n / 2 {
            b = b.pdu(Watts::new(1e5));
        }
        b = b.rack(TenantId::new(i), Watts::new(100.0), Watts::new(60.0));
    }
    b.build().expect("valid topology")
}

fn constraints_for(n: usize, p0: f64, p1: f64, ups: f64) -> ConstraintSet {
    ConstraintSet::new(
        &topology(n),
        vec![Watts::new(p0), Watts::new(p1)],
        Watts::new(ups),
    )
}

/// Racks every generated task's bids/gains fit in: tasks of one slot
/// clear against one shared [`shared_constraints`] set.
const TASK_RACKS: usize = 6;

/// The slot's shared constraint set over [`TASK_RACKS`] racks.
fn shared_constraints() -> impl Strategy<Value = ConstraintSet> {
    (0.0..150.0f64, 0.0..150.0f64, 0.0..250.0f64)
        .prop_map(|(p0, p1, ups)| constraints_for(TASK_RACKS, p0, p1, ups))
}

/// One market sub-market with its own UPS share.
fn market_task() -> impl Strategy<Value = TaskShip> {
    (
        prop::collection::vec(any_bid(), 1..TASK_RACKS),
        0.0..250.0f64,
    )
        .prop_map(|(bids, ups)| TaskShip::Market {
            bids: positioned(bids),
            ups_spot: Watts::new(ups),
        })
}

fn positioned(bids: Vec<DemandBid>) -> Vec<RackBid> {
    bids.into_iter()
        .enumerate()
        .map(|(i, b)| RackBid::new(RackId::new(i), b))
        .collect()
}

fn gains_for(segs: &[(f64, f64)]) -> BTreeMap<RackId, ConcaveGain> {
    segs.iter()
        .enumerate()
        .map(|(i, &(w, g))| {
            let curve = ConcaveGain::new(vec![(w, g), (w / 2.0, g / 2.0)]).expect("descending");
            (RackId::new(i), curve)
        })
        .collect()
}

/// One water-filling task with strictly concave per-rack gain curves.
fn maxperf_task() -> impl Strategy<Value = TaskShip> {
    (
        prop::collection::vec((5.0..50.0f64, 0.1..3.0f64), 1..TASK_RACKS),
        0.0..250.0f64,
    )
        .prop_map(|(segs, ups)| TaskShip::MaxPerf {
            gains: gains_for(&segs),
            ups_spot: Watts::new(ups),
        })
}

/// Either task a slot frame can carry.
fn task_ship() -> impl Strategy<Value = TaskShip> {
    prop_oneof![market_task(), maxperf_task()]
}

/// Any message either side of the wire can produce. `ShardCleared`
/// results come from actually clearing generated tasks, so the heavy
/// `MarketOutcome` payload is exercised too.
fn any_message() -> impl Strategy<Value = WireMsg> {
    prop_oneof![
        (0..16u64, 0..64u64).prop_map(|(count, shard)| WireMsg::AssignShard {
            shard: shard % (count + 1),
            shard_count: count + 1,
            clearing: ClearingConfig::grid(Price::cents_per_kw_hour(0.01)),
        }),
        (
            0..10_000u64,
            0..100u64,
            prop::option::of((0.0..150.0f64, 0.0..150.0f64, 0.0..250.0f64)),
            prop::collection::vec(0.0..150.0f64, 0..3),
            prop::collection::vec(task_ship(), 0..3),
        )
            .prop_map(|(s, epoch, statics, pdu_spot, tasks)| WireMsg::SlotFrame {
                slot: Slot::new(s),
                epoch,
                statics: statics.map(|(p0, p1, ups)| constraints_for(4, p0, p1, ups)),
                pdu_spot: pdu_spot.into_iter().map(Watts::new).collect(),
                tasks,
            }),
        (
            0..10_000u64,
            0..100u64,
            shared_constraints(),
            prop::collection::vec(task_ship(), 0..3)
        )
            .prop_map(|(s, epoch, constraints, tasks)| WireMsg::ShardCleared {
                slot: Slot::new(s),
                epoch,
                results: serial_clear(
                    Slot::new(s),
                    ClearingConfig::default(),
                    &constraints,
                    &tasks
                ),
                cache: ClearingCacheStats {
                    full_sweeps: s % 7,
                    cache_hits: epoch % 5,
                    delta_sweeps: 0,
                    legacy_scans: epoch % 2,
                    candidates_total: s,
                    candidates_swept: s / 2,
                },
            }),
        (0..10_000u64, 0..100u64).prop_map(|(s, epoch)| WireMsg::ResyncNeeded {
            slot: Slot::new(s),
            epoch,
        }),
        (0..1u64).prop_map(|_| WireMsg::Shutdown),
    ]
}

/// The single-process reference: clear each task directly, in order,
/// against a clone of the shared set re-pointed at the task's share.
/// Every market outcome must be the oracle's bit for bit — price,
/// revenue rate and grants — before anything is compared with it.
fn serial_clear(
    slot: Slot,
    clearing: ClearingConfig,
    constraints: &ConstraintSet,
    tasks: &[TaskShip],
) -> Vec<ClearResult> {
    let engine = MarketClearing::new(clearing);
    tasks
        .iter()
        .map(|task| match task {
            TaskShip::Market { bids, ups_spot } => {
                let local = constraints.clone().with_ups_spot(*ups_spot);
                let got = engine.clear(slot, bids, &local);
                oracle::assert_cleared(&got, clearing.price_step, bids, &local);
                ClearResult::Market(got)
            }
            TaskShip::MaxPerf { gains, ups_spot } => ClearResult::MaxPerf(max_perf_allocate(
                gains,
                &constraints.clone().with_ups_spot(*ups_spot),
            )),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_wire_message_survives_the_frame_codec(msg in any_message()) {
        let mut buf = Vec::new();
        frame::write_frame(&mut buf, &msg.encode()).unwrap();
        let mut stream = &buf[..];
        let payload = frame::read_frame(&mut stream).unwrap().expect("one frame");
        prop_assert_eq!(WireMsg::decode(&payload).unwrap(), msg);
        // The stream ends exactly at the frame boundary.
        prop_assert!(frame::read_frame(&mut stream).unwrap().is_none());
    }

    #[test]
    fn torn_and_corrupt_frames_fail_cleanly(
        msg in any_message(),
        cut_seed in 0..u64::MAX,
        flip_seed in 0..u64::MAX,
    ) {
        let payload = msg.encode();
        let mut buf = Vec::new();
        frame::write_frame(&mut buf, &payload).unwrap();

        // A torn tail — any strict prefix — is a clean EOF or an error,
        // never a decoded frame and never a panic.
        let cut = (cut_seed % buf.len() as u64) as usize;
        let torn = frame::read_frame(&mut &buf[..cut]);
        prop_assert!(
            !matches!(torn, Ok(Some(_))),
            "strict prefix of length {cut} produced a frame"
        );

        // A single flipped bit anywhere in the frame never yields the
        // original payload back (CRC-32 catches all single-bit damage).
        let mut corrupt = buf.clone();
        let idx = (flip_seed % corrupt.len() as u64) as usize;
        corrupt[idx] ^= 1 << (flip_seed % 8);
        let got = frame::read_frame(&mut &corrupt[..]);
        prop_assert!(
            !matches!(got, Ok(Some(ref p)) if *p == payload),
            "flipped bit at byte {idx} went unnoticed"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn controller_merge_matches_the_serial_clear(
        constraints in shared_constraints(),
        mut tasks in prop::collection::vec(task_ship(), 1..7),
        width in 1..5usize,
        shuffle_seed in 0..u64::MAX,
    ) {
        // Shuffle the arrival order: assignment is positional
        // round-robin, so the merge must be order-preserving no matter
        // how the tasks land on the shards.
        let mut rng = StdRng::seed_from_u64(shuffle_seed);
        for i in (1..tasks.len()).rev() {
            let j = rng.gen_range(0..i + 1);
            tasks.swap(i, j);
        }
        let slot = Slot::new(17);
        let clearing = ClearingConfig::default();
        let want: Vec<Option<ClearResult>> = serial_clear(slot, clearing, &constraints, &tasks)
            .into_iter()
            .map(Some)
            .collect();
        let mut runtime = ShardRuntime::new(width, TransportKind::InProc, clearing).unwrap();
        prop_assert_eq!(
            runtime.clear_session(slot, &constraints, tasks),
            want,
            "width {}",
            width
        );
    }
}

/// One slot's worth of churn against the running session.
#[derive(Debug, Clone)]
enum Churn {
    /// Replace the demand curve of bid `i % len` (bitwise change).
    Mutate(usize, DemandBid),
    /// Drop bid `i % len`, shifting everything after it down.
    Remove(usize),
    /// Append a new bid at the tail.
    Add(DemandBid),
    /// Swap to the alternate topology: different statics, so the
    /// controller must declare every session stale and resync in full.
    Restatics,
    /// SIGKILL the agent of shard `i % width` before the slot: its
    /// tasks degrade for this slot, and the next dispatch respawns and
    /// resyncs it.
    Kill(usize),
}

fn churn_op() -> impl Strategy<Value = Churn> {
    prop_oneof![
        (0..16usize, any_bid()).prop_map(|(i, b)| Churn::Mutate(i, b)),
        (0..16usize).prop_map(Churn::Remove),
        any_bid().prop_map(Churn::Add),
        (0..1u64).prop_map(|_| Churn::Restatics),
        (0..16usize).prop_map(Churn::Kill),
    ]
}

/// 12 racks over two PDUs (`alt = false`) or three (`alt = true`); the
/// rack set is identical, so the same bids clear in both, but the
/// static layers differ and `same_statics` must say so.
fn churn_topology(alt: bool) -> PowerTopology {
    let mut b = TopologyBuilder::new(Watts::new(1e6)).pdu(Watts::new(1e5));
    for i in 0..12 {
        if i == 6 || (alt && i == 9) {
            b = b.pdu(Watts::new(1e5));
        }
        b = b.rack(TenantId::new(i), Watts::new(100.0), Watts::new(60.0));
    }
    b.build().expect("valid topology")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The session's correctness bargain: shards that hold the statics
    /// across slots — through bid churn, statics swaps that force a
    /// resync everywhere, and agents SIGKILLed mid-sequence — return
    /// bit-for-bit the results of clearing every slot cold, and a kill
    /// costs exactly the dead shard's tasks for exactly one slot.
    /// Exercised across the real wire: framed bytes over pipes to
    /// `spotdc-agent` children, multiple widths.
    #[test]
    fn warm_sessions_match_cold_clears_through_churn_resync_and_kills(
        initial in prop::collection::vec(any_bid(), 1..6),
        // At most five slots: a shard is killed at most every other
        // slot, which stays inside the controller's respawn budget.
        slots in prop::collection::vec(
            (churn_op(), 0.0..150.0f64, 0.0..150.0f64, 0.0..250.0f64, 5.0..40.0f64),
            1..6,
        ),
        width in 1..4usize,
    ) {
        let clearing = ClearingConfig::default();
        let mut warm = subprocess_runtime(env!("CARGO_BIN_EXE_spotdc-agent"), width)
            .expect("spawn spotdc-agent children");
        let mut bids = positioned(initial);
        let mut next_rack = bids.len();
        let mut alt = false;
        let mut down = None;
        let gains = gains_for(&[(30.0, 2.0), (18.0, 1.1)]);
        for (i, (op, p0, p1, ups, maxperf_ups)) in slots.into_iter().enumerate() {
            // A shard killed last slot is only respawned by this slot's
            // dispatch: until then its pid names a dead process.
            let respawning = down.take();
            match op {
                Churn::Mutate(i, b) if !bids.is_empty() => {
                    let idx = i % bids.len();
                    bids[idx] = RackBid::new(bids[idx].rack(), b);
                }
                Churn::Remove(i) if !bids.is_empty() => {
                    bids.remove(i % bids.len());
                }
                Churn::Add(b) if bids.len() < 12 => {
                    bids.push(RackBid::new(RackId::new(next_rack % 12), b));
                    next_rack += 1;
                }
                Churn::Restatics => alt = !alt,
                Churn::Kill(i) if respawning != Some(i % width) => {
                    sigkill(warm.agent_pids()[i % width].expect("subprocess shards have pids"));
                    down = Some(i % width);
                }
                _ => {}
            }
            let pdu_spot: Vec<Watts> = if alt {
                vec![Watts::new(p0), Watts::new(p1), Watts::new(p0 / 2.0)]
            } else {
                vec![Watts::new(p0), Watts::new(p1)]
            };
            let constraints =
                ConstraintSet::new(&churn_topology(alt), pdu_spot, Watts::new(ups));
            let slot = Slot::new(100 + i as u64);
            let tasks = vec![
                TaskShip::Market {
                    bids: bids.clone(),
                    ups_spot: constraints.ups_spot(),
                },
                TaskShip::MaxPerf {
                    gains: gains.clone(),
                    ups_spot: Watts::new(maxperf_ups),
                },
            ];
            // The cold reference rebuilds everything from scratch; task
            // `j` lives on shard `j % width`.
            let mut want: Vec<Option<ClearResult>> =
                serial_clear(slot, clearing, &constraints, &tasks)
                    .into_iter()
                    .map(Some)
                    .collect();
            let got = warm.clear_session(slot, &constraints, tasks);
            for (j, result) in want.iter_mut().enumerate() {
                if down == Some(j % width) {
                    *result = None;
                }
            }
            prop_assert_eq!(got, want, "slot {} width {} down {:?}", i, width, down);
            prop_assert_eq!(warm.live_shards(), width - usize::from(down.is_some()));
        }
    }
}

/// `agent_binary()` honors `SPOTDC_AGENT_BIN`, a process-wide setting;
/// serialize the tests that point it at different binaries.
static AGENT_ENV: Mutex<()> = Mutex::new(());

/// SIGKILLs process `pid` — no shutdown handshake, its session state is
/// simply gone — and returns once the kernel has closed its pipes (the
/// child is a zombie until its transport reaps it), so the next
/// dispatch finds the agent dead however busy the box is.
fn sigkill(pid: u32) {
    let killed = std::process::Command::new("kill")
        .args(["-9", &pid.to_string()])
        .status()
        .expect("spawn kill");
    assert!(killed.success());
    for _ in 0..1000 {
        match std::fs::read_to_string(format!("/proc/{pid}/stat")) {
            // "pid (comm) state ...": still running until Z(ombie).
            Ok(stat) if !stat.rsplit(") ").next().is_some_and(|s| s.starts_with('Z')) => {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            _ => return,
        }
    }
    panic!("agent {pid} survived SIGKILL for two seconds");
}

fn subprocess_runtime(binary: &str, count: usize) -> std::io::Result<ShardRuntime> {
    let _held = AGENT_ENV.lock().unwrap_or_else(|e| e.into_inner());
    std::env::set_var("SPOTDC_AGENT_BIN", binary);
    let runtime = ShardRuntime::new(count, TransportKind::Subprocess, ClearingConfig::default());
    std::env::remove_var("SPOTDC_AGENT_BIN");
    runtime
}

fn fixed_constraints() -> ConstraintSet {
    constraints_for(3, 60.0, 30.0, 70.0)
}

fn fixed_session_tasks() -> Vec<TaskShip> {
    let constraints = fixed_constraints();
    vec![
        TaskShip::Market {
            bids: fixed_bids(),
            ups_spot: constraints.ups_spot(),
        },
        TaskShip::MaxPerf {
            gains: fixed_gains(),
            ups_spot: constraints.ups_spot(),
        },
    ]
}

fn fixed_bids() -> Vec<RackBid> {
    vec![
        RackBid::new(
            RackId::new(0),
            LinearBid::new(
                Watts::new(40.0),
                Price::per_kw_hour(0.05),
                Watts::new(10.0),
                Price::per_kw_hour(0.30),
            )
            .unwrap()
            .into(),
        ),
        RackBid::new(
            RackId::new(1),
            StepBid::new(Watts::new(25.0), Price::per_kw_hour(0.2))
                .unwrap()
                .into(),
        ),
    ]
}

fn fixed_gains() -> BTreeMap<RackId, ConcaveGain> {
    [(
        RackId::new(2),
        ConcaveGain::new(vec![(20.0, 2.0), (15.0, 0.5)]).unwrap(),
    )]
    .into_iter()
    .collect()
}

fn fixed_want(slot: Slot) -> Vec<Option<ClearResult>> {
    serial_clear(
        slot,
        ClearingConfig::default(),
        &fixed_constraints(),
        &fixed_session_tasks(),
    )
    .into_iter()
    .map(Some)
    .collect()
}

#[test]
fn subprocess_agents_match_the_serial_clear() {
    let slot = Slot::new(23);
    let mut runtime = subprocess_runtime(env!("CARGO_BIN_EXE_spotdc-agent"), 2)
        .expect("spawn spotdc-agent children");
    assert_eq!(runtime.live_shards(), 2);
    // Two slots through the same agents: the first ships the statics
    // (cold sessions), the second rides the warm session.
    let constraints = fixed_constraints();
    assert_eq!(
        runtime.clear_session(slot, &constraints, fixed_session_tasks()),
        fixed_want(slot)
    );
    let next = Slot::new(24);
    assert_eq!(
        runtime.clear_session(next, &constraints, fixed_session_tasks()),
        fixed_want(next)
    );
    assert_eq!(runtime.live_shards(), 2);
    // The shard engines' counters are cumulative, so they cover the
    // one market task of both slots — a respawned agent would have
    // restarted at the second: the session, not a cold rebuild, served
    // it.
    let stats = runtime.shard_cache_stats();
    let swept: u64 = stats.iter().map(|s| s.full_sweeps).sum();
    assert_eq!(swept, 2, "{stats:?}");
}

#[test]
fn dead_agents_degrade_their_tasks_to_none() {
    // An "agent" that exits immediately: every RPC fails, the
    // controller marks the shard dead, and its tasks come back None —
    // the paper's comms-loss rule, not an error. Respawning buys
    // nothing (the replacement dies too), so the budget drains and the
    // shards stay dead.
    if !std::path::Path::new("/bin/true").is_file() {
        eprintln!("skipping: no /bin/true on this system");
        return;
    }
    let mut runtime = subprocess_runtime("/bin/true", 2).expect("/bin/true spawns");
    let constraints = fixed_constraints();
    let got = runtime.clear_session(Slot::new(5), &constraints, fixed_session_tasks());
    assert_eq!(got, vec![None, None]);
    assert_eq!(runtime.live_shards(), 0);
}

#[test]
fn sigkilled_agents_respawn_and_resync_in_full() {
    let mut runtime = subprocess_runtime(env!("CARGO_BIN_EXE_spotdc-agent"), 2)
        .expect("spawn spotdc-agent children");
    let constraints = fixed_constraints();
    assert_eq!(
        runtime.clear_session(Slot::new(1), &constraints, fixed_session_tasks()),
        fixed_want(Slot::new(1))
    );
    // SIGKILL one agent between slots.
    let pid = runtime.agent_pids()[0].expect("subprocess shards have pids");
    sigkill(pid);
    // The slot after the kill degrades the dead shard's tasks (task 0
    // of 2 lands on shard 0) — capacity is never invented.
    let after = runtime.clear_session(Slot::new(2), &constraints, fixed_session_tasks());
    assert_eq!(after[0], None, "killed shard's task must degrade");
    assert_eq!(after[1], fixed_want(Slot::new(2))[1]);
    // The next dispatch respawns the shard and resyncs it in full; the
    // replacement must answer bit-identically to the serial reference.
    assert_eq!(
        runtime.clear_session(Slot::new(3), &constraints, fixed_session_tasks()),
        fixed_want(Slot::new(3))
    );
    assert_eq!(runtime.live_shards(), 2);
    let new_pid = runtime.agent_pids()[0].expect("respawned shard has a pid");
    assert_ne!(new_pid, pid, "a fresh agent process took over");
}
