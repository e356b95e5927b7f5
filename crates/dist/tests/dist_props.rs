//! Property tests for the distributed market layer.
//!
//! Four guarantees are exercised: every wire message survives the
//! shared length-prefix + CRC-32 frame codec, with damaged frames (torn
//! tails, flipped bits) failing cleanly instead of panicking or
//! yielding a bogus message; the controller's serial in-order merge
//! reproduces the serial clear bit-for-bit for any shard width and any
//! task arrival order; an agent that has answered any run of frames
//! answers the next exactly like a fresh one; and shards driven through
//! bid churn, topology swaps and agents SIGKILLed mid-sequence return
//! exactly the results of cold clears, degrading only the killed
//! shard's tasks. Plain tests then drive the real `spotdc-agent`
//! subprocess end-to-end — healthy, dead, and SIGKILLed between slots —
//! and a shard of either transport that rejects its frame, dies and is
//! respawned.

/// `spotdc-core`'s independent Eqns. 1–4 reference: [`serial_clear`]
/// holds itself to it, so "merged equals serial" and "warm equals fresh"
/// never bottom out in the engine agreeing with itself.
#[path = "../../core/tests/oracle/mod.rs"]
mod oracle;

use std::sync::Mutex;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng as _};
use spotdc_core::{
    frame, ClearingCacheStats, ClearingConfig, ConstraintSet, DemandBid, LinearBid, MarketClearing,
    MarketOutcome, RackBid, StepBid, TaskShip, WireMsg,
};
use spotdc_dist::{AgentLoop, ShardRuntime, TransportKind};
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

/// Racks every generated task's bids fit in: tasks of one slot
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
        .prop_map(|(bids, ups)| TaskShip {
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

/// Any message either side of the wire can produce. `ShardCleared`
/// results come from actually clearing generated tasks, so the heavy
/// `MarketOutcome` payload is exercised too.
fn any_message() -> impl Strategy<Value = WireMsg> {
    prop_oneof![
        (1..100u64).prop_map(|cents| WireMsg::AssignShard {
            clearing: ClearingConfig::grid(Price::cents_per_kw_hour(cents as f64 / 100.0)),
        }),
        (0..10_000u64, any_frame()).prop_map(|(s, (constraints, tasks))| WireMsg::SlotFrame {
            slot: Slot::new(s),
            constraints,
            tasks,
        }),
        (
            0..10_000u64,
            0..100u64,
            shared_constraints(),
            prop::collection::vec(market_task(), 0..3)
        )
            .prop_map(|(s, n, constraints, tasks)| WireMsg::ShardCleared {
                slot: Slot::new(s),
                results: serial_clear(
                    Slot::new(s),
                    ClearingConfig::default(),
                    &constraints,
                    &tasks
                ),
                cache: ClearingCacheStats {
                    full_sweeps: s % 7,
                    cache_hits: n % 5,
                    delta_sweeps: 0,
                    legacy_scans: n % 2,
                    candidates_total: s,
                    candidates_swept: s / 2,
                },
            }),
        (0..1u64).prop_map(|_| WireMsg::Shutdown),
    ]
}

/// A bid whose price cap is far past any grid the engine scans: agents
/// run no admission, so such a bid can arrive off the pipe.
fn absurd_bid() -> impl Strategy<Value = DemandBid> {
    (0.0..80.0f64, 100.0..3_000.0f64).prop_map(|(d, q)| {
        StepBid::new(Watts::new(d), Price::per_kw_hour(q))
            .expect("valid")
            .into()
    })
}

/// One self-contained slot frame's contents, over the shapes an agent
/// could carry something across frames by: 2–9 racks over one to three
/// PDUs, sets with a heat zone, a phase plan, both or neither, empty
/// task lists and bids with absurd caps.
fn any_frame() -> impl Strategy<Value = (ConstraintSet, Vec<TaskShip>)> {
    let task = (
        prop::collection::vec(
            prop_oneof![any_bid(), any_bid(), any_bid(), absurd_bid()],
            0..6,
        ),
        0.0..250.0f64,
    );
    (
        2..10usize,
        1..4usize,
        prop::collection::vec(0.0..150.0f64, 3),
        0.0..250.0f64,
        prop::option::of(0.0..100.0f64),
        prop::option::of(0.0..60.0f64),
        prop::collection::vec(task, 0..4),
    )
        .prop_map(|(racks, pdus, spots, ups, zone, phases, tasks)| {
            let mut b = TopologyBuilder::new(Watts::new(1e6));
            for p in 0..pdus {
                b = b.pdu(Watts::new(1e5));
                for i in (0..racks).filter(|i| i * pdus / racks == p) {
                    b = b.rack(TenantId::new(i), Watts::new(100.0), Watts::new(60.0));
                }
            }
            let topo = b.build().expect("valid topology");
            let pdu_spot = spots[..pdus].iter().map(|&w| Watts::new(w)).collect();
            let mut constraints = ConstraintSet::new(&topo, pdu_spot, Watts::new(ups));
            if let Some(limit) = zone {
                let aisle = (0..racks / 2).map(RackId::new).collect();
                constraints = constraints.with_zone("aisle", aisle, Watts::new(limit));
            }
            if let Some(limit) = phases {
                let phase_of = (0..racks).map(|i| (i % 3) as u8).collect();
                constraints = constraints.with_phases(phase_of, Watts::new(limit));
            }
            let tasks = tasks
                .into_iter()
                .map(|(mut bids, share)| {
                    bids.truncate(racks);
                    TaskShip {
                        ups_spot: Watts::new(share),
                        bids: positioned(bids),
                    }
                })
                .collect();
            (constraints, tasks)
        })
}

/// The single-process reference: clear each task directly, in order,
/// against a clone of the shared set re-pointed at the task's share.
/// Every outcome must be the oracle's bit for bit — price, revenue rate
/// and grants — before anything is compared with it.
fn serial_clear(
    slot: Slot,
    clearing: ClearingConfig,
    constraints: &ConstraintSet,
    tasks: &[TaskShip],
) -> Vec<MarketOutcome> {
    let engine = MarketClearing::new(clearing);
    tasks
        .iter()
        .map(|task| {
            let local = constraints.clone().with_ups_spot(task.ups_spot);
            let got = engine.clear(slot, &task.bids, &local);
            oracle::assert_cleared(&got, clearing.price_step, &task.bids, &local);
            got
        })
        .collect()
}

/// An agent that has taken its `AssignShard` handshake.
fn assigned_agent(clearing: ClearingConfig) -> AgentLoop {
    let mut agent = AgentLoop::new();
    let reply = agent.handle(WireMsg::AssignShard { clearing });
    assert!(matches!(reply, Ok(None)), "{reply:?}");
    agent
}

/// The agent's answer to `frame`, read off the wire and checked to be a
/// `ShardCleared` for the frame's slot.
fn answer(agent: &mut AgentLoop, frame: &WireMsg) -> Vec<MarketOutcome> {
    let WireMsg::SlotFrame { slot, .. } = frame else {
        panic!("not a slot frame: {frame:?}");
    };
    let read = WireMsg::decode(&frame.encode()).expect("a frame round-trips");
    match agent.handle(read) {
        Ok(Some(WireMsg::ShardCleared {
            slot: answered,
            results,
            ..
        })) if answered == *slot => results,
        other => panic!("expected ShardCleared for {slot:?}, got {other:?}"),
    }
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
        mut tasks in prop::collection::vec(market_task(), 1..7),
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
        let want: Vec<Option<MarketOutcome>> = serial_clear(slot, clearing, &constraints, &tasks)
            .into_iter()
            .map(Some)
            .collect();
        let mut runtime = ShardRuntime::new(width, TransportKind::InProc, clearing).unwrap();
        prop_assert_eq!(
            runtime.clear_tasks(slot, &constraints, tasks),
            want,
            "width {}",
            width
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// An agent answers each frame from that frame alone: after any run
    /// of frames — other topologies, zoned and phased sets, empty task
    /// lists, absurd caps — its answer to the next one is a fresh
    /// agent's, and both are the oracle-checked serial clear.
    #[test]
    fn a_warm_agent_answers_the_next_frame_like_a_fresh_one(
        history in prop::collection::vec(any_frame(), 0..5),
        (constraints, tasks) in any_frame(),
        s in 0..1_000u64,
    ) {
        let clearing = ClearingConfig::default();
        let mut warm = assigned_agent(clearing);
        for (i, (constraints, tasks)) in history.into_iter().enumerate() {
            let frame = WireMsg::SlotFrame {
                slot: Slot::new(1_000 + i as u64),
                constraints,
                tasks,
            };
            answer(&mut warm, &frame);
        }
        let slot = Slot::new(s);
        let want = serial_clear(slot, clearing, &constraints, &tasks);
        let frame = WireMsg::SlotFrame { slot, constraints, tasks };
        prop_assert_eq!(&answer(&mut warm, &frame), &want);
        prop_assert_eq!(&answer(&mut assigned_agent(clearing), &frame), &want);
    }
}

/// One slot's worth of churn against the running shards.
#[derive(Debug, Clone)]
enum Churn {
    /// Replace the demand curve of bid `i % len` (bitwise change).
    Mutate(usize, DemandBid),
    /// Drop bid `i % len`, shifting everything after it down.
    Remove(usize),
    /// Append a new bid at the tail.
    Add(DemandBid),
    /// Swap to the alternate topology: the next frames carry a
    /// different constraint set.
    Retopology,
    /// SIGKILL the agent of shard `i % width` before the slot: its
    /// tasks degrade for this slot, and the next dispatch respawns it.
    Kill(usize),
}

fn churn_op() -> impl Strategy<Value = Churn> {
    prop_oneof![
        (0..16usize, any_bid()).prop_map(|(i, b)| Churn::Mutate(i, b)),
        (0..16usize).prop_map(Churn::Remove),
        any_bid().prop_map(Churn::Add),
        (0..1u64).prop_map(|_| Churn::Retopology),
        (0..16usize).prop_map(Churn::Kill),
    ]
}

/// 12 racks over two PDUs (`alt = false`) or three (`alt = true`); the
/// rack set is identical, so the same bids clear in both, against
/// different constraint sets.
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

    /// Shards that serve slot after slot — through bid churn, topology
    /// swaps and agents SIGKILLed mid-sequence — return bit-for-bit the
    /// results of clearing every slot cold, and a kill costs exactly the
    /// dead shard's tasks for exactly one slot. Exercised across the
    /// real wire: framed bytes over pipes to `spotdc-agent` children,
    /// multiple widths.
    #[test]
    fn shards_match_cold_clears_through_churn_topology_swaps_and_kills(
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
        for (i, (op, p0, p1, ups, second_ups)) in slots.into_iter().enumerate() {
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
                Churn::Retopology => alt = !alt,
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
                TaskShip {
                    bids: bids.clone(),
                    ups_spot: constraints.ups_spot(),
                },
                TaskShip {
                    bids: bids.iter().rev().cloned().collect(),
                    ups_spot: Watts::new(second_ups),
                },
            ];
            // The cold reference rebuilds everything from scratch; task
            // `j` lives on shard `j % width`.
            let mut want: Vec<Option<MarketOutcome>> =
                serial_clear(slot, clearing, &constraints, &tasks)
                    .into_iter()
                    .map(Some)
                    .collect();
            let got = warm.clear_tasks(slot, &constraints, tasks);
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

/// SIGKILLs process `pid` — no shutdown handshake, its engine is simply
/// gone — and returns once the kernel has closed its pipes (the
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

fn fixed_tasks() -> Vec<TaskShip> {
    vec![
        TaskShip {
            bids: fixed_bids(),
            ups_spot: fixed_constraints().ups_spot(),
        },
        TaskShip {
            bids: fixed_bids().split_off(1),
            ups_spot: Watts::new(20.0),
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

fn fixed_want(slot: Slot) -> Vec<Option<MarketOutcome>> {
    serial_clear(
        slot,
        ClearingConfig::default(),
        &fixed_constraints(),
        &fixed_tasks(),
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
    // Two slots through the same agents, each frame self-contained.
    let constraints = fixed_constraints();
    assert_eq!(
        runtime.clear_tasks(slot, &constraints, fixed_tasks()),
        fixed_want(slot)
    );
    let next = Slot::new(24);
    assert_eq!(
        runtime.clear_tasks(next, &constraints, fixed_tasks()),
        fixed_want(next)
    );
    assert_eq!(runtime.live_shards(), 2);
    // The shard engines' counters are cumulative, so they cover both
    // market tasks of both slots — a respawned agent would have
    // restarted at the second.
    let stats = runtime.shard_cache_stats();
    let swept: u64 = stats.iter().map(|s| s.full_sweeps).sum();
    assert_eq!(swept, 4, "{stats:?}");
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
    let got = runtime.clear_tasks(Slot::new(5), &constraints, fixed_tasks());
    assert_eq!(got, vec![None, None]);
    assert_eq!(runtime.live_shards(), 0);
}

#[test]
fn sigkilled_agents_respawn_at_the_next_dispatch() {
    let mut runtime = subprocess_runtime(env!("CARGO_BIN_EXE_spotdc-agent"), 2)
        .expect("spawn spotdc-agent children");
    let constraints = fixed_constraints();
    assert_eq!(
        runtime.clear_tasks(Slot::new(1), &constraints, fixed_tasks()),
        fixed_want(Slot::new(1))
    );
    // SIGKILL one agent between slots.
    let pid = runtime.agent_pids()[0].expect("subprocess shards have pids");
    sigkill(pid);
    // The slot after the kill degrades the dead shard's tasks (task 0
    // of 2 lands on shard 0) — capacity is never invented.
    let after = runtime.clear_tasks(Slot::new(2), &constraints, fixed_tasks());
    assert_eq!(after[0], None, "killed shard's task must degrade");
    assert_eq!(after[1], fixed_want(Slot::new(2))[1]);
    // The next dispatch respawns the shard, and its handshake is all the
    // replacement needs to answer bit-identically to the serial
    // reference.
    assert_eq!(
        runtime.clear_tasks(Slot::new(3), &constraints, fixed_tasks()),
        fixed_want(Slot::new(3))
    );
    assert_eq!(runtime.live_shards(), 2);
    let new_pid = runtime.agent_pids()[0].expect("respawned shard has a pid");
    assert_ne!(new_pid, pid, "a fresh agent process took over");
}

#[test]
fn a_shard_that_rejects_its_frame_degrades_one_slot_and_respawns() {
    spotdc_telemetry::install(spotdc_telemetry::TelemetryConfig::in_memory());
    let constraints = fixed_constraints();
    // Task 0, shard 0's, bids rack 0 twice: a protocol error that ends
    // the agent's loop. Task 1, on shard 1, is fine.
    let doubled = || {
        let mut tasks = fixed_tasks();
        let again = tasks[0].bids[0].clone();
        tasks[0].bids.push(again);
        tasks
    };
    let runtimes = [
        ShardRuntime::new(2, TransportKind::InProc, ClearingConfig::default())
            .expect("start in-process agents"),
        subprocess_runtime(env!("CARGO_BIN_EXE_spotdc-agent"), 2)
            .expect("spawn spotdc-agent children"),
    ];
    for (i, mut runtime) in runtimes.into_iter().enumerate() {
        // Slots no other test in this binary dispatches, so the shard
        // deaths below are this runtime's.
        let slot = Slot::new(300 + 10 * i as u64);
        let tasks = doubled();
        let healthy = serial_clear(slot, ClearingConfig::default(), &constraints, &tasks[1..]);
        let got = runtime.clear_tasks(slot, &constraints, tasks);
        assert_eq!(got, vec![None, Some(healthy[0].clone())], "runtime {i}");
        assert_eq!(runtime.live_shards(), 1, "runtime {i}");
        let down: Vec<(u64, String)> = spotdc_telemetry::memory_sink()
            .snapshot()
            .into_iter()
            .filter_map(|e| match e {
                spotdc_telemetry::Event::ShardDown {
                    slot: at,
                    shard,
                    reason,
                    ..
                } if at == slot => Some((shard, reason)),
                _ => None,
            })
            .collect();
        assert!(
            matches!(&down[..], [(0, reason)] if reason.starts_with("reply receive failed")),
            "runtime {i}: {down:?}"
        );
        // The next dispatch respawns shard 0, and both answer like the
        // serial clear again.
        let next = slot.next();
        assert_eq!(
            runtime.clear_tasks(next, &constraints, fixed_tasks()),
            fixed_want(next),
            "runtime {i}"
        );
        assert_eq!(runtime.live_shards(), 2, "runtime {i}");
    }
}
