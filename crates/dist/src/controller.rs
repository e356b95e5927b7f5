//! The controller's side of the split: dispatching slot frames across
//! shard agents and merging replies deterministically.

use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use spotdc_core::{
    ClearingCacheStats, ClearingConfig, ConstraintSet, MarketOutcome, TaskShip, WireMsg,
};
use spotdc_telemetry::Event;
use spotdc_units::{MonotonicNanos, Slot};

use crate::transport::{agent_binary, Transport};
use crate::TransportKind;

/// How many times a dead shard may be respawned before its tasks
/// degrade permanently. Respawns happen at the next dispatch, never
/// mid-slot: the slot that observed the death still degrades (the
/// paper's comms-loss rule), and the replacement needs only the
/// `AssignShard` handshake.
const RESPAWN_BUDGET: u32 = 3;

// Process-wide wire accounting, relaxed-atomic like the PR 1 telemetry
// fast path: sends and receives bump these unconditionally (cheap
// enough for the hot path), and benchmarks snapshot-diff them around
// runs. Per-slot *event* emission uses the runtime-local tally instead,
// so one `ShardRpc` event per slot carries exact per-slot numbers.
static FRAMES_SENT: AtomicU64 = AtomicU64::new(0);
static FRAMES_RECV: AtomicU64 = AtomicU64::new(0);
static BYTES_SENT: AtomicU64 = AtomicU64::new(0);
static BYTES_RECV: AtomicU64 = AtomicU64::new(0);
static SETUP_FRAMES: AtomicU64 = AtomicU64::new(0);
static SETUP_BYTES: AtomicU64 = AtomicU64::new(0);
static FULL_TASKS: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the process-wide wire counters (see [`wire_totals`]).
/// Setup traffic (the `AssignShard` handshake) is tallied separately
/// and excluded from the per-slot frame/byte counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Slot frames sent controller → agents.
    pub frames_sent: u64,
    /// Frames received back from agents.
    pub frames_recv: u64,
    /// Bytes sent controller → agents in slot frames.
    pub bytes_sent: u64,
    /// Bytes received back from agents.
    pub bytes_recv: u64,
    /// Handshake (`AssignShard`) frames sent at setup/respawn.
    pub setup_frames: u64,
    /// Handshake bytes sent at setup/respawn.
    pub setup_bytes: u64,
    /// Always 0: tasks only ever ship whole. Kept because `benchmark/`
    /// reads the field.
    pub delta_tasks: u64,
    /// Tasks shipped (every task ships whole).
    pub full_tasks: u64,
}

/// Snapshots the process-wide wire counters. Counters only ever grow;
/// callers measuring one run diff two snapshots.
#[must_use]
pub fn wire_totals() -> WireStats {
    WireStats {
        frames_sent: FRAMES_SENT.load(Ordering::Relaxed),
        frames_recv: FRAMES_RECV.load(Ordering::Relaxed),
        bytes_sent: BYTES_SENT.load(Ordering::Relaxed),
        bytes_recv: BYTES_RECV.load(Ordering::Relaxed),
        setup_frames: SETUP_FRAMES.load(Ordering::Relaxed),
        setup_bytes: SETUP_BYTES.load(Ordering::Relaxed),
        delta_tasks: 0,
        full_tasks: FULL_TASKS.load(Ordering::Relaxed),
    }
}

/// Per-slot wire tally, reset every dispatch; feeds the one aggregated
/// `ShardRpc` event per slot.
#[derive(Debug, Default, Clone, Copy)]
struct FrameTally {
    frames_sent: u64,
    frames_recv: u64,
    bytes_sent: u64,
    bytes_recv: u64,
    tasks: u64,
}

/// The controller's handle on a fleet of shard agents.
///
/// Tasks are assigned round-robin (`task i → shard i % shard_count`),
/// each shard gets its whole slot as **one frame** so agents overlap,
/// and replies are consumed strictly in shard order — a serial in-order
/// merge, which is what keeps reports byte-identical regardless of how
/// many shards run or how fast each one answers.
///
/// [`Self::clear_tasks`] is the one dispatch path: every frame
/// carries the slot's constraint set and the shard's tasks, so a shard
/// clears against exactly the constraints the controller built.
///
/// A shard whose transport fails — send error, torn or corrupt frame,
/// short or mismatched reply, dead process — is marked dead, with one
/// `ShardDown` event saying why; its tasks come back as `None` for that
/// slot and the caller degrades those sub-markets to "no spot
/// capacity" (the paper's comms-loss rule). At the *next* dispatch the
/// runtime respawns the shard (bounded by a small budget) and re-sends
/// the handshake, so a transient agent crash costs exactly the slots it
/// was dead for.
#[derive(Debug)]
pub struct ShardRuntime {
    shards: Vec<ShardConn>,
    kind: TransportKind,
    clearing: ClearingConfig,
    /// The agent binary resolved at startup, so respawns use the same
    /// executable even if `SPOTDC_AGENT_BIN` changes mid-run.
    binary: Option<PathBuf>,
}

#[derive(Debug)]
struct ShardConn {
    transport: Transport,
    alive: bool,
    respawns_left: u32,
    /// The shard's last reported clear counters.
    cache: ClearingCacheStats,
}

impl ShardRuntime {
    /// Starts `count` shard agents over `kind` transports and hands
    /// each the clearing configuration.
    ///
    /// # Errors
    ///
    /// The `spotdc-agent` binary was not found (see [`agent_binary`])
    /// or an agent failed to start (no pipe, thread or process to be
    /// had).
    ///
    /// # Panics
    ///
    /// If `count` is zero.
    pub fn new(count: usize, kind: TransportKind, clearing: ClearingConfig) -> io::Result<Self> {
        assert!(count > 0, "a shard runtime needs at least one shard");
        let _span = spotdc_telemetry::span!("dist.start");
        let binary = match kind {
            TransportKind::InProc => None,
            TransportKind::Subprocess => Some(agent_binary().ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::NotFound,
                    "spotdc-agent binary not found: set SPOTDC_AGENT_BIN or \
                     build it next to the current executable",
                )
            })?),
        };
        let mut shards = Vec::with_capacity(count);
        for _ in 0..count {
            shards.push(ShardConn {
                transport: Transport::spawn(kind, binary.as_deref())?,
                alive: true,
                respawns_left: RESPAWN_BUDGET,
                cache: ClearingCacheStats::default(),
            });
        }
        let mut runtime = ShardRuntime {
            shards,
            kind,
            clearing,
            binary,
        };
        for id in 0..count {
            runtime.assign(Slot::ZERO, id);
        }
        Ok(runtime)
    }

    /// How many shards are still serving.
    #[must_use]
    pub fn live_shards(&self) -> usize {
        self.shards.iter().filter(|s| s.alive).count()
    }

    /// Each shard's last reported clear counters, in shard
    /// order: one engine per shard, counting exactly like a local one.
    #[must_use]
    pub fn shard_cache_stats(&self) -> Vec<ClearingCacheStats> {
        self.shards.iter().map(|s| s.cache).collect()
    }

    /// The OS pid of each shard's agent process, in shard order (`None`
    /// for in-process shards). The fault-injection harnesses kill
    /// agents by pid to exercise degradation and respawn.
    #[must_use]
    pub fn agent_pids(&self) -> Vec<Option<u32>> {
        self.shards.iter().map(|s| s.transport.pid()).collect()
    }

    /// Dispatches one slot of tasks across the shards and returns one
    /// entry per task, in task order: `Some(outcome)` from a healthy
    /// shard, `None` for every task owned by a dead one.
    ///
    /// `constraints` is the slot's global constraint set; it travels in
    /// every shard's frame, and each task's `ups_spot` replaces its UPS
    /// capacity shard-side, exactly like
    /// `constraints.clone().with_ups_spot(share)` locally.
    pub fn clear_tasks(
        &mut self,
        slot: Slot,
        constraints: &ConstraintSet,
        tasks: Vec<TaskShip>,
    ) -> Vec<Option<MarketOutcome>> {
        let _span = spotdc_telemetry::span!("dist.clear", slot = slot);
        self.respawn_dead(slot);
        let count = self.shards.len();
        let total = tasks.len();
        let mut per_shard: Vec<Vec<TaskShip>> = (0..count).map(|_| Vec::new()).collect();
        for (i, task) in tasks.into_iter().enumerate() {
            per_shard[i % count].push(task);
        }
        let expected: Vec<usize> = per_shard.iter().map(Vec::len).collect();
        let started = Instant::now();
        let mut tally = FrameTally::default();
        // Send phase: one self-contained frame per live shard, so the
        // shards compute concurrently.
        for (idx, tasks) in per_shard.into_iter().enumerate() {
            let frame = WireMsg::SlotFrame {
                slot,
                constraints: constraints.clone(),
                tasks,
            };
            self.send_slot(slot, idx, &frame, &mut tally);
        }
        // Receive phase: strictly in shard order, so the merge below is
        // serial and deterministic no matter who finished first.
        let mut replies: Vec<Option<std::vec::IntoIter<MarketOutcome>>> = Vec::with_capacity(count);
        for (idx, expected) in expected.into_iter().enumerate() {
            replies.push(self.recv_cleared(slot, idx, expected, started, &mut tally));
        }
        self.finish_slot(slot, tally);
        // Stitch per-shard replies back into task order.
        let mut out = Vec::with_capacity(total);
        for i in 0..total {
            out.push(replies[i % count].as_mut().and_then(Iterator::next));
        }
        out
    }

    /// Respawns dead shards that still have respawn budget. Called at
    /// the top of every dispatch — never mid-slot, so the slot that
    /// watched a shard die degrades deterministically and the
    /// replacement starts clean at the next one.
    fn respawn_dead(&mut self, slot: Slot) {
        for idx in 0..self.shards.len() {
            let conn = &mut self.shards[idx];
            if conn.alive || conn.respawns_left == 0 {
                continue;
            }
            conn.respawns_left -= 1;
            let Ok(transport) = Transport::spawn(self.kind, self.binary.as_deref()) else {
                continue;
            };
            conn.transport = transport;
            conn.alive = true;
            self.assign(slot, idx);
        }
    }

    /// Sends the `AssignShard` handshake to shard `idx`, accounting it
    /// as setup traffic (its own `ShardRpc` phase, excluded from
    /// per-slot tallies).
    fn assign(&mut self, slot: Slot, idx: usize) {
        let msg = WireMsg::AssignShard {
            clearing: self.clearing,
        };
        let conn = &mut self.shards[idx];
        match conn.transport.send(&msg) {
            Ok(bytes) => {
                SETUP_FRAMES.fetch_add(1, Ordering::Relaxed);
                SETUP_BYTES.fetch_add(bytes, Ordering::Relaxed);
                if spotdc_telemetry::is_enabled() {
                    spotdc_telemetry::emit(Event::ShardRpc {
                        slot,
                        at: MonotonicNanos::now(),
                        phase: "setup".to_owned(),
                        frames_sent: 1,
                        frames_recv: 0,
                        bytes_sent: bytes,
                        bytes_recv: 0,
                        tasks: 0,
                    });
                }
            }
            Err(e) => self.mark_dead(slot, idx, format!("handshake send failed: {e}")),
        }
    }

    /// Sends a slot frame to shard `idx`, marking it dead on failure.
    fn send_slot(&mut self, slot: Slot, idx: usize, msg: &WireMsg, tally: &mut FrameTally) {
        let conn = &mut self.shards[idx];
        if !conn.alive {
            return;
        }
        match conn.transport.send(msg) {
            Ok(bytes) => {
                tally.frames_sent += 1;
                tally.bytes_sent += bytes;
                if let WireMsg::SlotFrame { tasks, .. } = msg {
                    tally.tasks += tasks.len() as u64;
                }
                FRAMES_SENT.fetch_add(1, Ordering::Relaxed);
                BYTES_SENT.fetch_add(bytes, Ordering::Relaxed);
            }
            Err(e) => self.mark_dead(slot, idx, format!("slot frame send failed: {e}")),
        }
    }

    /// Receives shard `idx`'s reply to its slot frame, accounting the
    /// bytes. A transport failure, or anything but a well-formed
    /// `ShardCleared` for the right slot with one outcome per task,
    /// kills the shard.
    fn recv_cleared(
        &mut self,
        slot: Slot,
        idx: usize,
        expected: usize,
        started: Instant,
        tally: &mut FrameTally,
    ) -> Option<std::vec::IntoIter<MarketOutcome>> {
        let conn = &mut self.shards[idx];
        if !conn.alive {
            return None;
        }
        let reason = match conn.transport.recv() {
            Err(e) => format!("reply receive failed: {e}"),
            Ok((msg, bytes)) => {
                tally.frames_recv += 1;
                tally.bytes_recv += bytes;
                FRAMES_RECV.fetch_add(1, Ordering::Relaxed);
                BYTES_RECV.fetch_add(bytes, Ordering::Relaxed);
                match msg {
                    WireMsg::ShardCleared {
                        slot: reply_slot, ..
                    } if reply_slot != slot => format!("reply for {reply_slot}, expected {slot}"),
                    WireMsg::ShardCleared { results, .. } if results.len() != expected => {
                        format!("{} outcomes for {expected} tasks", results.len())
                    }
                    WireMsg::ShardCleared { results, cache, .. } => {
                        conn.cache = cache;
                        if spotdc_telemetry::is_enabled() {
                            spotdc_telemetry::emit(Event::ShardCleared {
                                slot,
                                at: MonotonicNanos::now(),
                                shard: idx as u64,
                                outcomes: results.len() as u64,
                                nanos: u64::try_from(started.elapsed().as_nanos())
                                    .unwrap_or(u64::MAX),
                            });
                        }
                        return Some(results.into_iter());
                    }
                    _ => "reply is not ShardCleared".to_owned(),
                }
            }
        };
        self.mark_dead(slot, idx, reason);
        None
    }

    /// Marks shard `idx` dead — its tasks degrade to `None` until the
    /// next dispatch respawns it — and says why in one `ShardDown`
    /// event.
    fn mark_dead(&mut self, slot: Slot, idx: usize, reason: String) {
        self.shards[idx].alive = false;
        if spotdc_telemetry::is_enabled() {
            spotdc_telemetry::emit(Event::ShardDown {
                slot,
                at: MonotonicNanos::now(),
                shard: idx as u64,
                reason,
            });
        }
    }

    /// Emits the slot's one aggregated `ShardRpc` event.
    fn finish_slot(&mut self, slot: Slot, tally: FrameTally) {
        FULL_TASKS.fetch_add(tally.tasks, Ordering::Relaxed);
        if spotdc_telemetry::is_enabled() {
            spotdc_telemetry::emit(Event::ShardRpc {
                slot,
                at: MonotonicNanos::now(),
                phase: "slot".to_owned(),
                frames_sent: tally.frames_sent,
                frames_recv: tally.frames_recv,
                bytes_sent: tally.bytes_sent,
                bytes_recv: tally.bytes_recv,
                tasks: tally.tasks,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotdc_core::{ConstraintSet, LinearBid, MarketClearing, RackBid, StepBid};
    use spotdc_power::topology::TopologyBuilder;
    use spotdc_units::{Price, RackId, TenantId, Watts};

    fn constraints() -> ConstraintSet {
        let topo = TopologyBuilder::new(Watts::new(400.0))
            .pdu(Watts::new(200.0))
            .rack(TenantId::new(0), Watts::new(100.0), Watts::new(50.0))
            .rack(TenantId::new(1), Watts::new(80.0), Watts::new(40.0))
            .build()
            .unwrap();
        ConstraintSet::new(&topo, vec![Watts::new(60.0)], Watts::new(60.0))
    }

    /// Two single-bid market tasks with different UPS shares of the
    /// shared [`constraints`].
    fn tasks() -> Vec<TaskShip> {
        vec![
            TaskShip {
                bids: vec![RackBid::new(
                    RackId::new(0),
                    LinearBid::new(
                        Watts::new(40.0),
                        Price::per_kw_hour(0.05),
                        Watts::new(10.0),
                        Price::per_kw_hour(0.30),
                    )
                    .unwrap()
                    .into(),
                )],
                ups_spot: Watts::new(35.0),
            },
            TaskShip {
                bids: vec![RackBid::new(
                    RackId::new(1),
                    StepBid::new(Watts::new(25.0), Price::per_kw_hour(0.2))
                        .unwrap()
                        .into(),
                )],
                ups_spot: Watts::new(20.0),
            },
        ]
    }

    #[test]
    fn inproc_runtime_matches_direct_clearing_for_any_width() {
        let slot = Slot::new(11);
        let direct = MarketClearing::new(ClearingConfig::default());
        let shared = constraints();
        let want: Vec<MarketOutcome> = tasks()
            .iter()
            .map(|t| direct.clear(slot, &t.bids, &shared.clone().with_ups_spot(t.ups_spot)))
            .collect();
        for width in [1, 2, 3] {
            let mut runtime =
                ShardRuntime::new(width, TransportKind::InProc, ClearingConfig::default()).unwrap();
            assert_eq!(runtime.live_shards(), width);
            let got: Vec<MarketOutcome> = runtime
                .clear_tasks(slot, &shared, tasks())
                .into_iter()
                .map(|r| r.expect("healthy shards answer every task"))
                .collect();
            assert_eq!(got, want, "width {width}");
        }
    }

    #[test]
    fn per_pdu_clearing_matches_direct_clearing_over_slots() {
        // Per-PDU sub-markets, cleared on the same shards across
        // several slots with varying bids and capacities, must match
        // the serial engine bit for bit at every width.
        let topo = TopologyBuilder::new(Watts::new(400.0))
            .pdu(Watts::new(200.0))
            .rack(TenantId::new(0), Watts::new(100.0), Watts::new(50.0))
            .rack(TenantId::new(1), Watts::new(80.0), Watts::new(40.0))
            .pdu(Watts::new(200.0))
            .rack(TenantId::new(2), Watts::new(90.0), Watts::new(45.0))
            .build()
            .unwrap();
        let direct = MarketClearing::new(ClearingConfig::default());
        for width in [1, 2, 3] {
            let mut runtime =
                ShardRuntime::new(width, TransportKind::InProc, ClearingConfig::default()).unwrap();
            for s in 0..5_u64 {
                let slot = Slot::new(s);
                let v = s as f64;
                let constraints = ConstraintSet::new(
                    &topo,
                    vec![Watts::new(60.0 + v), Watts::new(30.0 + 2.0 * v)],
                    Watts::new(70.0 - v),
                );
                // Rack 0's bid churns every slot; the others hold
                // still.
                let bids = vec![
                    RackBid::new(
                        RackId::new(0),
                        StepBid::new(Watts::new(20.0 + v), Price::per_kw_hour(0.2))
                            .unwrap()
                            .into(),
                    ),
                    RackBid::new(
                        RackId::new(1),
                        StepBid::new(Watts::new(15.0), Price::per_kw_hour(0.15))
                            .unwrap()
                            .into(),
                    ),
                    RackBid::new(
                        RackId::new(2),
                        StepBid::new(Watts::new(25.0), Price::per_kw_hour(0.25))
                            .unwrap()
                            .into(),
                    ),
                ];
                let shares = direct.per_pdu_submarket_shares(&bids, &constraints);
                let want: Vec<MarketOutcome> = shares
                    .iter()
                    .map(|(group, share)| {
                        direct.clear(slot, group, &constraints.clone().with_ups_spot(*share))
                    })
                    .collect();
                let slot_tasks: Vec<TaskShip> = shares
                    .into_iter()
                    .map(|(group, share)| TaskShip {
                        bids: group,
                        ups_spot: share,
                    })
                    .collect();
                let got: Vec<MarketOutcome> = runtime
                    .clear_tasks(slot, &constraints, slot_tasks)
                    .into_iter()
                    .map(|r| r.expect("healthy shards answer every task"))
                    .collect();
                assert_eq!(got, want, "width {width} slot {s}");
            }
            assert_eq!(runtime.live_shards(), width);
        }
    }

    #[test]
    fn empty_task_lists_are_fine() {
        let mut runtime =
            ShardRuntime::new(2, TransportKind::InProc, ClearingConfig::default()).unwrap();
        for s in 0..2 {
            assert!(runtime
                .clear_tasks(Slot::new(s), &constraints(), Vec::new())
                .is_empty());
        }
        assert_eq!(runtime.live_shards(), 2);
    }
}
