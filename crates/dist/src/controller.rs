//! The controller's side of the split: session bookkeeping, delta
//! shipping, dispatching slot frames across shard agents and merging
//! replies deterministically.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use spotdc_core::{
    ClearResult, ClearingCacheStats, ClearingConfig, ConcaveGain, ConstraintSet, DemandBid,
    RackBid, TaskShip, WireMsg,
};
use spotdc_telemetry::Event;
use spotdc_units::{MonotonicNanos, RackId, Slot, Watts};

use crate::transport::{agent_binary, InProcTransport, ShardTransport, SubprocessTransport};
use crate::TransportKind;

/// How many times a dead shard may be respawned before its tasks
/// degrade permanently. Respawns happen at the next dispatch, never
/// mid-slot: the slot that observed the death still degrades (the
/// paper's comms-loss rule), and the replacement resyncs in full.
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
static DELTA_TASKS: AtomicU64 = AtomicU64::new(0);
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
    /// Session tasks shipped as deltas.
    pub delta_tasks: u64,
    /// Session tasks shipped in full.
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
        delta_tasks: DELTA_TASKS.load(Ordering::Relaxed),
        full_tasks: FULL_TASKS.load(Ordering::Relaxed),
    }
}

/// One unit of work for [`ShardRuntime::clear_session`]:
/// the task's bids/gains plus its UPS spot share, cleared against the
/// slot's shared constraint set (statics + per-PDU spot vector). The
/// runtime decides per task whether to ship it whole or as a delta
/// against what the owning shard already holds.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionTask {
    /// A (sub-)market of rack bids.
    Market {
        /// The bids, in controller order.
        bids: Vec<RackBid>,
        /// The task's UPS spot share (already clamped to the global).
        ups_spot: Watts,
    },
    /// A MaxPerf water-filling allocation.
    MaxPerf {
        /// Concave gain envelope per requesting rack.
        gains: BTreeMap<RackId, ConcaveGain>,
        /// The task's UPS spot share (already clamped to the global).
        ups_spot: Watts,
    },
}

/// The controller's mirror of what a shard holds per task position —
/// exactly the state the shard would have after applying every accepted
/// frame, which is what deltas are diffed against and what a full
/// resync frame is rebuilt from. UPS shares are kept as raw `f64` bits:
/// all diffing is bitwise (`-0.0 != 0.0`), matching the wire codec's
/// exact round-trip.
#[derive(Debug)]
enum MirrorTask {
    /// A market task's full bid book plus its last UPS share.
    Market { ups_bits: u64, bids: Vec<RackBid> },
    /// A MaxPerf task's gain envelopes plus its last UPS share.
    MaxPerf {
        ups_bits: u64,
        gains: BTreeMap<RackId, ConcaveGain>,
    },
}

/// Per-slot wire tally, reset every dispatch; feeds the one aggregated
/// `ShardRpc` event per slot.
#[derive(Debug, Default, Clone, Copy)]
struct FrameTally {
    frames_sent: u64,
    frames_recv: u64,
    bytes_sent: u64,
    bytes_recv: u64,
    delta_tasks: u64,
    full_tasks: u64,
}

/// The controller's handle on a fleet of shard agents.
///
/// Tasks are assigned round-robin (`task i → shard i % shard_count`),
/// each shard gets its whole slot as **one frame** so agents overlap,
/// and replies are consumed strictly in shard order — a serial in-order
/// merge, which is what keeps reports byte-identical regardless of how
/// many shards run or how fast each one answers.
///
/// [`Self::clear_session`] is the one dispatch path: the runtime
/// mirrors every shard's held state, ships statics once per resync and
/// per-task bid deltas afterwards, and falls back to full shipping
/// whenever a shard answers `ResyncNeeded` (fresh restart, epoch gap) —
/// by construction the replayed state is bit-identical to full
/// shipping, so the merge bytes never depend on which path ran.
///
/// A shard whose transport fails — send error, torn or corrupt frame,
/// short or mismatched reply, dead process — is marked dead; its tasks
/// come back as `None` for that slot and the caller degrades those
/// sub-markets to "no spot capacity" (the paper's comms-loss rule). At
/// the *next* dispatch the runtime respawns the shard (bounded by a
/// small budget) and resyncs it in full, so a transient agent crash
/// costs exactly the slots it was dead for.
#[derive(Debug)]
pub struct ShardRuntime {
    shards: Vec<ShardConn>,
    kind: TransportKind,
    clearing: ClearingConfig,
    /// The agent binary resolved at startup, so respawns use the same
    /// executable even if `SPOTDC_AGENT_BIN` changes mid-run.
    binary: Option<PathBuf>,
    /// The static constraint layers the current shard sessions were
    /// synced with; a bitwise mismatch forces a full resync everywhere.
    statics: Option<ConstraintSet>,
}

#[derive(Debug)]
struct ShardConn {
    transport: Box<dyn ShardTransport>,
    alive: bool,
    /// Whether the shard's session holds the current statics — cleared
    /// on death, respawn, and statics change; set when a full frame is
    /// shipped.
    synced: bool,
    /// Epoch of the last frame sent to this shard.
    epoch: u64,
    respawns_left: u32,
    mirror: Vec<MirrorTask>,
    /// The shard's last reported clearing-cache counters.
    cache: ClearingCacheStats,
}

impl ShardRuntime {
    /// Starts `count` shard agents over `kind` transports and assigns
    /// each its shard index and the clearing configuration.
    ///
    /// # Errors
    ///
    /// Subprocess transport only: the `spotdc-agent` binary was not
    /// found (see [`agent_binary`]) or failed to spawn. In-process
    /// startup is infallible.
    ///
    /// # Panics
    ///
    /// If `count` is zero.
    pub fn new(count: usize, kind: TransportKind, clearing: ClearingConfig) -> io::Result<Self> {
        assert!(count > 0, "a shard runtime needs at least one shard");
        let _span = spotdc_telemetry::span!("dist.start", shards = count);
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
                transport: spawn_transport(kind, binary.as_deref())?,
                alive: true,
                synced: false,
                epoch: 0,
                respawns_left: RESPAWN_BUDGET,
                mirror: Vec::new(),
                cache: ClearingCacheStats::default(),
            });
        }
        let mut runtime = ShardRuntime {
            shards,
            kind,
            clearing,
            binary,
            statics: None,
        };
        for id in 0..count {
            runtime.assign(Slot::ZERO, id);
        }
        Ok(runtime)
    }

    /// The number of shards in the topology (dead ones included — the
    /// task assignment never re-balances, so degradation stays local to
    /// the failed shard).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The transport the runtime was started with.
    #[must_use]
    pub fn kind(&self) -> TransportKind {
        self.kind
    }

    /// How many shards are still serving.
    #[must_use]
    pub fn live_shards(&self) -> usize {
        self.shards.iter().filter(|s| s.alive).count()
    }

    /// Each shard's last reported clearing-cache counters, in shard
    /// order. Warm sessions show `cache_hits` climbing exactly like a
    /// local engine's.
    #[must_use]
    pub fn shard_cache_stats(&self) -> Vec<ClearingCacheStats> {
        self.shards.iter().map(|s| s.cache).collect()
    }

    /// The OS pid of each shard's agent process, in shard order (`None`
    /// for in-process shards). The fault-injection harnesses kill
    /// agents by pid to exercise degradation and resync.
    #[must_use]
    pub fn agent_pids(&self) -> Vec<Option<u32>> {
        self.shards.iter().map(|s| s.transport.pid()).collect()
    }

    /// Dispatches one slot of session tasks across the shards and
    /// returns one entry per task, in task order: `Some(result)` from a
    /// healthy shard, `None` for every task owned by a dead one.
    ///
    /// `constraints` is the slot's global constraint set; each task's
    /// `ups_spot` replaces its UPS capacity shard-side, exactly like
    /// `constraints.clone().with_ups_spot(share)` locally. The runtime
    /// ships the static layers only when a shard needs a (re)sync and
    /// diffs each task against its mirror of the shard's held state to
    /// ship deltas, so steady-state wire volume is proportional to bid
    /// churn, not book size.
    pub fn clear_session(
        &mut self,
        slot: Slot,
        constraints: &ConstraintSet,
        tasks: Vec<SessionTask>,
    ) -> Vec<Option<ClearResult>> {
        let _span = spotdc_telemetry::span!("dist.clear", slot = slot);
        let statics_changed = match &self.statics {
            Some(held) => !held.same_statics(constraints),
            None => true,
        };
        if statics_changed {
            self.statics = Some(constraints.clone());
            for conn in &mut self.shards {
                conn.synced = false;
            }
        }
        self.respawn_dead(slot);
        let count = self.shards.len();
        let total = tasks.len();
        let pdu_spot: Vec<Watts> = constraints.pdu_spots().to_vec();
        let mut per_shard: Vec<Vec<SessionTask>> = (0..count).map(|_| Vec::new()).collect();
        for (i, task) in tasks.into_iter().enumerate() {
            per_shard[i % count].push(task);
        }
        let expected: Vec<usize> = per_shard.iter().map(Vec::len).collect();
        let started = Instant::now();
        let mut tally = FrameTally::default();
        // Send phase: one coalesced frame per live shard, so the shards
        // compute concurrently.
        for (idx, batch) in per_shard.into_iter().enumerate() {
            let frame = self.build_frame(idx, slot, &pdu_spot, batch, &mut tally);
            self.send_slot(idx, &frame, &mut tally);
        }
        // Receive phase: strictly in shard order, so the merge below is
        // serial and deterministic no matter who finished first.
        let mut replies: Vec<Option<std::vec::IntoIter<ClearResult>>> = Vec::with_capacity(count);
        for (idx, &expected) in expected.iter().enumerate() {
            replies.push(self.recv_cleared(slot, idx, expected, &pdu_spot, started, &mut tally));
        }
        self.finish_slot(slot, tally);
        // Stitch per-shard replies back into task order.
        let mut out = Vec::with_capacity(total);
        for i in 0..total {
            out.push(replies[i % count].as_mut().and_then(Iterator::next));
        }
        out
    }

    /// Builds shard `idx`'s frame for the slot, updating its mirror to
    /// the post-frame state. Synced shards get deltas where the churn
    /// pays for itself; unsynced shards get a statics-bearing full
    /// frame (and are considered synced once it ships).
    fn build_frame(
        &mut self,
        idx: usize,
        slot: Slot,
        pdu_spot: &[Watts],
        batch: Vec<SessionTask>,
        tally: &mut FrameTally,
    ) -> WireMsg {
        let conn = &mut self.shards[idx];
        conn.epoch += 1;
        let full = !conn.synced;
        let mut ships = Vec::with_capacity(batch.len());
        let mut mirror = Vec::with_capacity(batch.len());
        for (j, task) in batch.into_iter().enumerate() {
            let old = if full { None } else { conn.mirror.get(j) };
            match task {
                SessionTask::Market { bids, ups_spot } => {
                    ships.push(market_ship(old, &bids, ups_spot));
                    mirror.push(MirrorTask::Market {
                        ups_bits: ups_spot.value().to_bits(),
                        bids,
                    });
                }
                SessionTask::MaxPerf { gains, ups_spot } => {
                    ships.push(maxperf_ship(old, &gains, ups_spot));
                    mirror.push(MirrorTask::MaxPerf {
                        ups_bits: ups_spot.value().to_bits(),
                        gains,
                    });
                }
            }
        }
        conn.mirror = mirror;
        for ship in &ships {
            tally_ship(ship, tally);
        }
        let statics = if full {
            conn.synced = true;
            Some(self.statics.clone().expect("set by clear_session"))
        } else {
            None
        };
        WireMsg::SlotFrame {
            slot,
            epoch: conn.epoch,
            statics,
            pdu_spot: pdu_spot.to_vec(),
            tasks: ships,
        }
    }

    /// Rebuilds shard `idx`'s slot as a full statics-bearing frame from
    /// its mirror — the resync path after a `ResyncNeeded` reply.
    fn resync_frame(
        &mut self,
        idx: usize,
        slot: Slot,
        pdu_spot: &[Watts],
        tally: &mut FrameTally,
    ) -> WireMsg {
        let statics = self.statics.clone().expect("set by clear_session");
        let conn = &mut self.shards[idx];
        let mut ships = Vec::with_capacity(conn.mirror.len());
        for entry in &conn.mirror {
            ships.push(match entry {
                MirrorTask::Market { ups_bits, bids } => TaskShip::MarketFull {
                    ups_spot: Watts::new(f64::from_bits(*ups_bits)),
                    bids: bids.clone(),
                },
                MirrorTask::MaxPerf { ups_bits, gains } => TaskShip::MaxPerfFull {
                    ups_spot: Watts::new(f64::from_bits(*ups_bits)),
                    gains: gains.clone(),
                },
            });
        }
        conn.epoch += 1;
        conn.synced = true;
        for ship in &ships {
            tally_ship(ship, tally);
        }
        WireMsg::SlotFrame {
            slot,
            epoch: conn.epoch,
            statics: Some(statics),
            pdu_spot: pdu_spot.to_vec(),
            tasks: ships,
        }
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
            let Ok(transport) = spawn_transport(self.kind, self.binary.as_deref()) else {
                continue;
            };
            conn.transport = transport;
            conn.alive = true;
            conn.synced = false;
            conn.epoch = 0;
            conn.mirror = Vec::new();
            self.assign(slot, idx);
        }
    }

    /// Sends the `AssignShard` handshake to shard `idx`, accounting it
    /// as setup traffic (its own `ShardRpc` phase, excluded from
    /// per-slot tallies).
    fn assign(&mut self, slot: Slot, idx: usize) {
        let msg = WireMsg::AssignShard {
            shard: idx as u64,
            shard_count: self.shards.len() as u64,
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
                        delta_tasks: 0,
                        full_tasks: 0,
                    });
                }
            }
            Err(_) => {
                conn.alive = false;
                conn.synced = false;
            }
        }
    }

    /// Sends a slot frame to shard `idx`, marking it dead on failure.
    /// Returns whether the send succeeded.
    fn send_slot(&mut self, idx: usize, msg: &WireMsg, tally: &mut FrameTally) -> bool {
        let conn = &mut self.shards[idx];
        if !conn.alive {
            return false;
        }
        match conn.transport.send(msg) {
            Ok(bytes) => {
                tally.frames_sent += 1;
                tally.bytes_sent += bytes;
                FRAMES_SENT.fetch_add(1, Ordering::Relaxed);
                BYTES_SENT.fetch_add(bytes, Ordering::Relaxed);
                true
            }
            Err(_) => {
                conn.alive = false;
                conn.synced = false;
                false
            }
        }
    }

    /// Receives one reply from shard `idx`, accounting the bytes.
    /// Returns `None` (and kills the shard) on transport failure.
    fn recv_reply(&mut self, idx: usize, tally: &mut FrameTally) -> Option<WireMsg> {
        match self.shards[idx].transport.recv() {
            Ok((msg, bytes)) => {
                tally.frames_recv += 1;
                tally.bytes_recv += bytes;
                FRAMES_RECV.fetch_add(1, Ordering::Relaxed);
                BYTES_RECV.fetch_add(bytes, Ordering::Relaxed);
                Some(msg)
            }
            Err(_) => {
                self.kill(idx);
                None
            }
        }
    }

    /// Receives shard `idx`'s reply for `slot`. A `ResyncNeeded` reply
    /// gets one full-frame retry; anything else but a well-formed
    /// `ShardCleared` for the right slot and epoch with one result per
    /// task kills the shard.
    fn recv_cleared(
        &mut self,
        slot: Slot,
        idx: usize,
        expected: usize,
        pdu_spot: &[Watts],
        started: Instant,
        tally: &mut FrameTally,
    ) -> Option<std::vec::IntoIter<ClearResult>> {
        if !self.shards[idx].alive {
            return None;
        }
        let reply = self.recv_reply(idx, tally)?;
        let reply = if matches!(reply, WireMsg::ResyncNeeded { .. }) {
            let frame = self.resync_frame(idx, slot, pdu_spot, tally);
            if !self.send_slot(idx, &frame, tally) {
                return None;
            }
            self.recv_reply(idx, tally)?
        } else {
            reply
        };
        match reply {
            WireMsg::ShardCleared {
                slot: reply_slot,
                epoch,
                results,
                cache,
            } if reply_slot == slot
                && epoch == self.shards[idx].epoch
                && results.len() == expected =>
            {
                self.shards[idx].cache = cache;
                if spotdc_telemetry::is_enabled() {
                    spotdc_telemetry::emit(Event::ShardCleared {
                        slot,
                        at: MonotonicNanos::now(),
                        shard: idx as u64,
                        outcomes: results.len() as u64,
                        nanos: u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
                    });
                }
                Some(results.into_iter())
            }
            _ => {
                self.kill(idx);
                None
            }
        }
    }

    fn kill(&mut self, idx: usize) {
        self.shards[idx].alive = false;
        self.shards[idx].synced = false;
    }

    /// Emits the slot's one aggregated `ShardRpc` event.
    fn finish_slot(&mut self, slot: Slot, tally: FrameTally) {
        DELTA_TASKS.fetch_add(tally.delta_tasks, Ordering::Relaxed);
        FULL_TASKS.fetch_add(tally.full_tasks, Ordering::Relaxed);
        if spotdc_telemetry::is_enabled() {
            spotdc_telemetry::emit(Event::ShardRpc {
                slot,
                at: MonotonicNanos::now(),
                phase: "slot".to_owned(),
                frames_sent: tally.frames_sent,
                frames_recv: tally.frames_recv,
                bytes_sent: tally.bytes_sent,
                bytes_recv: tally.bytes_recv,
                delta_tasks: tally.delta_tasks,
                full_tasks: tally.full_tasks,
            });
        }
    }
}

fn spawn_transport(
    kind: TransportKind,
    binary: Option<&Path>,
) -> io::Result<Box<dyn ShardTransport>> {
    Ok(match kind {
        TransportKind::InProc => Box::new(InProcTransport::spawn()),
        TransportKind::Subprocess => {
            let binary = binary.ok_or_else(|| {
                io::Error::new(io::ErrorKind::NotFound, "no agent binary resolved")
            })?;
            Box::new(SubprocessTransport::spawn(binary)?)
        }
    })
}

fn tally_ship(ship: &TaskShip, tally: &mut FrameTally) {
    match ship {
        TaskShip::MarketDelta { .. } | TaskShip::MaxPerfDelta { .. } => tally.delta_tasks += 1,
        TaskShip::MarketFull { .. } | TaskShip::MaxPerfFull { .. } => tally.full_tasks += 1,
    }
}

/// Picks the cheapest correct shipment for a market task: a delta
/// against the shard's held book when strictly fewer bids travel than a
/// full shipment would carry, full otherwise (kind mismatch or churn
/// that makes the delta pointless).
fn market_ship(old: Option<&MirrorTask>, bids: &[RackBid], ups_spot: Watts) -> TaskShip {
    if let Some(MirrorTask::Market { bids: held, .. }) = old {
        let truncate_to = bids.len().min(held.len());
        let mut changed = Vec::new();
        for pos in 0..truncate_to {
            if !same_bid(&held[pos], &bids[pos]) {
                changed.push((pos as u64, bids[pos].clone()));
            }
        }
        let appended = &bids[truncate_to..];
        let removed = held.len().saturating_sub(bids.len());
        if changed.len() + appended.len() + removed < bids.len() {
            return TaskShip::MarketDelta {
                ups_spot,
                truncate_to: truncate_to as u64,
                changed,
                appended: appended.to_vec(),
            };
        }
    }
    TaskShip::MarketFull {
        ups_spot,
        bids: bids.to_vec(),
    }
}

/// Like [`market_ship`] for MaxPerf tasks: gains unchanged → only the
/// share travels; anything else → full shipment.
fn maxperf_ship(
    old: Option<&MirrorTask>,
    gains: &BTreeMap<RackId, ConcaveGain>,
    ups_spot: Watts,
) -> TaskShip {
    if let Some(MirrorTask::MaxPerf { gains: held, .. }) = old {
        if same_gains(held, gains) {
            return TaskShip::MaxPerfDelta { ups_spot };
        }
    }
    TaskShip::MaxPerfFull {
        ups_spot,
        gains: gains.clone(),
    }
}

// Bitwise equality for everything diffed against the mirror. `f64` bits
// (never `PartialEq`): `-0.0 != 0.0` here, exactly as on the wire, so a
// "same" verdict always means the shard-held bytes already match.
fn bits(v: f64) -> u64 {
    v.to_bits()
}

fn same_bid(a: &RackBid, b: &RackBid) -> bool {
    a.rack() == b.rack() && same_demand(a.demand(), b.demand())
}

fn same_demand(a: &DemandBid, b: &DemandBid) -> bool {
    match (a, b) {
        (DemandBid::Linear(x), DemandBid::Linear(y)) => {
            bits(x.d_max().value()) == bits(y.d_max().value())
                && bits(x.q_min().per_kw_hour_value()) == bits(y.q_min().per_kw_hour_value())
                && bits(x.d_min().value()) == bits(y.d_min().value())
                && bits(x.q_max().per_kw_hour_value()) == bits(y.q_max().per_kw_hour_value())
        }
        (DemandBid::Step(x), DemandBid::Step(y)) => {
            bits(x.demand().value()) == bits(y.demand().value())
                && bits(x.price_cap().per_kw_hour_value())
                    == bits(y.price_cap().per_kw_hour_value())
        }
        (DemandBid::Full(x), DemandBid::Full(y)) => {
            x.points().len() == y.points().len()
                && x.points().iter().zip(y.points()).all(|(p, q)| {
                    bits(p.0.per_kw_hour_value()) == bits(q.0.per_kw_hour_value())
                        && bits(p.1.value()) == bits(q.1.value())
                })
        }
        _ => false,
    }
}

fn same_gains(a: &BTreeMap<RackId, ConcaveGain>, b: &BTreeMap<RackId, ConcaveGain>) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|((ra, ga), (rb, gb))| {
            ra == rb
                && ga.segments().len() == gb.segments().len()
                && ga
                    .segments()
                    .iter()
                    .zip(gb.segments())
                    .all(|(x, y)| bits(x.0) == bits(y.0) && bits(x.1) == bits(y.1))
        })
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
    fn tasks() -> Vec<SessionTask> {
        vec![
            SessionTask::Market {
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
            SessionTask::Market {
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
        let want: Vec<ClearResult> = tasks()
            .iter()
            .map(|t| {
                let SessionTask::Market { bids, ups_spot } = t else {
                    unreachable!()
                };
                let local = shared.clone().with_ups_spot(*ups_spot);
                ClearResult::Market(direct.clear(slot, bids, &local))
            })
            .collect();
        for width in [1, 2, 3] {
            let mut runtime =
                ShardRuntime::new(width, TransportKind::InProc, ClearingConfig::default()).unwrap();
            assert_eq!(runtime.shard_count(), width);
            assert_eq!(runtime.live_shards(), width);
            let got: Vec<ClearResult> = runtime
                .clear_session(slot, &shared, tasks())
                .into_iter()
                .map(|r| r.expect("healthy shards answer every task"))
                .collect();
            assert_eq!(got, want, "width {width}");
        }
    }

    #[test]
    fn session_clearing_matches_direct_clearing_over_warm_slots() {
        // Per-PDU sub-markets, cleared as a session across several
        // slots with varying bids and capacities, must match the serial
        // engine bit for bit at every width — the resync (slot 0) and
        // delta (later slots) paths produce identical merges.
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
                // still, so warm slots genuinely exercise deltas.
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
                let want: Vec<ClearResult> = shares
                    .iter()
                    .map(|(group, share)| {
                        ClearResult::Market(direct.clear(
                            slot,
                            group,
                            &constraints.clone().with_ups_spot(*share),
                        ))
                    })
                    .collect();
                let session_tasks: Vec<SessionTask> = shares
                    .into_iter()
                    .map(|(group, share)| SessionTask::Market {
                        bids: group,
                        ups_spot: share,
                    })
                    .collect();
                let got: Vec<ClearResult> = runtime
                    .clear_session(slot, &constraints, session_tasks)
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
                .clear_session(Slot::new(s), &constraints(), Vec::new())
                .is_empty());
        }
        assert_eq!(runtime.live_shards(), 2);
    }
}
