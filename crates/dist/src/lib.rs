//! The controller/agent shard split for the SpotDC market.
//!
//! Distributed mode runs the clearing plane inside *shard agents*, each
//! owning a disjoint set of PDU sub-markets, while the controller (the
//! simulation pipeline) keeps everything stateful at the market level:
//! bid collection, UPS-level constraint construction, the serial
//! in-order merge, settlement and reporting. Below the market level a
//! clear is a pure function of one slot's bids and constraints, so the
//! wire protocol ([`spotdc_core::wire`]) holds no session: the whole
//! slot travels as one self-contained [`WireMsg::SlotFrame`] per shard
//! per direction — the slot's constraint set plus the shard's market
//! tasks down, the outcomes up — and an agent answers each frame from
//! that frame alone. Because the merge is in shard order and a shard
//! clears against exactly the controller's constraint set, reports stay
//! byte-identical across shard counts — the same discipline the
//! golden-report guard enforces for every other axis of the system. Only market modes distribute: MaxPerf's water-filling is
//! one indivisible task and runs in-process.
//!
//! Every agent is a thread in the controller's process running one
//! loop over a pipe pair: length-prefixed, CRC-framed payloads
//! (`spotdc-durable`'s frame codec, re-exported as
//! [`spotdc_core::frame`]). The full encode→frame→decode path runs every
//! slot, so the bytes are the ones any other link would carry.
//!
//! Failure semantics follow the paper's comms-loss rule: a dead agent
//! or damaged frame degrades that shard's sub-markets to "no spot
//! capacity" at the controller ([`ShardRuntime::clear_tasks`] returns
//! `None` for its tasks) for the slots it is down; at the next dispatch
//! the controller respawns it (bounded budget) and re-sends the
//! `AssignShard` handshake, and each death is logged as one `ShardDown`
//! event naming what the controller saw. The market never invents
//! capacity and never crashes. See DESIGN.md §15 for the topology and
//! the protocol.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod controller;
mod shard;
mod transport;

#[cfg(doc)]
use spotdc_core::WireMsg;

pub use controller::{wire_totals, ShardRuntime, WireStats};
pub use shard::AgentLoop;

/// Where shard agents run: always threads in the controller's process,
/// exchanging frames over a pipe pair. Nothing in the workspace reads
/// it; `benchmark/` names `InProc` through
/// `EngineConfig::shard_transport`, which pins the type until ROADMAP
/// 16(c) retires the sharded workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// Shard agents as dedicated threads in the controller process.
    InProc,
}
