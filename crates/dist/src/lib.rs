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
//! byte-identical across shard counts and transports — the same
//! discipline the golden-report guard enforces for every other axis of
//! the system. Only market modes distribute: MaxPerf's water-filling is
//! one indivisible task and runs in-process.
//!
//! Every agent runs one loop, [`serve`], over an ordered byte stream of
//! length-prefixed, CRC-framed payloads (`spotdc-durable`'s frame codec,
//! re-exported as [`spotdc_core::frame`]). [`TransportKind`] only picks
//! where that loop runs: on a thread in the controller's process over a
//! pipe pair, or in a `spotdc-agent` child process over its
//! stdin/stdout. Either way the full encode→frame→decode path runs, so
//! both carry identical bytes.
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
pub use shard::{serve, AgentLoop};
pub use transport::agent_binary;

/// Which transport carries the wire protocol between the controller and
/// its shard agents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// Shard agents as dedicated threads in the controller process,
    /// exchanging frames over a pipe pair.
    #[default]
    InProc,
    /// Shard agents as `spotdc-agent` child processes, exchanging
    /// frames over stdin/stdout pipes.
    Subprocess,
}

impl TransportKind {
    /// Parses the CLI spelling (`inproc` or `subprocess`).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "inproc" => Some(TransportKind::InProc),
            "subprocess" => Some(TransportKind::Subprocess),
            _ => None,
        }
    }
}

impl std::fmt::Display for TransportKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TransportKind::InProc => "inproc",
            TransportKind::Subprocess => "subprocess",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transport_kind_parses_its_own_display() {
        for kind in [TransportKind::InProc, TransportKind::Subprocess] {
            assert_eq!(TransportKind::parse(&kind.to_string()), Some(kind));
        }
        assert_eq!(TransportKind::parse("tcp"), None);
        assert_eq!(TransportKind::default(), TransportKind::InProc);
    }
}
