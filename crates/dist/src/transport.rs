//! The one transport: an ordered byte stream over a pipe pair to a
//! shard agent thread running [`serve`].

use std::io::{self, BufReader, BufWriter, PipeReader, PipeWriter, Write};
use std::thread::JoinHandle;

use spotdc_core::{frame, WireMsg};

use crate::shard::serve;

/// The controller's end of one shard agent's stream. Any [`io::Error`]
/// is terminal for the shard: the controller marks it dead and
/// respawns it at the next dispatch.
#[derive(Debug)]
pub(crate) struct Transport {
    to_agent: BufWriter<PipeWriter>,
    from_agent: BufReader<PipeReader>,
    /// Recycled encode scratch, reused across slots.
    payload: Vec<u8>,
    /// Recycled unframe scratch for received replies.
    recv_buf: Vec<u8>,
    /// Never read, only dropped. Declared last, so it drops last:
    /// fields drop in order, and both pipe ends must be closed before
    /// the agent thread is joined.
    _agent: AgentThread,
}

/// The agent thread, joined when the transport drops.
#[derive(Debug)]
struct AgentThread(Option<JoinHandle<io::Result<()>>>);

impl Transport {
    /// Starts one agent: a thread running [`serve`] on two pipes, with
    /// the current telemetry run tag (if any) re-applied inside it so
    /// shard-side events stay attributable.
    pub(crate) fn spawn() -> io::Result<Self> {
        let (agent_in, to_agent) = io::pipe()?;
        let (from_agent, agent_out) = io::pipe()?;
        let run = spotdc_telemetry::current_run();
        let thread = std::thread::Builder::new()
            .name("spotdc-shard".to_owned())
            .spawn(move || {
                let _scope = run.as_deref().map(spotdc_telemetry::run_scope);
                serve(agent_in, agent_out)
            })?;
        Ok(Transport {
            to_agent: BufWriter::new(to_agent),
            from_agent: BufReader::new(from_agent),
            payload: Vec::new(),
            recv_buf: Vec::new(),
            _agent: AgentThread(Some(thread)),
        })
    }

    /// Frames and sends one message, returning the bytes put on the
    /// wire (payload plus the 8-byte frame header).
    pub(crate) fn send(&mut self, msg: &WireMsg) -> io::Result<u64> {
        self.payload = msg.encode_into(std::mem::take(&mut self.payload));
        frame::write_frame(&mut self.to_agent, &self.payload)?;
        self.to_agent.flush()?;
        Ok((frame::HEADER_LEN + self.payload.len()) as u64)
    }

    /// Receives the next message, blocking until one arrives. Returns
    /// the message and the bytes taken off the wire. A closed stream, a
    /// torn or corrupt frame, or a payload that does not decode is an
    /// error.
    pub(crate) fn recv(&mut self) -> io::Result<(WireMsg, u64)> {
        if !frame::read_frame_into(&mut self.from_agent, &mut self.recv_buf)? {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "shard agent closed its stream",
            ));
        }
        let msg = WireMsg::decode(&self.recv_buf)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        Ok((msg, (frame::HEADER_LEN + self.recv_buf.len()) as u64))
    }
}

impl Drop for Transport {
    fn drop(&mut self) {
        // Best effort: a clean Shutdown if the agent is still serving; a
        // dead one just makes the write fail. Both pipe ends close as
        // the fields drop, before `_agent` joins the thread, so an agent
        // blocked writing a reply nobody will read fails instead of
        // hanging the join.
        let _ = frame::write_frame(&mut self.to_agent, &WireMsg::Shutdown.encode());
        let _ = self.to_agent.flush();
    }
}

impl Drop for AgentThread {
    fn drop(&mut self) {
        if let Some(thread) = self.0.take() {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotdc_core::{ClearingConfig, ConstraintSet, RackBid, StepBid, TaskShip};
    use spotdc_power::topology::TopologyBuilder;
    use spotdc_units::{Price, RackId, Slot, TenantId, Watts};

    #[test]
    fn inproc_transport_round_trips_a_slot() {
        let mut t = Transport::spawn().unwrap();
        t.send(&WireMsg::AssignShard {
            clearing: ClearingConfig::default(),
        })
        .unwrap();
        let topo = TopologyBuilder::new(Watts::new(400.0))
            .pdu(Watts::new(200.0))
            .rack(TenantId::new(0), Watts::new(100.0), Watts::new(50.0))
            .build()
            .unwrap();
        let constraints = ConstraintSet::new(&topo, vec![Watts::new(60.0)], Watts::new(60.0));
        let sent = t
            .send(&WireMsg::SlotFrame {
                slot: Slot::new(9),
                constraints,
                tasks: Vec::new(),
            })
            .unwrap();
        assert!(sent > frame::HEADER_LEN as u64);
        let (reply, bytes) = t.recv().unwrap();
        assert!(bytes > frame::HEADER_LEN as u64);
        assert_eq!(
            reply,
            WireMsg::ShardCleared {
                slot: Slot::new(9),
                results: Vec::new(),
                cache: spotdc_core::ClearingCacheStats::default(),
            }
        );
    }

    #[test]
    fn dropping_the_transport_joins_the_agent_thread() {
        let t = Transport::spawn().unwrap();
        drop(t); // must not hang or panic
    }

    #[test]
    fn dropping_with_a_reply_unread_does_not_hang() {
        // A reply far larger than a pipe holds: the agent blocks writing
        // it until the transport closes its end.
        let mut t = Transport::spawn().unwrap();
        t.send(&WireMsg::AssignShard {
            clearing: ClearingConfig::default(),
        })
        .unwrap();
        let topo = TopologyBuilder::new(Watts::new(400.0))
            .pdu(Watts::new(200.0))
            .rack(TenantId::new(0), Watts::new(100.0), Watts::new(50.0))
            .build()
            .unwrap();
        let bid = RackBid::new(
            RackId::new(0),
            StepBid::new(Watts::new(25.0), Price::per_kw_hour(0.2))
                .unwrap()
                .into(),
        );
        let tasks = (0..5_000)
            .map(|_| TaskShip {
                ups_spot: Watts::new(50.0),
                bids: vec![bid.clone()],
            })
            .collect();
        t.send(&WireMsg::SlotFrame {
            slot: Slot::new(1),
            constraints: ConstraintSet::new(&topo, vec![Watts::new(60.0)], Watts::new(60.0)),
            tasks,
        })
        .unwrap();
        drop(t);
    }
}
