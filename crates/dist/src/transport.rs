//! The one transport: an ordered byte stream to a shard agent running
//! [`serve`], on a thread over a pipe pair or in a `spotdc-agent` child
//! over its stdin/stdout. Which one changes where the bytes go, never
//! what they are or which loop answers them.

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;

use spotdc_core::{frame, WireMsg};

use crate::{serve, TransportKind};

/// The controller's end of one shard agent's stream. Any [`io::Error`]
/// is terminal for the shard: the controller marks it dead and
/// respawns it at the next dispatch.
pub(crate) struct Transport {
    to_agent: BufWriter<Box<dyn Write + Send>>,
    from_agent: BufReader<Box<dyn Read + Send>>,
    owner: Owner,
    /// Recycled encode scratch, reused across slots.
    payload: Vec<u8>,
    /// Recycled unframe scratch for received replies.
    recv_buf: Vec<u8>,
}

/// What runs the agent: reaped when the transport drops.
enum Owner {
    Thread(Option<JoinHandle<io::Result<()>>>),
    Process(Child),
}

impl Transport {
    /// Starts one agent. In-process, a thread runs [`serve`] on two
    /// pipes, with the current telemetry run tag (if any) re-applied
    /// inside it so shard-side events stay attributable. As a
    /// subprocess, `binary` is spawned with piped stdin/stdout (stderr
    /// is inherited so agent diagnostics surface).
    pub(crate) fn spawn(kind: TransportKind, binary: Option<&Path>) -> io::Result<Self> {
        let (to_agent, from_agent, owner): (Box<dyn Write + Send>, Box<dyn Read + Send>, _) =
            match kind {
                TransportKind::InProc => {
                    let (agent_in, to_agent) = io::pipe()?;
                    let (from_agent, agent_out) = io::pipe()?;
                    let run = spotdc_telemetry::current_run();
                    let thread = std::thread::Builder::new()
                        .name("spotdc-shard".to_owned())
                        .spawn(move || {
                            let _scope = run.as_deref().map(spotdc_telemetry::run_scope);
                            serve(agent_in, agent_out)
                        })?;
                    (
                        Box::new(to_agent),
                        Box::new(from_agent),
                        Owner::Thread(Some(thread)),
                    )
                }
                TransportKind::Subprocess => {
                    let binary = binary.ok_or_else(|| {
                        io::Error::new(io::ErrorKind::NotFound, "no agent binary resolved")
                    })?;
                    let mut child = Command::new(binary)
                        .stdin(Stdio::piped())
                        .stdout(Stdio::piped())
                        .spawn()?;
                    let stdin = child.stdin.take().expect("piped stdin");
                    let stdout = child.stdout.take().expect("piped stdout");
                    (Box::new(stdin), Box::new(stdout), Owner::Process(child))
                }
            };
        Ok(Transport {
            to_agent: BufWriter::new(to_agent),
            from_agent: BufReader::new(from_agent),
            owner,
            payload: Vec::new(),
            recv_buf: Vec::new(),
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

    /// The OS pid of the agent, if it is a separate process.
    pub(crate) fn pid(&self) -> Option<u32> {
        match &self.owner {
            Owner::Thread(_) => None,
            Owner::Process(child) => Some(child.id()),
        }
    }
}

impl Drop for Transport {
    fn drop(&mut self) {
        // Best effort: a clean Shutdown if the agent is still serving; a
        // dead one just makes the write fail.
        let _ = frame::write_frame(&mut self.to_agent, &WireMsg::Shutdown.encode());
        let _ = self.to_agent.flush();
        // Close both ends before reaping, so an agent blocked writing a
        // reply nobody will read fails instead of hanging the join.
        self.to_agent = BufWriter::new(Box::new(io::sink()));
        self.from_agent = BufReader::new(Box::new(io::empty()));
        match &mut self.owner {
            Owner::Thread(thread) => {
                if let Some(thread) = thread.take() {
                    let _ = thread.join();
                }
            }
            Owner::Process(child) => {
                let _ = child.wait();
            }
        }
    }
}

impl std::fmt::Debug for Transport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Transport")
            .field("pid", &self.pid())
            .finish_non_exhaustive()
    }
}

/// Locates the `spotdc-agent` executable: the `SPOTDC_AGENT_BIN`
/// environment variable if set, otherwise a sibling of the current
/// executable (covering `target/<profile>/` for binaries and
/// `target/<profile>/deps/` for test harnesses).
#[must_use]
pub fn agent_binary() -> Option<PathBuf> {
    if let Some(path) = std::env::var_os("SPOTDC_AGENT_BIN") {
        let path = PathBuf::from(path);
        return path.is_file().then_some(path);
    }
    let exe = std::env::current_exe().ok()?;
    let name = format!("spotdc-agent{}", std::env::consts::EXE_SUFFIX);
    let mut dir = exe.parent();
    for _ in 0..2 {
        let d = dir?;
        let candidate = d.join(&name);
        if candidate.is_file() {
            return Some(candidate);
        }
        dir = d.parent();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotdc_core::{ClearingConfig, ConstraintSet, RackBid, StepBid, TaskShip};
    use spotdc_power::topology::TopologyBuilder;
    use spotdc_units::{Price, RackId, Slot, TenantId, Watts};

    #[test]
    fn inproc_transport_round_trips_a_slot() {
        let mut t = Transport::spawn(TransportKind::InProc, None).unwrap();
        t.send(&WireMsg::AssignShard {
            clearing: ClearingConfig::default(),
        })
        .unwrap();
        assert_eq!(t.pid(), None);
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
        let t = Transport::spawn(TransportKind::InProc, None).unwrap();
        drop(t); // must not hang or panic
    }

    #[test]
    fn dropping_with_a_reply_unread_does_not_hang() {
        // A reply far larger than a pipe holds: the agent blocks writing
        // it until the transport closes its end.
        let mut t = Transport::spawn(TransportKind::InProc, None).unwrap();
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
