//! The two transports behind [`ShardTransport`]: an in-process thread
//! and a `spotdc-agent` subprocess, both carrying the same framed bytes.

use std::io::{self, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread::JoinHandle;

use spotdc_core::{frame, WireMsg};

use crate::shard::AgentLoop;

/// A bidirectional, ordered message channel between the controller and
/// one shard agent.
///
/// Both implementations move the *same bytes*: messages are encoded and
/// wrapped in the shared length-prefix + CRC-32 frame on send, and
/// unframed + decoded on receive, even in-process. Byte counts returned
/// by [`send`](ShardTransport::send)/[`recv`](ShardTransport::recv)
/// feed `ShardRpc` telemetry.
///
/// Any [`io::Error`] is terminal for the shard: the controller marks it
/// dead and degrades its sub-markets for the rest of the run.
pub trait ShardTransport: Send + std::fmt::Debug {
    /// Frames and sends one message, returning the bytes put on the
    /// wire (payload plus the 8-byte frame header).
    ///
    /// # Errors
    ///
    /// Any transport failure (dead thread, closed pipe).
    fn send(&mut self, msg: &WireMsg) -> io::Result<u64>;

    /// Receives the next message, blocking until one arrives. Returns
    /// the message and the bytes taken off the wire.
    ///
    /// # Errors
    ///
    /// Any transport failure, a torn or corrupt frame, or a payload
    /// that does not decode to a [`WireMsg`].
    fn recv(&mut self) -> io::Result<(WireMsg, u64)>;

    /// The OS pid behind this transport, if it is a separate process.
    fn pid(&self) -> Option<u32> {
        None
    }
}

fn framed(msg: &WireMsg) -> io::Result<Vec<u8>> {
    let mut buf = Vec::new();
    frame::write_frame(&mut buf, &msg.encode())?;
    Ok(buf)
}

fn decode_frame(payload: &[u8]) -> io::Result<WireMsg> {
    WireMsg::decode(payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// A shard agent as a dedicated thread in the controller's process.
///
/// The thread runs the same [`AgentLoop`] as the subprocess binary and
/// the channels carry fully framed byte buffers, so switching
/// transports changes *where* the bytes go, never what they are.
#[derive(Debug)]
pub struct InProcTransport {
    to_agent: Sender<Vec<u8>>,
    from_agent: Receiver<Vec<u8>>,
    thread: Option<JoinHandle<()>>,
    /// Recycled encode scratch: the framed buffer itself must be a
    /// fresh allocation (it is moved into the channel), but the payload
    /// encoding reuses this one across slots.
    payload_buf: Vec<u8>,
    /// Recycled unframe scratch for received replies.
    recv_buf: Vec<u8>,
}

impl InProcTransport {
    /// Spawns the agent thread. The current telemetry run tag (if any)
    /// is re-applied inside the thread so shard-side events stay
    /// attributable.
    #[must_use]
    pub fn spawn() -> Self {
        let (to_agent, agent_rx) = mpsc::channel::<Vec<u8>>();
        let (agent_tx, from_agent) = mpsc::channel::<Vec<u8>>();
        let run = spotdc_telemetry::current_run();
        let thread = std::thread::Builder::new()
            .name("spotdc-shard".to_owned())
            .spawn(move || {
                let _scope = run.as_deref().map(spotdc_telemetry::run_scope);
                let mut agent = AgentLoop::new();
                let mut payload = Vec::new();
                let mut reply_buf = Vec::new();
                while let Ok(bytes) = agent_rx.recv() {
                    match frame::read_frame_into(&mut bytes.as_slice(), &mut payload) {
                        Ok(true) => {}
                        _ => break,
                    }
                    let Ok(msg) = WireMsg::decode(&payload) else {
                        break;
                    };
                    if matches!(msg, WireMsg::Shutdown) {
                        break;
                    }
                    // A protocol error closes the stream, like a damaged
                    // frame: the controller sees a dead shard.
                    let Ok(reply) = agent.handle(msg) else {
                        break;
                    };
                    if let Some(reply) = reply {
                        reply_buf = reply.encode_into(reply_buf);
                        let mut framed = Vec::with_capacity(frame::HEADER_LEN + reply_buf.len());
                        if frame::write_frame(&mut framed, &reply_buf).is_err() {
                            break;
                        }
                        if agent_tx.send(framed).is_err() {
                            break;
                        }
                    }
                }
            })
            .expect("spawn in-process shard agent thread");
        InProcTransport {
            to_agent,
            from_agent,
            thread: Some(thread),
            payload_buf: Vec::new(),
            recv_buf: Vec::new(),
        }
    }
}

impl ShardTransport for InProcTransport {
    fn send(&mut self, msg: &WireMsg) -> io::Result<u64> {
        let payload = msg.encode_into(std::mem::take(&mut self.payload_buf));
        let mut bytes = Vec::with_capacity(frame::HEADER_LEN + payload.len());
        frame::write_frame(&mut bytes, &payload)?;
        self.payload_buf = payload;
        let n = bytes.len() as u64;
        self.to_agent.send(bytes).map_err(|_| {
            io::Error::new(io::ErrorKind::BrokenPipe, "shard agent thread has exited")
        })?;
        Ok(n)
    }

    fn recv(&mut self) -> io::Result<(WireMsg, u64)> {
        let bytes = self.from_agent.recv().map_err(|_| {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "shard agent thread has exited",
            )
        })?;
        let n = bytes.len() as u64;
        if !frame::read_frame_into(&mut bytes.as_slice(), &mut self.recv_buf)? {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "empty frame from shard agent",
            ));
        }
        Ok((decode_frame(&self.recv_buf)?, n))
    }
}

impl Drop for InProcTransport {
    fn drop(&mut self) {
        // Best effort: a clean Shutdown if the thread is still serving,
        // otherwise the dropped Sender disconnects the loop anyway.
        if let Ok(bytes) = framed(&WireMsg::Shutdown) {
            let _ = self.to_agent.send(bytes);
        }
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// A shard agent as a `spotdc-agent` child process, frames over
/// stdin/stdout pipes.
#[derive(Debug)]
pub struct SubprocessTransport {
    child: Child,
    stdin: Option<BufWriter<ChildStdin>>,
    stdout: BufReader<ChildStdout>,
    /// Recycled encode scratch, reused across slots.
    payload_buf: Vec<u8>,
    /// Recycled framed-bytes scratch: the whole frame is assembled here
    /// and written to the pipe with a single `write_all`, so even an
    /// unbuffered pipe sees one write per message.
    frame_buf: Vec<u8>,
    /// Recycled unframe scratch for received replies.
    recv_buf: Vec<u8>,
}

impl SubprocessTransport {
    /// Spawns the agent executable at `binary` with piped stdin/stdout
    /// (stderr is inherited so agent diagnostics surface).
    ///
    /// # Errors
    ///
    /// Whatever [`Command::spawn`] reports (missing binary, exhausted
    /// process table, ...).
    pub fn spawn(binary: &Path) -> io::Result<Self> {
        let mut child = Command::new(binary)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        Ok(SubprocessTransport {
            child,
            stdin: Some(BufWriter::new(stdin)),
            stdout: BufReader::new(stdout),
            payload_buf: Vec::new(),
            frame_buf: Vec::new(),
            recv_buf: Vec::new(),
        })
    }
}

impl ShardTransport for SubprocessTransport {
    fn send(&mut self, msg: &WireMsg) -> io::Result<u64> {
        let stdin = self.stdin.as_mut().ok_or_else(|| {
            io::Error::new(io::ErrorKind::BrokenPipe, "agent stdin already closed")
        })?;
        let payload = msg.encode_into(std::mem::take(&mut self.payload_buf));
        self.frame_buf.clear();
        frame::write_frame(&mut self.frame_buf, &payload)?;
        self.payload_buf = payload;
        stdin.write_all(&self.frame_buf)?;
        stdin.flush()?;
        Ok(self.frame_buf.len() as u64)
    }

    fn recv(&mut self) -> io::Result<(WireMsg, u64)> {
        if !frame::read_frame_into(&mut self.stdout, &mut self.recv_buf)? {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "agent process closed its stdout",
            ));
        }
        let n = (frame::HEADER_LEN + self.recv_buf.len()) as u64;
        Ok((decode_frame(&self.recv_buf)?, n))
    }

    fn pid(&self) -> Option<u32> {
        Some(self.child.id())
    }
}

impl Drop for SubprocessTransport {
    fn drop(&mut self) {
        // Best-effort clean shutdown; closing stdin unblocks an agent
        // mid-read, and a SIGKILLed child just makes these writes fail.
        if let Some(mut stdin) = self.stdin.take() {
            let _ = frame::write_frame(&mut stdin, &WireMsg::Shutdown.encode());
            let _ = stdin.flush();
        }
        let _ = self.child.wait();
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
    use spotdc_core::{ClearingConfig, ConstraintSet};
    use spotdc_power::topology::TopologyBuilder;
    use spotdc_units::{Slot, TenantId, Watts};

    #[test]
    fn inproc_transport_round_trips_a_slot() {
        let mut t = InProcTransport::spawn();
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
        let t = InProcTransport::spawn();
        drop(t); // must not hang or panic
    }
}
