//! The shard agent executable: one half of SpotDC's distributed mode.
//!
//! Speaks the framed wire protocol on stdin/stdout — length-prefixed,
//! CRC-32-checked payloads carrying [`spotdc_core::WireMsg`] — and
//! answers each slot frame from that frame alone: its tasks clear
//! against its constraint set on the one clearing engine the
//! `AssignShard` handshake built. All cross-slot market state —
//! balances, meters, emergencies — lives at the controller; losing this
//! process loses nothing a respawn's handshake does not restore.
//!
//! Exit status: 0 after a clean `Shutdown`, 1 on a damaged stream,
//! an undecodable payload, a slot frame before `AssignShard`, or end of
//! input without `Shutdown`.

use std::io::{self, Read, Write};
use std::process::ExitCode;

use spotdc_core::{frame, WireMsg};
use spotdc_dist::AgentLoop;

fn main() -> ExitCode {
    let mut stdin = io::stdin().lock();
    let mut stdout = io::stdout().lock();
    match serve(&mut stdin, &mut stdout) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("spotdc-agent: {err}");
            ExitCode::FAILURE
        }
    }
}

fn serve(input: &mut impl Read, output: &mut impl Write) -> io::Result<()> {
    let mut agent = AgentLoop::new();
    // One recycled buffer per direction: frames arrive and leave every
    // slot, and the reply is written to the pipe in a single write.
    let mut payload = Vec::new();
    let mut reply_payload = Vec::new();
    let mut reply_frame = Vec::new();
    loop {
        if !frame::read_frame_into(input, &mut payload)? {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "controller closed the stream without Shutdown",
            ));
        }
        let msg = WireMsg::decode(&payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        if matches!(msg, WireMsg::Shutdown) {
            return Ok(());
        }
        if let Some(reply) = agent.handle(msg)? {
            reply_payload = reply.encode_into(reply_payload);
            reply_frame.clear();
            frame::write_frame(&mut reply_frame, &reply_payload)?;
            output.write_all(&reply_frame)?;
            output.flush()?;
        }
    }
}
