//! The shard agent executable: [`spotdc_dist::serve`] on stdin/stdout.
//!
//! Speaks the framed wire protocol — length-prefixed, CRC-32-checked
//! payloads carrying [`spotdc_core::WireMsg`] — exactly like an
//! in-process agent thread, which runs the same loop over a pipe pair.
//! All cross-slot market state lives at the controller; losing this
//! process loses nothing a respawn's handshake does not restore.
//!
//! Exit status: 0 after a clean `Shutdown`, 1 on any error `serve`
//! returns (a damaged stream, an undecodable payload, a protocol error,
//! or end of input without `Shutdown`).

use std::io;
use std::process::ExitCode;

fn main() -> ExitCode {
    match spotdc_dist::serve(io::stdin().lock(), io::stdout().lock()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("spotdc-agent: {err}");
            ExitCode::FAILURE
        }
    }
}
