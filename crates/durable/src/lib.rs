//! Crash-consistent persistence primitives for SpotDC.
//!
//! The market engine must be able to die at an arbitrary instruction
//! and come back with byte-identical behaviour: the operator sells
//! *firm* spot allocations against physical power constraints, so a
//! recovered run has to reproduce the same prices, grants and
//! settlement it would have produced uninterrupted. This crate supplies
//! the mechanism layer that makes that possible; the policy (what state
//! goes in a checkpoint, how logged slots replay) lives in
//! `spotdc-sim`'s durability module.
//!
//! Four building blocks, each honest about partial writes:
//!
//! * [`codec`] — a hand-rolled binary encoder/decoder pair (the build
//!   environment has no serde runtime). Floats travel as their exact
//!   IEEE-754 bit patterns, so `decode(encode(x)) == x` bit for bit —
//!   the property the byte-identical recovery guarantee rests on.
//! * [`frame`] — length-prefixed, CRC-32-checked record framing with a
//!   three-way read verdict: a record is *complete*, the tail is *torn*
//!   (a partial write cut short by a crash), or the tail is *corrupt*
//!   (bits changed under a valid length). Torn and corrupt tails are
//!   both truncated on recovery, but they are reported distinctly
//!   because a torn tail is expected operation while corruption means
//!   the storage lied. The CRC runs slice-by-16 (sixteen const-built
//!   tables, safe Rust), since every checkpoint, log frame and shard
//!   frame pays it per byte.
//! * [`atomic`] — the fsync-then-rename protocol: a replacement file is
//!   written to a temp path, fsynced, renamed over the target, and the
//!   directory fsynced, so readers see either the old bytes or the new
//!   bytes and never a prefix.
//! * [`wal`] / [`snapshot`] — append-only logs of frames (append +
//!   flush per record, only ever cut back to the frame a recovery
//!   resumes from, read back as slices of one buffer) and checkpoint
//!   files (atomic, self-validating, the two most recent retained).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atomic;
pub mod codec;
pub mod frame;
pub mod snapshot;
pub mod wal;

pub use atomic::write_atomic;
pub use codec::{DecodeError, Decoder, Encoder, Persist};
pub use frame::{crc32, Tail};
pub use snapshot::{clear_dir, load_latest, load_latest_at_most, write_checkpoint, LoadedSnapshot};
pub use wal::{read_wal, WalContents, WalWriter};
