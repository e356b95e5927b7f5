//! Checkpoint files: atomic, self-validating snapshots of engine state.
//!
//! A checkpoint file is `SDCCKP01 | one framed record` (the frame from
//! [`crate::frame`] carries the CRC), written via
//! [`crate::atomic::write_atomic`] so a crash mid-write leaves either
//! the previous checkpoint or none — never a partial file under the
//! final name. Files are named `ckpt-NNNNNNNNNN.bin` by the number of
//! completed slots they capture, and the two most recent are retained
//! so a checkpoint that turns out damaged (storage corruption) still
//! leaves a fallback.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::atomic::write_atomic;
use crate::frame::{self, Tail};

/// Magic prefix identifying a SpotDC checkpoint file (versioned).
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"SDCCKP01";

/// How many checkpoint files to keep on disk.
const RETAIN: usize = 2;

/// A checkpoint read back from disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadedSnapshot {
    /// Number of slots fully simulated when the checkpoint was cut.
    pub slots_done: u64,
    /// The policy-layer payload (an encoded `EngineSnapshot`).
    pub payload: Vec<u8>,
    /// The file it came from.
    pub path: PathBuf,
}

fn checkpoint_path(dir: &Path, slots_done: u64) -> PathBuf {
    dir.join(format!("ckpt-{slots_done:010}.bin"))
}

fn list_checkpoints(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut found = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(digits) = name
            .strip_prefix("ckpt-")
            .and_then(|s| s.strip_suffix(".bin"))
        else {
            continue;
        };
        let Ok(slots) = digits.parse::<u64>() else {
            continue;
        };
        found.push((slots, entry.path()));
    }
    found.sort_unstable_by_key(|(slots, _)| *slots);
    Ok(found)
}

/// Atomically writes a checkpoint capturing `slots_done` completed
/// slots, then prunes all but the newest [`RETAIN`] checkpoint files.
///
/// Returns the number of bytes in the finished file.
///
/// # Errors
///
/// Returns any I/O error from the atomic write. Pruning failures are
/// ignored — stale files cost disk, not correctness.
pub fn write_checkpoint(dir: &Path, slots_done: u64, payload: &[u8]) -> io::Result<u64> {
    // Magic, frame header and payload go to the file as they are: no
    // framed copy of a megabytes-long payload.
    write_atomic(&checkpoint_path(dir, slots_done), |f| {
        f.write_all(SNAPSHOT_MAGIC)?;
        frame::write_frame(f, payload)
    })?;
    if let Ok(all) = list_checkpoints(dir) {
        for (_, stale) in all.iter().rev().skip(RETAIN) {
            let _ = fs::remove_file(stale);
        }
    }
    Ok((SNAPSHOT_MAGIC.len() + frame::HEADER_LEN + payload.len()) as u64)
}

/// Loads the newest valid checkpoint under `dir`, skipping files that
/// are missing the magic, torn, or CRC-corrupt.
///
/// Returns `Ok(None)` when the directory is absent or holds no valid
/// checkpoint — the caller starts cold from slot 0.
///
/// # Errors
///
/// Returns any I/O error from listing the directory; unreadable or
/// invalid individual files are skipped, not fatal.
pub fn load_latest(dir: &Path) -> io::Result<Option<LoadedSnapshot>> {
    load_latest_at_most(dir, u64::MAX)
}

/// [`load_latest`] among the checkpoints that capture at most
/// `max_slots` completed slots: a newer one counts as missing. Recovery
/// passes the frames its record log holds, so it never loads a snapshot
/// whose records it cannot back.
///
/// # Errors
///
/// As [`load_latest`].
pub fn load_latest_at_most(dir: &Path, max_slots: u64) -> io::Result<Option<LoadedSnapshot>> {
    let all = match list_checkpoints(dir) {
        Ok(all) => all,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    for (slots_done, path) in all.into_iter().rev() {
        if slots_done > max_slots {
            continue;
        }
        let Ok(bytes) = fs::read(&path) else { continue };
        if bytes.len() < SNAPSHOT_MAGIC.len() || &bytes[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
            continue;
        }
        let (records, tail) = frame::split_frames(&bytes[SNAPSHOT_MAGIC.len()..]);
        if tail != Tail::Clean || records.len() != 1 {
            continue;
        }
        return Ok(Some(LoadedSnapshot {
            slots_done,
            payload: records[0].to_vec(),
            path,
        }));
    }
    Ok(None)
}

/// Removes all checkpoint and `.wal` log files under `dir`, for a fresh
/// (non-resuming) run over a previously used directory.
///
/// # Errors
///
/// Returns any I/O error from listing the directory or removing a file.
pub fn clear_dir(dir: &Path) -> io::Result<()> {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let is_ours = (name.starts_with("ckpt-") && name.ends_with(".bin"))
            || name.ends_with(".wal")
            || (name.starts_with('.') && name.ends_with(".tmp"));
        if is_ours {
            fs::remove_file(entry.path())?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("spotdc-durable-snap-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn latest_valid_checkpoint_wins() {
        let dir = temp_dir("latest");
        write_checkpoint(&dir, 50, b"at-50").unwrap();
        write_checkpoint(&dir, 100, b"at-100").unwrap();
        let loaded = load_latest(&dir).unwrap().unwrap();
        assert_eq!(loaded.slots_done, 100);
        assert_eq!(loaded.payload, b"at-100");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_bytes_are_the_magic_then_one_frame() {
        let dir = temp_dir("bytes");
        let payload: Vec<u8> = (0..=255u8).cycle().take(70_000).collect();
        let written = write_checkpoint(&dir, 7, &payload).unwrap();
        let mut framed = SNAPSHOT_MAGIC.to_vec();
        frame::append_frame(&mut framed, &payload);
        assert_eq!(fs::read(checkpoint_path(&dir, 7)).unwrap(), framed);
        assert_eq!(written, framed.len() as u64);
        let loaded = load_latest(&dir).unwrap().unwrap();
        assert_eq!((loaded.slots_done, loaded.payload), (7, payload));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn only_two_newest_are_retained() {
        let dir = temp_dir("retain");
        for slots in [50, 100, 150, 200] {
            write_checkpoint(&dir, slots, b"x").unwrap();
        }
        let names = list_checkpoints(&dir).unwrap();
        let slots: Vec<u64> = names.iter().map(|(s, _)| *s).collect();
        assert_eq!(slots, vec![150, 200]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_newest_falls_back_to_predecessor() {
        let dir = temp_dir("fallback");
        write_checkpoint(&dir, 50, b"good-old").unwrap();
        write_checkpoint(&dir, 100, b"doomed").unwrap();
        let newest = checkpoint_path(&dir, 100);
        let mut bytes = fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&newest, &bytes).unwrap();
        let loaded = load_latest(&dir).unwrap().unwrap();
        assert_eq!(loaded.slots_done, 50);
        assert_eq!(loaded.payload, b"good-old");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_bound_skips_newer_checkpoints() {
        let dir = temp_dir("bound");
        write_checkpoint(&dir, 50, b"at-50").unwrap();
        write_checkpoint(&dir, 100, b"at-100").unwrap();
        let loaded = load_latest_at_most(&dir, 99).unwrap().unwrap();
        assert_eq!((loaded.slots_done, loaded.payload), (50, b"at-50".to_vec()));
        assert_eq!(
            load_latest_at_most(&dir, 100).unwrap().unwrap().slots_done,
            100
        );
        assert_eq!(load_latest_at_most(&dir, 49).unwrap(), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_or_absent_dir_loads_none() {
        let dir = temp_dir("empty");
        assert_eq!(load_latest(&dir).unwrap(), None);
        let gone = dir.join("never-created");
        assert_eq!(load_latest(&gone).unwrap(), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn clear_dir_removes_only_durability_files() {
        let dir = temp_dir("clear");
        write_checkpoint(&dir, 50, b"x").unwrap();
        fs::write(dir.join("journal.wal"), b"w").unwrap();
        fs::write(dir.join("keep.txt"), b"k").unwrap();
        clear_dir(&dir).unwrap();
        let names: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(names, vec!["keep.txt".to_string()]);
        let _ = fs::remove_dir_all(&dir);
    }
}
