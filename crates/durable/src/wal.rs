//! Append-only logs of framed records.
//!
//! A log holds one frame per record, appended and flushed one at a time
//! and never rewritten: recovery reads it back in full with the
//! three-way tail verdict from [`crate::frame`], then reopens it with
//! [`WalWriter::open_truncated`] at the frame it resumes from and
//! appends after it.
//!
//! Durability policy: each append is `write_all` + `flush`, which moves
//! the bytes into the kernel; `sync` (fsync) is called only when a
//! checkpoint is cut. A SIGKILL cannot lose kernel-buffered writes —
//! only a power loss or kernel panic could — and recovery tolerates any
//! suffix of logged records going missing anyway, since replay
//! re-derives them deterministically.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::Path;

use crate::frame::{self, Tail};

/// Magic prefix identifying a SpotDC WAL file (versioned).
pub const WAL_MAGIC: &[u8; 8] = b"SDCWAL01";

/// An open log accepting framed appends.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
}

impl WalWriter {
    /// Creates (truncating any predecessor) a fresh log at `path` and
    /// writes the magic header.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating or writing the file.
    pub fn create(path: &Path) -> io::Result<Self> {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.write_all(WAL_MAGIC)?;
        file.flush()?;
        Ok(WalWriter { file })
    }

    /// Reopens the log at `path` for appending after its first `len`
    /// bytes, cutting off everything past them in place: the bytes kept
    /// are not rewritten. `len` is a [`WalContents::prefix_len`] of what
    /// [`read_wal`] returned for this file; a `len` that keeps no frame
    /// is [`WalWriter::create`], which also replaces a damaged magic.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from opening, truncating or seeking.
    pub fn open_truncated(path: &Path, len: u64) -> io::Result<Self> {
        if len <= WAL_MAGIC.len() as u64 {
            return Self::create(path);
        }
        let mut file = OpenOptions::new().write(true).open(path)?;
        file.set_len(len)?;
        file.seek(SeekFrom::Start(len))?;
        Ok(WalWriter { file })
    }

    /// Appends one framed record and flushes it to the kernel. The
    /// frame goes to the file as it is, with no framed copy of a
    /// payload that can be hundreds of kilobytes (a slot-log frame).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the write.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        frame::write_frame(&mut self.file, payload)?;
        self.file.flush()
    }

    /// Forces everything appended so far to stable storage.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the fsync.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_all()
    }
}

/// What a log file held when read back: the file's bytes, once, and
/// where each frame's payload sits in them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalContents {
    bytes: Vec<u8>,
    frames: Vec<Range<usize>>,
    /// How the stream ended.
    pub tail: Tail,
}

impl WalContents {
    /// Complete, CRC-valid frames read.
    #[must_use]
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether no complete frame was read.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Frame `i`'s payload.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below [`WalContents::len`].
    #[must_use]
    pub fn frame(&self, i: usize) -> &[u8] {
        &self.bytes[self.frames[i].clone()]
    }

    /// Every frame's payload, in append order.
    pub fn frames(&self) -> impl Iterator<Item = &[u8]> {
        self.frames.iter().map(|r| &self.bytes[r.clone()])
    }

    /// Bytes of the file that hold its magic and its first `frames`
    /// frames: the offset at which frame `frames` starts.
    ///
    /// # Panics
    ///
    /// Panics if `frames` exceeds [`WalContents::len`].
    #[must_use]
    pub fn prefix_len(&self, frames: usize) -> u64 {
        match frames.checked_sub(1) {
            Some(last) => self.frames[last].end as u64,
            None => WAL_MAGIC.len() as u64,
        }
    }
}

impl Default for WalContents {
    /// An absent log: no frames, clean tail.
    fn default() -> Self {
        WalContents {
            bytes: Vec::new(),
            frames: Vec::new(),
            tail: Tail::Clean,
        }
    }
}

/// Reads the log at `path`, if one exists. Its bytes are held once:
/// the frames are handed out as slices of them.
///
/// Returns `Ok(None)` when the file is absent (a fresh start). A file
/// too short to hold the magic header, or holding the wrong magic, is
/// reported as all-corrupt contents rather than an error: recovery
/// treats it like any other damaged tail and starts the log over.
///
/// # Errors
///
/// Returns any I/O error from opening or reading the file.
pub fn read_wal(path: &Path) -> io::Result<Option<WalContents>> {
    let mut file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Ok(Some(WalContents {
            tail: Tail::Corrupt {
                dropped: bytes.len() as u64,
            },
            ..WalContents::default()
        }));
    }
    let (payloads, tail) = frame::split_frames(&bytes[WAL_MAGIC.len()..]);
    // Frames are contiguous: each payload follows its header, which
    // follows the previous payload.
    let mut at = WAL_MAGIC.len();
    let frames = payloads
        .iter()
        .map(|payload| {
            let start = at + frame::HEADER_LEN;
            at = start + payload.len();
            start..at
        })
        .collect();
    Ok(Some(WalContents {
        bytes,
        frames,
        tail,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("spotdc-durable-wal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir.join("records.wal")
    }

    #[test]
    fn absent_file_reads_as_none() {
        let path = temp_path("absent");
        assert_eq!(read_wal(&path).unwrap(), None);
    }

    #[test]
    fn appended_records_read_back_in_order() {
        let path = temp_path("order");
        let mut w = WalWriter::create(&path).unwrap();
        w.append(b"slot-0").unwrap();
        w.append(b"slot-1").unwrap();
        w.sync().unwrap();
        let contents = read_wal(&path).unwrap().unwrap();
        assert!(contents.frames().eq([&b"slot-0"[..], b"slot-1"]));
        assert_eq!(contents.tail, Tail::Clean);
    }

    #[test]
    fn create_truncates_a_predecessor() {
        let path = temp_path("truncate");
        let mut w = WalWriter::create(&path).unwrap();
        w.append(b"old").unwrap();
        drop(w);
        let w = WalWriter::create(&path).unwrap();
        drop(w);
        let contents = read_wal(&path).unwrap().unwrap();
        assert!(contents.is_empty());
        assert_eq!(contents.tail, Tail::Clean);
    }

    #[test]
    fn open_truncated_keeps_a_prefix_and_appends_after_it() {
        let path = temp_path("reopen");
        let mut w = WalWriter::create(&path).unwrap();
        for record in [&b"slot-0"[..], b"slot-1", b"slot-2"] {
            w.append(record).unwrap();
        }
        drop(w);
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 2]).unwrap();
        let contents = read_wal(&path).unwrap().unwrap();
        assert_eq!(contents.len(), 2);
        assert!(matches!(contents.tail, Tail::Torn { .. }));
        assert_eq!(contents.prefix_len(0), WAL_MAGIC.len() as u64);
        let kept = contents.prefix_len(1);
        assert_eq!(kept, (WAL_MAGIC.len() + frame::HEADER_LEN + 6) as u64);
        let mut w = WalWriter::open_truncated(&path, kept).unwrap();
        w.append(b"slot-1-again").unwrap();
        drop(w);
        let bytes = fs::read(&path).unwrap();
        assert_eq!(bytes[..kept as usize], full[..kept as usize]);
        let contents = read_wal(&path).unwrap().unwrap();
        assert!(contents.frames().eq([&b"slot-0"[..], b"slot-1-again"]));
        assert_eq!(contents.frame(1), b"slot-1-again");
        assert_eq!(contents.tail, Tail::Clean);

        // Keeping no frame starts the log over, a damaged magic included.
        fs::write(&path, b"NOTAWAL!junk").unwrap();
        let w = WalWriter::open_truncated(&path, 0).unwrap();
        drop(w);
        assert_eq!(fs::read(&path).unwrap(), WAL_MAGIC);
    }

    #[test]
    fn torn_tail_is_detected_and_earlier_records_survive() {
        let path = temp_path("torn");
        let mut w = WalWriter::create(&path).unwrap();
        w.append(b"complete-record").unwrap();
        w.append(b"doomed-record").unwrap();
        drop(w);
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 5]).unwrap();
        let contents = read_wal(&path).unwrap().unwrap();
        assert!(contents.frames().eq([&b"complete-record"[..]]));
        assert!(matches!(contents.tail, Tail::Torn { dropped } if dropped > 0));
    }

    #[test]
    fn bad_magic_reads_as_fully_corrupt() {
        let path = temp_path("magic");
        fs::write(&path, b"NOTAWAL!whatever").unwrap();
        let contents = read_wal(&path).unwrap().unwrap();
        assert!(contents.is_empty());
        assert_eq!(contents.tail, Tail::Corrupt { dropped: 16 });
    }
}
