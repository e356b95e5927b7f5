//! Atomic whole-file replacement via fsync-then-rename.
//!
//! POSIX `rename(2)` within one filesystem is atomic: a concurrent (or
//! post-crash) reader of the destination path sees either the old file
//! or the new one, never a mixture or a prefix. The fragile part is the
//! ordering around it — the data must be durable *before* the rename
//! makes it visible, and the rename itself lives in the directory, so
//! the directory is fsynced too. Skipping either step is how a
//! partially written checkpoint gets mistaken for a complete one.

use std::fs::{self, File, OpenOptions};
use std::io;
use std::path::Path;

/// Atomically replaces `path` with the bytes `write` writes to it.
///
/// Writes to a sibling temp file (same directory, so the rename never
/// crosses a filesystem boundary), fsyncs it, renames it over `path`,
/// then fsyncs the directory so the rename itself survives a crash.
/// The directory fsync is best-effort: some filesystems refuse to
/// `fsync` a directory handle, and the rename is already atomic without
/// it — it only narrows the window in which a power loss could undo a
/// completed rename.
///
/// # Errors
///
/// Returns any I/O error from creating, writing, syncing, or renaming
/// the temp file. On error the temp file is removed best-effort and
/// `path` is untouched.
pub fn write_atomic(
    path: &Path,
    write: impl FnOnce(&mut File) -> io::Result<()>,
) -> io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let mut tmp_name = std::ffi::OsString::from(".");
    tmp_name.push(file_name);
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);

    let result = (|| {
        let mut f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        write(&mut f)?;
        f.sync_all()?;
        drop(f);
        fs::rename(&tmp, path)?;
        if let Some(dir) = dir {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    })();

    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use std::io::Write;

    use super::*;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "spotdc-durable-atomic-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn creates_and_replaces() {
        let dir = temp_dir("replace");
        let target = dir.join("state.bin");
        write_atomic(&target, |f| f.write_all(b"one")).unwrap();
        assert_eq!(fs::read(&target).unwrap(), b"one");
        write_atomic(&target, |f| f.write_all(b"two-longer")).unwrap();
        assert_eq!(fs::read(&target).unwrap(), b"two-longer");
        // No temp residue after success.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(leftovers, vec![std::ffi::OsString::from("state.bin")]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failure_leaves_target_untouched() {
        let dir = temp_dir("fail");
        let target = dir.join("state.bin");
        write_atomic(&target, |f| f.write_all(b"original")).unwrap();
        // A directory where the temp file should go, but unwritable
        // target: simulate by using a path whose parent is a file.
        let bad = target.join("child.bin");
        assert!(write_atomic(&bad, |f| f.write_all(b"x")).is_err());
        assert_eq!(fs::read(&target).unwrap(), b"original");
        let _ = fs::remove_dir_all(&dir);
    }
}
