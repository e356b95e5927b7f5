//! Event sinks: where serialized telemetry events go.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::event::Event;

/// A destination for structured telemetry events.
///
/// Implementations must be cheap enough to sit on the per-slot path and
/// thread-safe (the simulator is single-threaded today, but parameter
/// sweeps run engines on worker threads against one process-global
/// sink).
pub trait EventSink: Send + Sync {
    /// Records one event.
    fn emit(&self, event: &Event);

    /// Records one event carrying the emitting thread's run-id tag
    /// (see `run_scope` in the crate root). The default drops the tag
    /// and forwards to [`EventSink::emit`]; sinks with an attributable
    /// wire format ([`FileSink`]) override it.
    fn emit_tagged(&self, run: Option<&str>, event: &Event) {
        let _ = run;
        self.emit(event);
    }

    /// Flushes any buffered output. The default is a no-op.
    fn flush(&self) {}
}

/// Discards every event.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl EventSink for NullSink {
    fn emit(&self, _event: &Event) {}
}

/// Buffers events in memory; tests and the simulation engine read them
/// back with [`VecSink::snapshot`] or [`VecSink::take`].
#[derive(Debug, Default)]
pub struct VecSink {
    events: Mutex<Vec<Event>>,
}

impl VecSink {
    /// Creates an empty sink.
    #[must_use]
    pub fn new() -> Self {
        VecSink::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Event>> {
        self.events.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Clones out the events recorded so far.
    #[must_use]
    pub fn snapshot(&self) -> Vec<Event> {
        self.lock().clone()
    }

    /// Removes and returns the events recorded so far.
    #[must_use]
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *self.lock())
    }

    /// Number of buffered events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether no events are buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }
}

impl EventSink for VecSink {
    fn emit(&self, event: &Event) {
        self.lock().push(event.clone());
    }
}

/// Appends events as JSON lines to a file (the `telemetry.jsonl`
/// artifact the repro binary ships).
///
/// Writes are buffered ([`BufWriter`]) and flushed on drop. I/O errors
/// never take the simulation down, but they are not swallowed either:
/// the sink counts them and keeps the first error message, so the
/// owning binary can report a truncated log instead of shipping it
/// silently (see [`FileSink::write_errors`]).
#[derive(Debug)]
pub struct FileSink {
    writer: Mutex<BufWriter<File>>,
    write_errors: AtomicU64,
    first_error: Mutex<Option<String>>,
}

impl FileSink {
    /// Creates (truncating) the file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if the file cannot be created.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(FileSink {
            writer: Mutex::new(BufWriter::new(file)),
            write_errors: AtomicU64::new(0),
            first_error: Mutex::new(None),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BufWriter<File>> {
        self.writer.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn record_error(&self, error: &io::Error) {
        self.write_errors.fetch_add(1, Ordering::Relaxed);
        let mut first = self.first_error.lock().unwrap_or_else(|e| e.into_inner());
        if first.is_none() {
            *first = Some(error.to_string());
        }
    }

    /// Number of writes (or flushes) that failed since creation.
    #[must_use]
    pub fn write_errors(&self) -> u64 {
        self.write_errors.load(Ordering::Relaxed)
    }

    /// The first I/O error encountered, if any.
    #[must_use]
    pub fn first_error(&self) -> Option<String> {
        self.first_error
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }
}

impl EventSink for FileSink {
    fn emit(&self, event: &Event) {
        self.emit_tagged(None, event);
    }

    fn emit_tagged(&self, run: Option<&str>, event: &Event) {
        let mut writer = self.lock();
        if let Err(e) = writeln!(writer, "{}", event.to_jsonl_tagged(run)) {
            self.record_error(&e);
        }
    }

    fn flush(&self) {
        if let Err(e) = self.lock().flush() {
            self.record_error(&e);
        }
    }
}

impl Drop for FileSink {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use spotdc_units::{MonotonicNanos, Slot};

    use super::*;

    fn event(slot: u64) -> Event {
        Event::SlotCleared {
            slot: Slot::new(slot),
            at: MonotonicNanos::from_raw(slot * 10),
            price_per_kw_hour: 0.2,
            sold_watts: 100.0,
            revenue_rate_per_hour: 0.02,
            candidates_evaluated: 50,
        }
    }

    #[test]
    fn vec_sink_buffers_and_takes() {
        let sink = VecSink::new();
        assert!(sink.is_empty());
        sink.emit(&event(1));
        sink.emit(&event(2));
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.snapshot().len(), 2);
        let taken = sink.take();
        assert_eq!(taken.len(), 2);
        assert_eq!(taken[0].slot(), Slot::new(1));
        assert!(sink.is_empty());
    }

    #[test]
    fn file_sink_writes_parseable_jsonl() {
        let path = std::env::temp_dir().join("spotdc-telemetry-file-sink-test.jsonl");
        {
            let sink = FileSink::create(&path).unwrap();
            sink.emit(&event(7));
            sink.emit(&event(8));
            sink.flush();
        }
        let body = std::fs::read_to_string(&path).unwrap();
        let events: Vec<Event> = body
            .lines()
            .map(|l| Event::from_jsonl(l).expect(l))
            .collect();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].slot(), Slot::new(8));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_sink_writes_run_tags() {
        let path = std::env::temp_dir().join("spotdc-telemetry-file-sink-tagged-test.jsonl");
        {
            let sink = FileSink::create(&path).unwrap();
            sink.emit_tagged(Some("fig10"), &event(1));
            sink.emit_tagged(None, &event(2));
            sink.flush();
        }
        let body = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"run\":\"fig10\""), "line: {}", lines[0]);
        assert!(!lines[1].contains("\"run\""), "line: {}", lines[1]);
        for line in lines {
            Event::from_jsonl(line).expect(line);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn vec_sink_default_emit_tagged_keeps_the_event() {
        let sink = VecSink::new();
        sink.emit_tagged(Some("fig11"), &event(3));
        assert_eq!(sink.take(), vec![event(3)]);
    }

    #[test]
    fn null_sink_discards() {
        NullSink.emit(&event(1));
        NullSink.flush();
    }

    #[test]
    fn file_sink_starts_with_no_errors() {
        let path = std::env::temp_dir().join("spotdc-telemetry-file-sink-clean-test.jsonl");
        let sink = FileSink::create(&path).unwrap();
        sink.emit(&event(1));
        sink.flush();
        assert_eq!(sink.write_errors(), 0);
        assert_eq!(sink.first_error(), None);
        drop(sink);
        let _ = std::fs::remove_file(&path);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn file_sink_surfaces_write_errors() {
        // /dev/full accepts the open but fails every write with ENOSPC,
        // which surfaces at the latest when the buffer flushes.
        let sink = FileSink::create("/dev/full").unwrap();
        for slot in 0..4096 {
            sink.emit(&event(slot));
        }
        sink.flush();
        assert!(sink.write_errors() > 0, "ENOSPC writes must be counted");
        let first = sink.first_error().expect("first error retained");
        assert!(!first.is_empty());
    }
}
