//! The flight recorder: a ring buffer of recent events plus black-box
//! dumps around capacity emergencies.
//!
//! Aircraft flight recorders keep a bounded window of recent state so
//! that when something goes wrong, the investigation has the moments
//! *leading up to* the failure — not just the failure itself. SpotDC's
//! version: a [`FlightRecorder`] registers as the telemetry crate's
//! *recorder* channel (sampling-exempt, so it sees every event) and
//! keeps the last `capacity` events in a [`RingSink`]. When a
//! capacity-emergency-class event fires
//! ([`Event::is_blackbox_trigger`]) it snapshots the ring, keeps
//! collecting for `post_trigger` more events, then writes the whole
//! window to `blackbox-NNN-slotS.jsonl` in the dump directory — one
//! JSONL file per emergency, parseable by `spotdc-trace` like any
//! other event log.
//!
//! Dump I/O failures never take the simulation down; like
//! [`FileSink`](spotdc_telemetry::FileSink) they are counted and the
//! first error message is retained for the owning binary to report.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use spotdc_telemetry::{Event, EventSink, RingSink};

/// Flight-recorder window sizes. The dump directory is *not* part of
/// it: whoever arms the recorder ([`FlightRecorder::arm`]) chooses it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlackBoxConfig {
    /// Ring capacity: how many events of pre-trigger context each dump
    /// carries (minimum 1).
    pub capacity: usize,
    /// How many events after the trigger to include before writing the
    /// dump. Zero dumps immediately at the trigger.
    pub post_trigger: usize,
    /// Upper bound on dump files per recorder, so a pathological run
    /// (an emergency every slot) cannot fill the disk.
    pub max_dumps: usize,
}

impl Default for BlackBoxConfig {
    fn default() -> Self {
        BlackBoxConfig {
            capacity: 256,
            post_trigger: 32,
            max_dumps: 16,
        }
    }
}

/// A pending dump: the ring snapshot taken at the trigger, still
/// collecting its post-trigger tail.
#[derive(Debug)]
struct PendingDump {
    trigger_slot: u64,
    remaining: usize,
    window: Vec<(Option<String>, Event)>,
}

/// Mutable trigger-side state, separate from the ring's own lock so
/// the common case (no trigger) takes each lock briefly and in a fixed
/// order (ring, then state).
#[derive(Debug, Default)]
struct TriggerState {
    pending: Option<PendingDump>,
    written: Vec<PathBuf>,
    write_errors: u64,
    first_error: Option<String>,
}

/// The flight recorder; see the module docs. Install it with
/// [`FlightRecorder::arm`] (or construct directly for tests) — it is
/// an [`EventSink`] intended for
/// [`spotdc_telemetry::install_recorder`].
#[derive(Debug)]
pub struct FlightRecorder {
    config: BlackBoxConfig,
    dir: PathBuf,
    ring: RingSink,
    state: Mutex<TriggerState>,
}

impl FlightRecorder {
    /// Creates a recorder dumping into `dir` (created lazily at the
    /// first dump).
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>, config: BlackBoxConfig) -> Self {
        FlightRecorder {
            config,
            dir: dir.into(),
            ring: RingSink::new(config.capacity),
            state: Mutex::new(TriggerState::default()),
        }
    }

    /// Creates a recorder and installs it as the process-global
    /// telemetry recorder channel. Events only flow while telemetry is
    /// enabled; arming does not flip the enable switch.
    pub fn arm(dir: impl Into<PathBuf>, config: BlackBoxConfig) -> Arc<FlightRecorder> {
        let recorder = Arc::new(FlightRecorder::new(dir, config));
        spotdc_telemetry::install_recorder(recorder.clone());
        recorder
    }

    /// The recorder's configuration.
    #[must_use]
    pub fn config(&self) -> BlackBoxConfig {
        self.config
    }

    /// The dump directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn lock(&self) -> MutexGuard<'_, TriggerState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Paths of the black-box dumps written so far, in write order.
    #[must_use]
    pub fn dumps(&self) -> Vec<PathBuf> {
        self.lock().written.clone()
    }

    /// Number of dump writes (or directory creations) that failed.
    #[must_use]
    pub fn write_errors(&self) -> u64 {
        self.lock().write_errors
    }

    /// The first dump I/O error encountered, if any.
    #[must_use]
    pub fn first_error(&self) -> Option<String> {
        self.lock().first_error.clone()
    }

    /// Writes `pending` to disk and records the outcome in `state`.
    fn write_dump(&self, state: &mut TriggerState, pending: PendingDump) {
        if state.written.len() >= self.config.max_dumps {
            return;
        }
        let path = self.dir.join(format!(
            "blackbox-{:03}-slot{}.jsonl",
            state.written.len(),
            pending.trigger_slot
        ));
        let result = fs::create_dir_all(&self.dir).and_then(|()| {
            let mut body = String::new();
            for (run, event) in &pending.window {
                body.push_str(&event.to_jsonl_tagged(run.as_deref()));
                body.push('\n');
            }
            // fsync-then-rename (shared with the checkpoint writer): a
            // crash mid-dump leaves the previous dump set intact rather
            // than a truncated JSONL that parses as a shorter window.
            spotdc_durable::write_atomic(&path, body.as_bytes())
        });
        match result {
            Ok(()) => state.written.push(path),
            Err(e) => {
                state.write_errors += 1;
                if state.first_error.is_none() {
                    state.first_error = Some(format!("{}: {e}", path.display()));
                }
            }
        }
    }
}

impl EventSink for FlightRecorder {
    fn emit(&self, event: &Event) {
        self.emit_tagged(None, event);
    }

    fn emit_tagged(&self, run: Option<&str>, event: &Event) {
        // The ring always advances, so the snapshot taken at a trigger
        // includes the trigger event itself as its newest entry.
        self.ring.emit_tagged(run, event);
        let mut state = self.lock();
        if let Some(pending) = state.pending.as_mut() {
            // Already collecting a post-trigger tail; a second trigger
            // inside the window rides along in the same dump.
            pending.window.push((run.map(str::to_owned), event.clone()));
            if pending.remaining > 1 {
                pending.remaining -= 1;
                return;
            }
            let pending = state.pending.take().expect("checked above");
            self.write_dump(&mut state, pending);
            return;
        }
        if !event.is_blackbox_trigger() || state.written.len() >= self.config.max_dumps {
            return;
        }
        let pending = PendingDump {
            trigger_slot: event.slot().index(),
            remaining: self.config.post_trigger,
            window: self.ring.snapshot(),
        };
        if pending.remaining == 0 {
            self.write_dump(&mut state, pending);
        } else {
            state.pending = Some(pending);
        }
    }

    fn flush(&self) {
        // A run can end mid-window; dump the partial tail rather than
        // lose the emergency.
        let mut state = self.lock();
        if let Some(pending) = state.pending.take() {
            self.write_dump(&mut state, pending);
        }
    }
}

impl Drop for FlightRecorder {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use spotdc_units::{MonotonicNanos, Slot};

    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("spotdc-blackbox-test-{tag}"));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn cleared(slot: u64) -> Event {
        Event::SlotCleared {
            slot: Slot::new(slot),
            at: MonotonicNanos::from_raw(slot * 100),
            price_per_kw_hour: 0.2,
            sold_watts: 50.0,
            revenue_rate_per_hour: 0.01,
            candidates_evaluated: 10,
        }
    }

    fn emergency(slot: u64) -> Event {
        Event::EmergencyTriggered {
            slot: Slot::new(slot),
            at: MonotonicNanos::from_raw(slot * 100 + 1),
            level: "ups".to_owned(),
            load_watts: 1_200.0,
            capacity_watts: 1_000.0,
        }
    }

    fn config(capacity: usize, post_trigger: usize) -> BlackBoxConfig {
        BlackBoxConfig {
            capacity,
            post_trigger,
            max_dumps: 16,
        }
    }

    #[test]
    fn dump_contains_pre_and_post_trigger_window() {
        let dir = temp_dir("window");
        let rec = FlightRecorder::new(&dir, config(4, 2));
        for slot in 0..10 {
            rec.emit_tagged(Some("fig12"), &cleared(slot));
        }
        rec.emit_tagged(Some("fig12"), &emergency(10));
        assert!(rec.dumps().is_empty(), "still collecting the tail");
        rec.emit_tagged(Some("fig12"), &cleared(11));
        rec.emit_tagged(Some("fig12"), &cleared(12));
        let dumps = rec.dumps();
        assert_eq!(dumps.len(), 1);
        assert!(dumps[0].ends_with("blackbox-000-slot10.jsonl"));
        let body = fs::read_to_string(&dumps[0]).unwrap();
        let parsed: Vec<(Option<String>, Event)> = body
            .lines()
            .map(|l| Event::from_jsonl_tagged(l).expect(l))
            .collect();
        // Ring capacity 4 of pre-trigger context (trigger included as
        // newest ring entry) + 2 post-trigger events.
        let slots: Vec<u64> = parsed.iter().map(|(_, e)| e.slot().index()).collect();
        assert_eq!(slots, vec![7, 8, 9, 10, 11, 12]);
        assert!(parsed
            .iter()
            .all(|(run, _)| run.as_deref() == Some("fig12")));
        assert_eq!(rec.write_errors(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_post_trigger_dumps_immediately() {
        let dir = temp_dir("immediate");
        let rec = FlightRecorder::new(&dir, config(8, 0));
        rec.emit(&cleared(1));
        rec.emit(&emergency(2));
        let dumps = rec.dumps();
        assert_eq!(dumps.len(), 1);
        let body = fs::read_to_string(&dumps[0]).unwrap();
        assert_eq!(body.lines().count(), 2, "pre-context + trigger");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flush_writes_a_partial_window() {
        let dir = temp_dir("flush");
        let rec = FlightRecorder::new(&dir, config(8, 100));
        rec.emit(&emergency(3));
        assert!(rec.dumps().is_empty());
        rec.flush();
        assert_eq!(rec.dumps().len(), 1, "flush must not lose the emergency");
        rec.flush();
        assert_eq!(rec.dumps().len(), 1, "flush is idempotent");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn drop_flushes_the_pending_window() {
        let dir = temp_dir("drop");
        {
            let rec = FlightRecorder::new(&dir, config(8, 100));
            rec.emit(&emergency(4));
        }
        let files: Vec<_> = fs::read_dir(&dir).unwrap().collect();
        assert_eq!(files.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn max_dumps_caps_disk_usage() {
        let dir = temp_dir("cap");
        let rec = FlightRecorder::new(
            &dir,
            BlackBoxConfig {
                capacity: 4,
                post_trigger: 0,
                max_dumps: 2,
            },
        );
        for slot in 0..5 {
            rec.emit(&emergency(slot));
        }
        assert_eq!(rec.dumps().len(), 2, "dump count must respect max_dumps");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn second_trigger_inside_a_window_shares_the_dump() {
        let dir = temp_dir("overlap");
        let rec = FlightRecorder::new(&dir, config(8, 2));
        rec.emit(&emergency(5));
        rec.emit(&emergency(6)); // inside the tail: no second dump
        rec.emit(&cleared(7));
        let dumps = rec.dumps();
        assert_eq!(dumps.len(), 1);
        let body = fs::read_to_string(&dumps[0]).unwrap();
        let kinds: Vec<String> = body
            .lines()
            .map(|l| Event::from_jsonl(l).unwrap().kind().to_owned())
            .collect();
        assert_eq!(
            kinds,
            vec!["EmergencyTriggered", "EmergencyTriggered", "SlotCleared"]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn routine_events_never_trigger() {
        let dir = temp_dir("routine");
        let rec = FlightRecorder::new(&dir, config(4, 0));
        for slot in 0..100 {
            rec.emit(&cleared(slot));
        }
        assert!(rec.dumps().is_empty());
        assert!(!dir.exists(), "no dump, no directory");
    }

    #[test]
    fn arm_installs_and_uninstall_detaches() {
        // Serialized against other global-recorder users by dint of
        // being the only such test in this crate's unit suite.
        let dir = temp_dir("arm");
        let rec = FlightRecorder::arm(&dir, config(4, 0));
        let detached = spotdc_telemetry::uninstall_recorder();
        assert!(detached.is_some());
        assert_eq!(rec.config().capacity, 4);
        let _ = fs::remove_dir_all(&dir);
    }
}
