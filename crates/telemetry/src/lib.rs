//! Spans and a structured event log for the SpotDC market pipeline —
//! with zero external dependencies.
//!
//! The build environment is offline, so this crate hand-rolls the two
//! observability primitives the simulator needs instead of pulling in
//! `tracing`/`serde_json`:
//!
//! * **Spans** — [`span!`] opens a [`SpanGuard`] that emits one
//!   [`Event::SpanClosed`] with its slot and wall-clock duration when it
//!   drops. A span is an event like any other: timings are read from
//!   the log (`spotdc-trace`), not from a second store beside it.
//! * **Events** — typed [`Event`]s serialize to JSON lines into an
//!   [`EventSink`] ([`FileSink`] for the `telemetry.jsonl` artifact,
//!   [`VecSink`] for tests, [`NullSink`] to drop everything). A market
//!   fact is recorded as an event and nowhere else: totals are counted
//!   from the log (`spotdc-trace`), not kept beside it.
//!
//! # Cost when disabled
//!
//! Telemetry is off by default. Every entry point ([`span!`],
//! [`emit`]) first reads one relaxed [`AtomicBool`]; nothing else runs
//! — no locks, no clocks, no formatting. The benchmark's
//! `telemetry.span.ns_disabled` row measures that path.
//!
//! # Examples
//!
//! ```
//! use spotdc_telemetry as telemetry;
//! use spotdc_units::{MonotonicNanos, Slot};
//!
//! telemetry::install(telemetry::TelemetryConfig {
//!     enabled: true,
//!     sink: telemetry::SinkKind::Memory,
//!     sample_every: 1,
//! });
//!
//! {
//!     let _span = telemetry::span!("doc-example", slot = Slot::new(3));
//!     telemetry::emit(telemetry::Event::SlotCleared {
//!         slot: Slot::new(3),
//!         at: MonotonicNanos::now(),
//!         price_per_kw_hour: 0.25,
//!         sold_watts: 900.0,
//!         revenue_rate_per_hour: 0.225,
//!         candidates_evaluated: 64,
//!     });
//! }
//!
//! let events = telemetry::memory_sink().take();
//! let kinds: Vec<&str> = events.iter().map(telemetry::Event::kind).collect();
//! assert_eq!(kinds, ["SlotCleared", "SpanClosed"]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod json;
mod sink;
mod span;

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

pub use event::{Event, EventParseError};
pub use json::json_str;
pub use sink::{EventSink, FileSink, NullSink, VecSink};
pub use span::SpanGuard;

/// Where emitted events should go, selectable from a `Copy` config.
///
/// `File` cannot carry a path and stay `Copy` (configs are embedded in
/// the engine's `Copy` config structs), so selecting it routes events
/// to whatever sink was installed via [`install_with_sink`] — the repro
/// binary constructs the [`FileSink`] itself.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum SinkKind {
    /// Drop every event.
    #[default]
    Null,
    /// Buffer events in the process-global [`memory_sink`].
    Memory,
    /// Keep the explicitly installed sink (see [`install_with_sink`]).
    File,
}

/// Telemetry configuration, threaded through the engine and operator
/// config structs (hence `Copy`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Master switch; when false every telemetry entry point is a
    /// single relaxed atomic load.
    pub enabled: bool,
    /// Destination for structured events.
    pub sink: SinkKind,
    /// Down-sampling period for routine per-slot events: only slots
    /// whose index is a multiple of this reach the sink. Critical
    /// events ([`Event::is_critical`]) always pass. Zero behaves as 1.
    pub sample_every: u64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            enabled: false,
            sink: SinkKind::Null,
            sample_every: 1,
        }
    }
}

impl TelemetryConfig {
    /// Enabled, unsampled, buffering events in [`memory_sink`] — the
    /// configuration tests and experiments want.
    #[must_use]
    pub fn in_memory() -> Self {
        TelemetryConfig {
            enabled: true,
            sink: SinkKind::Memory,
            sample_every: 1,
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static INSTALLED: AtomicBool = AtomicBool::new(false);
static SAMPLE_EVERY: AtomicU64 = AtomicU64::new(1);
static MEMORY_SINK: OnceLock<Arc<VecSink>> = OnceLock::new();
static SINK: RwLock<Option<Arc<dyn EventSink>>> = RwLock::new(None);

/// Whether telemetry is globally enabled. The fast path of every
/// instrumentation site; one relaxed atomic load.
#[inline]
#[must_use]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Flips the global enable switch (prefer [`install`]).
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// The process-global in-memory event sink (used by
/// [`SinkKind::Memory`]).
#[must_use]
pub fn memory_sink() -> Arc<VecSink> {
    MEMORY_SINK.get_or_init(|| Arc::new(VecSink::new())).clone()
}

/// Whether any `install*` call has run in this process.
#[must_use]
pub fn is_installed() -> bool {
    INSTALLED.load(Ordering::Relaxed)
}

/// Applies a configuration: sets the enable switch and sampling period
/// and installs the sink its [`SinkKind`] selects. `SinkKind::File`
/// keeps the currently installed sink (see [`install_with_sink`]).
pub fn install(config: TelemetryConfig) {
    INSTALLED.store(true, Ordering::SeqCst);
    apply(config, None);
}

/// Applies `config` only if no `install*` call has run yet; returns
/// whether this call performed the installation.
///
/// This is the entry point for library code (the simulation engine, the
/// operator): when simulations run on worker threads, an unconditional
/// [`install`] from each would race — later installs could swap the
/// sink out from under earlier runs mid-stream. A process that wants a
/// specific configuration (the `repro` binary, tests) installs it up
/// front and every in-engine call becomes a no-op; otherwise the first
/// engine to start wins and the rest keep its choice.
pub fn install_if_uninstalled(config: TelemetryConfig) -> bool {
    if INSTALLED
        .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
        .is_err()
    {
        return false;
    }
    apply(config, None);
    true
}

/// Applies a configuration with an explicitly constructed sink (e.g. a
/// [`FileSink`] writing `telemetry.jsonl`).
pub fn install_with_sink(config: TelemetryConfig, sink: Arc<dyn EventSink>) {
    INSTALLED.store(true, Ordering::SeqCst);
    apply(config, Some(sink));
}

/// The body every `install*` shares: the sampling period, then `sink`
/// (or the one `config.sink` selects), then the enable switch.
fn apply(config: TelemetryConfig, sink: Option<Arc<dyn EventSink>>) {
    SAMPLE_EVERY.store(config.sample_every.max(1), Ordering::Relaxed);
    match (sink, config.sink) {
        (Some(sink), _) => set_sink(Some(sink)),
        (None, SinkKind::Null) => set_sink(None),
        (None, SinkKind::Memory) => set_sink(Some(memory_sink())),
        (None, SinkKind::File) => {}
    }
    // Enable last so no event races ahead of its sink.
    set_enabled(config.enabled);
}

fn set_sink(sink: Option<Arc<dyn EventSink>>) {
    *SINK.write().unwrap_or_else(|e| e.into_inner()) = sink;
}

thread_local! {
    /// Stack of run-id tags for the current thread; the innermost
    /// [`run_scope`] wins. A stack (not a slot) so nested scopes
    /// restore the outer tag on drop.
    static RUN_STACK: RefCell<Vec<Arc<str>>> = const { RefCell::new(Vec::new()) };
}

/// Guard returned by [`run_scope`]; pops the tag when dropped.
///
/// Not `Send`: the tag lives in a thread-local, so the guard must drop
/// on the thread that created it.
#[derive(Debug)]
pub struct RunScope {
    _not_send: PhantomData<*const ()>,
}

/// Tags every event emitted by this thread (until the guard drops)
/// with a run id — typically an experiment id like `"fig12"` — so
/// JSONL streams interleaved by concurrent simulations stay
/// attributable. Sinks receive the tag via
/// [`EventSink::emit_tagged`]; [`FileSink`] writes it as a `"run"`
/// field, which [`Event::from_jsonl`] tolerates on read-back.
///
/// The tag is thread-local: code that fans work out to other threads
/// must re-establish the scope on each worker (see
/// [`current_run`]).
#[must_use = "the tag is removed when the returned guard drops"]
pub fn run_scope(id: &str) -> RunScope {
    RUN_STACK.with(|stack| stack.borrow_mut().push(Arc::from(id)));
    RunScope {
        _not_send: PhantomData,
    }
}

impl Drop for RunScope {
    fn drop(&mut self) {
        RUN_STACK.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

/// The innermost run-id tag on this thread, if any. Fan-out helpers
/// capture this before spawning workers and re-establish it inside
/// each worker via [`run_scope`].
#[must_use]
pub fn current_run() -> Option<Arc<str>> {
    RUN_STACK.with(|stack| stack.borrow().last().cloned())
}

/// Emits a structured event to the installed sink.
///
/// No-op when telemetry is disabled, no sink is installed, or the
/// event is routine ([`Event::is_critical`] is false) and its slot is
/// down-sampled by `sample_every`. The thread's [`run_scope`] tag, if
/// any, rides along to the sink.
pub fn emit(event: Event) {
    if !is_enabled() {
        return;
    }
    let sample_every = SAMPLE_EVERY.load(Ordering::Relaxed).max(1);
    if !event.is_critical() && !event.slot().index().is_multiple_of(sample_every) {
        return;
    }
    let sink = SINK.read().unwrap_or_else(|e| e.into_inner());
    if let Some(sink) = sink.as_ref() {
        sink.emit_tagged(current_run().as_deref(), &event);
    }
}

/// Flushes the installed sink (e.g. before reading `telemetry.jsonl`).
pub fn flush() {
    let sink = SINK.read().unwrap_or_else(|e| e.into_inner());
    if let Some(sink) = sink.as_ref() {
        sink.flush();
    }
}

#[cfg(test)]
mod tests {
    use spotdc_units::{MonotonicNanos, Slot};

    use super::*;

    /// Tests that mutate process-global state (here and in `span.rs`)
    /// serialize on this.
    pub(crate) fn with_global_lock(test: impl FnOnce()) {
        static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _guard = GATE.lock().unwrap_or_else(|e| e.into_inner());
        let _ = memory_sink().take();
        test();
        install(TelemetryConfig::default());
        let _ = memory_sink().take();
    }

    fn cleared(slot: u64) -> Event {
        Event::SlotCleared {
            slot: Slot::new(slot),
            at: MonotonicNanos::from_raw(slot),
            price_per_kw_hour: 0.1,
            sold_watts: 10.0,
            revenue_rate_per_hour: 0.001,
            candidates_evaluated: 1,
        }
    }

    fn emergency(slot: u64) -> Event {
        Event::EmergencyTriggered {
            slot: Slot::new(slot),
            at: MonotonicNanos::from_raw(slot),
            level: "ups".to_owned(),
            load_watts: 2.0,
            capacity_watts: 1.0,
        }
    }

    #[test]
    fn emit_is_a_no_op_when_disabled() {
        with_global_lock(|| {
            install(TelemetryConfig {
                enabled: false,
                sink: SinkKind::Memory,
                sample_every: 1,
            });
            emit(cleared(1));
            assert!(memory_sink().is_empty());
        });
    }

    #[test]
    fn sampling_keeps_critical_events() {
        with_global_lock(|| {
            install(TelemetryConfig {
                enabled: true,
                sink: SinkKind::Memory,
                sample_every: 10,
            });
            for slot in 0..20 {
                emit(cleared(slot));
            }
            emit(emergency(13)); // critical: bypasses sampling
            let events = memory_sink().take();
            let slots: Vec<u64> = events.iter().map(|e| e.slot().index()).collect();
            assert_eq!(slots, vec![0, 10, 13]);
        });
    }

    #[test]
    fn spans_close_exactly_once_across_threads() {
        with_global_lock(|| {
            install(TelemetryConfig::in_memory());
            std::thread::scope(|s| {
                for t in 0..8 {
                    s.spawn(move || {
                        for _ in 0..100 {
                            drop(crate::span!("concurrency-smoke", slot = Slot::new(t)));
                        }
                    });
                }
            });
            let events = memory_sink().take();
            assert_eq!(events.len(), 800);
            for t in 0..8 {
                let of_slot = events.iter().filter(|e| e.slot() == Slot::new(t));
                assert_eq!(of_slot.count(), 100, "thread {t}");
            }
        });
    }

    #[test]
    fn run_scopes_nest_and_unwind() {
        assert_eq!(current_run(), None);
        let outer = run_scope("fig12");
        assert_eq!(current_run().as_deref(), Some("fig12"));
        {
            let _inner = run_scope("fig12/capped");
            assert_eq!(current_run().as_deref(), Some("fig12/capped"));
        }
        assert_eq!(current_run().as_deref(), Some("fig12"));
        drop(outer);
        assert_eq!(current_run(), None);
    }

    #[test]
    fn run_scopes_are_per_thread() {
        let _outer = run_scope("main-thread");
        std::thread::scope(|s| {
            s.spawn(|| {
                assert_eq!(current_run(), None, "tags must not leak across threads");
                let _worker = run_scope("worker");
                assert_eq!(current_run().as_deref(), Some("worker"));
            });
        });
        assert_eq!(current_run().as_deref(), Some("main-thread"));
    }

    #[test]
    fn install_if_uninstalled_yields_to_an_existing_install() {
        with_global_lock(|| {
            install(TelemetryConfig::in_memory());
            assert!(is_installed());
            let installed = install_if_uninstalled(TelemetryConfig {
                enabled: false,
                sink: SinkKind::Null,
                sample_every: 100,
            });
            assert!(!installed, "a prior install must win");
            // The losing config was not applied: telemetry is still
            // enabled and still pointed at the memory sink.
            emit(cleared(1));
            assert_eq!(memory_sink().take().len(), 1);
        });
    }

    #[test]
    fn install_in_memory_round_trips_events() {
        with_global_lock(|| {
            install(TelemetryConfig::in_memory());
            emit(cleared(5));
            flush();
            let events = memory_sink().take();
            assert_eq!(events.len(), 1);
            let line = events[0].to_jsonl();
            assert_eq!(Event::from_jsonl(&line).unwrap(), events[0]);
        });
    }
}
