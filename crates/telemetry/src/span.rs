//! Lightweight timing spans.
//!
//! A span is a name and a start time: created by the [`crate::span!`]
//! macro, the guard records its wall-clock duration into the global
//! registry's histogram for that name when dropped. When telemetry is
//! disabled the guard holds no timer and the drop is a no-op — the
//! macro's cost is one relaxed atomic load.

use std::time::Instant;

/// A scope guard timing one named region.
///
/// Construct via [`crate::span!`]; the guard records on drop.
#[must_use = "a span measures the scope it is bound to; dropping it immediately measures nothing"]
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    /// `None` when telemetry was disabled at creation.
    start: Option<Instant>,
}

impl SpanGuard {
    /// Opens a span. Prefer the [`crate::span!`] macro.
    pub fn enter(name: &'static str) -> SpanGuard {
        SpanGuard {
            name,
            start: crate::is_enabled().then(Instant::now),
        }
    }

    /// The span's name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            crate::registry().record_span(self.name, start.elapsed().as_secs_f64());
        }
    }
}

/// Opens a [`SpanGuard`] timing the rest of the enclosing scope.
///
/// Trailing `key = value` pairs label the call site for whoever reads
/// the source; they are borrowed, never formatted or stored.
///
/// ```
/// # spotdc_telemetry::set_enabled(true);
/// let slot = 7u64;
/// {
///     let _span = spotdc_telemetry::span!("clearing", slot = slot);
///     // ... work being timed ...
/// }
/// assert!(spotdc_telemetry::registry().span_durations("clearing").is_some());
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr $(,)?) => {
        $crate::SpanGuard::enter($name)
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {{
        $(let _ = &$value;)+
        $crate::SpanGuard::enter($name)
    }};
}

#[cfg(test)]
mod tests {
    /// Spans talk to the process-global registry; serialize the tests
    /// that flip the global enable flag.
    fn with_enabled(test: impl FnOnce()) {
        static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _guard = GATE.lock().unwrap_or_else(|e| e.into_inner());
        crate::set_enabled(true);
        test();
        crate::set_enabled(false);
    }

    #[test]
    fn disabled_span_records_nothing() {
        // Not under `with_enabled`: uses a name no enabled test uses.
        crate::set_enabled(false);
        drop(crate::span!("never-enabled-span"));
        assert!(crate::registry()
            .span_durations("never-enabled-span")
            .is_none());
    }

    #[test]
    fn nested_spans_record_durations() {
        with_enabled(|| {
            {
                let outer = crate::span!("span-test-outer");
                assert_eq!(outer.name(), "span-test-outer");
                std::thread::sleep(std::time::Duration::from_micros(200));
                {
                    let _inner = crate::span!("span-test-inner");
                    std::thread::sleep(std::time::Duration::from_micros(100));
                }
            }
            let outer = crate::registry().span_durations("span-test-outer").unwrap();
            let inner = crate::registry().span_durations("span-test-inner").unwrap();
            assert_eq!(outer.count(), 1);
            assert_eq!(inner.count(), 1);
            // The outer span strictly contains the inner one.
            assert!(outer.sum() > inner.sum());
            assert!(inner.sum() > 0.0);
        });
    }

    #[test]
    fn span_labels_only_borrow_their_values() {
        with_enabled(|| {
            // Not `Display`, not `Copy`: the `k = v` arm must neither
            // format nor move what it is handed.
            struct Opaque;
            let value = Opaque;
            let text = String::from("clear");
            drop(crate::span!("span-test-labels", slot = value, phase = text));
            let (_still_here, _and_here) = (value, text);
            let recorded = crate::registry().span_durations("span-test-labels");
            assert_eq!(recorded.unwrap().count(), 1);
        });
    }
}
