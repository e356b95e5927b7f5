//! Lightweight timing spans.
//!
//! A span is a name, a slot and a start time: created by the
//! [`crate::span!`] macro, the guard emits one [`Event::SpanClosed`]
//! carrying its wall-clock duration when dropped. When telemetry is
//! disabled the guard holds no timer and the drop is a no-op — the
//! macro's cost is one relaxed atomic load.

use std::time::Instant;

use spotdc_units::{MonotonicNanos, Slot};

use crate::event::Event;

/// A scope guard timing one named region of one slot.
///
/// Construct via [`crate::span!`]; the guard emits on drop.
#[must_use = "a span measures the scope it is bound to; dropping it immediately measures nothing"]
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    slot: Slot,
    /// `None` when telemetry was disabled at creation.
    start: Option<Instant>,
}

impl SpanGuard {
    /// Opens a span of `slot`. Prefer the [`crate::span!`] macro.
    pub fn enter(name: &'static str, slot: Slot) -> SpanGuard {
        SpanGuard {
            name,
            slot,
            start: crate::is_enabled().then(Instant::now),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            crate::emit(Event::SpanClosed {
                slot: self.slot,
                at: MonotonicNanos::now(),
                span: self.name.to_owned(),
                nanos: u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
            });
        }
    }
}

/// Opens a [`SpanGuard`] timing the rest of the enclosing scope.
///
/// `slot = expr` stamps the span with the slot it belongs to; a bare
/// `span!(name)` is a span outside any slot (setup), recorded at
/// `Slot::ZERO`.
///
/// ```
/// use spotdc_units::Slot;
///
/// spotdc_telemetry::install(spotdc_telemetry::TelemetryConfig::in_memory());
/// drop(spotdc_telemetry::span!("clearing", slot = Slot::new(7)));
/// let closed = spotdc_telemetry::memory_sink().take();
/// assert_eq!((closed[0].kind(), closed[0].slot()), ("SpanClosed", Slot::new(7)));
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr $(,)?) => {
        // `Slot::default()` is `Slot::ZERO`.
        $crate::SpanGuard::enter($name, ::core::default::Default::default())
    };
    ($name:expr, slot = $slot:expr $(,)?) => {
        $crate::SpanGuard::enter($name, $slot)
    };
}

#[cfg(test)]
mod tests {
    use spotdc_units::Slot;

    use crate::tests::with_global_lock;
    use crate::{install, memory_sink, Event, TelemetryConfig};

    /// `(span, slot, nanos)` of every `SpanClosed` the memory sink holds.
    fn closed() -> Vec<(String, Slot, u64)> {
        memory_sink()
            .take()
            .into_iter()
            .filter_map(|e| match e {
                Event::SpanClosed {
                    span, slot, nanos, ..
                } => Some((span, slot, nanos)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn disabled_span_emits_nothing() {
        with_global_lock(|| {
            install(TelemetryConfig {
                enabled: false,
                ..TelemetryConfig::in_memory()
            });
            drop(crate::span!("span-test-disabled", slot = Slot::new(3)));
            assert!(memory_sink().is_empty());
        });
    }

    #[test]
    fn nested_spans_close_inner_first_with_their_slots() {
        with_global_lock(|| {
            install(TelemetryConfig::in_memory());
            {
                let _outer = crate::span!("span-test-outer", slot = Slot::new(4));
                std::thread::sleep(std::time::Duration::from_micros(200));
                {
                    let _inner = crate::span!("span-test-inner", slot = Slot::new(4));
                    std::thread::sleep(std::time::Duration::from_micros(100));
                }
            }
            let spans = closed();
            assert_eq!(spans.len(), 2);
            let (inner, outer) = (&spans[0], &spans[1]);
            assert_eq!(
                (inner.0.as_str(), inner.1),
                ("span-test-inner", Slot::new(4))
            );
            assert_eq!(
                (outer.0.as_str(), outer.1),
                ("span-test-outer", Slot::new(4))
            );
            // The outer span strictly contains the inner one.
            assert!(outer.2 > inner.2);
            assert!(inner.2 > 0);
        });
    }

    #[test]
    fn a_bare_span_is_recorded_at_slot_zero() {
        with_global_lock(|| {
            install(TelemetryConfig::in_memory());
            drop(crate::span!("span-test-setup"));
            let spans = closed();
            assert_eq!(spans.len(), 1);
            assert_eq!(
                (spans[0].0.as_str(), spans[0].1),
                ("span-test-setup", Slot::ZERO)
            );
        });
    }
}
