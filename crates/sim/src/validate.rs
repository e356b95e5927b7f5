//! Process-wide opt-in for release-mode invariant validation.
//!
//! Debug builds validate every slot by default
//! ([`EngineConfig::new`](crate::engine::EngineConfig) sets `validate:
//! cfg!(debug_assertions)`). Release builds skip it unless a runtime
//! switch — the repro binary's `--validate` flag — forces it on here.
//! A relaxed atomic keeps the per-slot read free of synchronization
//! cost, mirroring the telemetry enable guard.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

static FORCED: AtomicBool = AtomicBool::new(false);
static VIOLATIONS: AtomicUsize = AtomicUsize::new(0);

/// Forces (or un-forces) invariant validation for every simulation in
/// this process, regardless of each engine's `validate` flag.
pub fn set_forced(on: bool) {
    FORCED.store(on, Ordering::Relaxed);
}

/// Whether validation is currently forced on process-wide.
#[must_use]
pub fn forced() -> bool {
    FORCED.load(Ordering::Relaxed)
}

/// Records `n` invariant violations in the process-wide tally. Called
/// by the engine so release-mode harnesses (where `debug_assert!` is
/// compiled out) can still turn violations into a nonzero exit.
pub fn record_violations(n: usize) {
    if n > 0 {
        VIOLATIONS.fetch_add(n, Ordering::Relaxed);
    }
}

/// Total invariant violations recorded by any simulation in this
/// process since start.
#[must_use]
pub fn violations() -> usize {
    VIOLATIONS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forcing_round_trips() {
        // Other tests rely on the default-off state; restore it.
        assert!(!forced());
        set_forced(true);
        assert!(forced());
        set_forced(false);
        assert!(!forced());
    }

    #[test]
    fn violation_tally_accumulates() {
        let before = violations();
        record_violations(0);
        assert_eq!(violations(), before);
        record_violations(2);
        record_violations(1);
        assert_eq!(violations(), before + 3);
    }
}
