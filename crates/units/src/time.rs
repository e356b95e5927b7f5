//! Slotted time.
//!
//! SpotDC is a time-slotted market: every spot-capacity allocation is
//! effective for exactly one slot (1–5 minutes in the paper). [`Slot`]
//! indexes slots; [`SlotDuration`] is the length of one slot and the
//! bridge between per-slot and per-hour quantities.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::sync::OnceLock;
use std::time::Instant;

use serde::{Deserialize, Serialize};

/// The index of one market time slot.
///
/// # Examples
///
/// ```
/// use spotdc_units::Slot;
///
/// let t = Slot::new(5);
/// assert_eq!(t.next(), Slot::new(6));
/// assert_eq!(t.next() - t, 1);
/// ```
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Slot(u64);

impl Slot {
    /// The first slot.
    pub const ZERO: Slot = Slot(0);

    /// Creates a slot index.
    #[must_use]
    pub const fn new(index: u64) -> Self {
        Slot(index)
    }

    /// The numeric index of this slot.
    #[must_use]
    pub const fn index(self) -> u64 {
        self.0
    }

    /// The slot after this one.
    #[must_use]
    pub const fn next(self) -> Slot {
        Slot(self.0 + 1)
    }

    /// The slot before this one, or `None` at slot zero.
    #[must_use]
    pub const fn prev(self) -> Option<Slot> {
        match self.0 {
            0 => None,
            n => Some(Slot(n - 1)),
        }
    }

    /// Iterates over `count` slots starting at `self`.
    ///
    /// # Examples
    ///
    /// ```
    /// # use spotdc_units::Slot;
    /// let v: Vec<_> = Slot::ZERO.take(3).collect();
    /// assert_eq!(v, [Slot::new(0), Slot::new(1), Slot::new(2)]);
    /// ```
    pub fn take(self, count: u64) -> impl Iterator<Item = Slot> {
        (self.0..self.0 + count).map(Slot)
    }
}

impl fmt::Display for Slot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slot {}", self.0)
    }
}

impl Add<u64> for Slot {
    type Output = Slot;
    fn add(self, rhs: u64) -> Slot {
        Slot(self.0 + rhs)
    }
}

impl AddAssign<u64> for Slot {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub for Slot {
    /// Number of slots between two slot indices.
    type Output = u64;
    fn sub(self, rhs: Slot) -> u64 {
        self.0 - rhs.0
    }
}

impl From<u64> for Slot {
    fn from(index: u64) -> Self {
        Slot(index)
    }
}

/// The wall-clock length of one market slot.
///
/// The paper uses 1–5 minute slots; the testbed experiment uses 2-minute
/// slots (20 minutes / 10 slots). Durations convert per-slot quantities
/// to per-hour ones (prices, energy) and size simulated horizons.
///
/// # Examples
///
/// ```
/// use spotdc_units::SlotDuration;
///
/// let slot = SlotDuration::from_secs(120);
/// assert_eq!(slot.hours(), 1.0 / 30.0);
/// assert_eq!(slot.slots_per_hour(), 30.0);
/// assert_eq!(SlotDuration::from_secs(60).slots_per_day(), 1440.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
#[serde(transparent)]
pub struct SlotDuration(f64);

impl SlotDuration {
    /// Creates a duration from seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is not a positive finite number — a zero-length
    /// slot would make every per-hour conversion divide by zero.
    #[must_use]
    pub fn from_secs(secs: u64) -> Self {
        assert!(secs > 0, "slot duration must be positive");
        SlotDuration(secs as f64)
    }

    /// The duration in seconds.
    #[must_use]
    pub const fn seconds(self) -> f64 {
        self.0
    }

    /// The duration in hours.
    #[must_use]
    pub fn hours(self) -> f64 {
        self.0 / 3600.0
    }

    /// How many of these slots fit in one hour.
    #[must_use]
    pub fn slots_per_hour(self) -> f64 {
        3600.0 / self.0
    }

    /// How many of these slots fit in one day.
    #[must_use]
    pub fn slots_per_day(self) -> f64 {
        86_400.0 / self.0
    }

    /// The number of whole slots needed to cover `days` days, rounded up.
    ///
    /// # Examples
    ///
    /// ```
    /// # use spotdc_units::SlotDuration;
    /// assert_eq!(SlotDuration::from_secs(120).slots_for_days(1.0), 720);
    /// ```
    #[must_use]
    pub fn slots_for_days(self, days: f64) -> u64 {
        (days * self.slots_per_day()).ceil() as u64
    }
}

impl Default for SlotDuration {
    /// Two-minute slots, the testbed setting in the paper.
    fn default() -> Self {
        SlotDuration::from_secs(120)
    }
}

impl fmt::Display for SlotDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}s slot", self.0)
    }
}

/// A monotonic timestamp in nanoseconds since the process-wide anchor.
///
/// The anchor is the first call to [`MonotonicNanos::now`] in the
/// process, so values are only comparable within one process — they are
/// meant for telemetry (event ordering, span durations), not wall-clock
/// time. Backed by [`Instant`], so the clock never goes backwards.
///
/// # Examples
///
/// ```
/// use spotdc_units::MonotonicNanos;
///
/// let a = MonotonicNanos::now();
/// let b = MonotonicNanos::now();
/// assert!(b >= a);
/// assert_eq!(MonotonicNanos::from_raw(b.as_nanos()), b);
/// ```
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct MonotonicNanos(u64);

impl MonotonicNanos {
    /// The current monotonic time.
    #[must_use]
    pub fn now() -> Self {
        static ANCHOR: OnceLock<Instant> = OnceLock::new();
        let anchor = *ANCHOR.get_or_init(Instant::now);
        // u64 nanoseconds cover ~584 years of process uptime.
        MonotonicNanos(anchor.elapsed().as_nanos() as u64)
    }

    /// Reconstructs a timestamp from a raw nanosecond count (e.g. one
    /// parsed back out of a telemetry log).
    #[must_use]
    pub const fn from_raw(nanos: u64) -> Self {
        MonotonicNanos(nanos)
    }

    /// Nanoseconds since the process anchor.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }
}

impl fmt::Display for MonotonicNanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "+{}ns", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_ordering_and_arithmetic() {
        let a = Slot::new(3);
        assert_eq!(a.next(), Slot::new(4));
        assert_eq!(a.prev(), Some(Slot::new(2)));
        assert_eq!(Slot::ZERO.prev(), None);
        assert_eq!(a + 7, Slot::new(10));
        assert_eq!(Slot::new(10) - a, 7);
        let mut b = a;
        b += 2;
        assert_eq!(b, Slot::new(5));
    }

    #[test]
    fn slot_take_iterates_consecutively() {
        let v: Vec<u64> = Slot::new(10).take(4).map(Slot::index).collect();
        assert_eq!(v, [10, 11, 12, 13]);
    }

    #[test]
    fn duration_conversions() {
        let d = SlotDuration::from_secs(300);
        assert_eq!(d.seconds(), 300.0);
        assert!((d.hours() - 5.0 / 60.0).abs() < 1e-12);
        assert_eq!(d.slots_per_hour(), 12.0);
        assert_eq!(d.slots_per_day(), 288.0);
    }

    #[test]
    fn slots_for_days_rounds_up() {
        let d = SlotDuration::from_secs(7_000); // not a divisor of a day
        let slots = d.slots_for_days(1.0);
        assert!(slots as f64 * d.seconds() >= 86_400.0);
        assert!((slots - 1) as f64 * d.seconds() < 86_400.0);
    }

    #[test]
    fn default_is_testbed_two_minutes() {
        assert_eq!(SlotDuration::default().seconds(), 120.0);
    }

    #[test]
    fn monotonic_never_goes_backwards() {
        let mut prev = MonotonicNanos::now();
        for _ in 0..100 {
            let next = MonotonicNanos::now();
            assert!(next >= prev);
            prev = next;
        }
    }

    #[test]
    fn monotonic_raw_round_trips_and_orders() {
        let early = MonotonicNanos::from_raw(10);
        let late = MonotonicNanos::from_raw(250);
        assert_eq!(late.as_nanos(), 250);
        assert_eq!(MonotonicNanos::from_raw(late.as_nanos()), late);
        assert!(early < late);
        assert_eq!(late.to_string(), "+250ns");
    }

    #[test]
    #[should_panic(expected = "slot duration must be positive")]
    fn zero_duration_rejected() {
        let _ = SlotDuration::from_secs(0);
    }
}
