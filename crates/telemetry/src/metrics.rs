//! Fixed-bucket duration histograms, one per span name.
//!
//! The [`Registry`] is a plain mutex-guarded map: the hot path of the
//! simulator only touches it when telemetry is enabled, and even then a
//! slot is milliseconds of work against a microsecond lock. No atomics
//! tree, no sharding — measured before optimized.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Histogram buckets for durations in seconds: log-spaced 1µs → 1s
/// (1-2.5-5 per decade), plus the implicit `+Inf` overflow.
const DURATION_BUCKETS: &[f64] = &[
    1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2,
    5e-2, 0.1, 0.25, 0.5, 1.0,
];

/// A fixed-bucket histogram: bucket `i` counts observations
/// `<= bounds[i]`, with an implicit `+Inf` bucket at the end.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Ascending finite upper bounds.
    bounds: Vec<f64>,
    /// One count per bound, plus the trailing `+Inf` overflow bucket.
    counts: Vec<u64>,
    sum: f64,
    count: u64,
}

impl Histogram {
    /// An empty histogram over ascending finite bucket bounds.
    fn with_buckets(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be ascending and finite"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
        }
    }

    fn for_durations() -> Self {
        Histogram::with_buckets(DURATION_BUCKETS)
    }

    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += value;
        self.count += 1;
    }

    /// Total number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`) by linear interpolation
    /// within the containing bucket, as `histogram_quantile` does.
    /// Returns `None` when the histogram is empty.
    ///
    /// Observations in the `+Inf` overflow bucket clamp to the largest
    /// finite bound — quantiles can never exceed it.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = q * self.count as f64;
        let mut cumulative = 0u64;
        for (i, &bucket_count) in self.counts.iter().enumerate() {
            let prev = cumulative as f64;
            cumulative += bucket_count;
            if (cumulative as f64) >= rank && bucket_count > 0 {
                let Some(&upper) = self.bounds.get(i) else {
                    break; // +Inf bucket clamps
                };
                let lower = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let frac = ((rank - prev) / bucket_count as f64).clamp(0.0, 1.0);
                return Some(lower + (upper - lower) * frac);
            }
        }
        Some(*self.bounds.last().expect("non-empty bounds"))
    }

    /// The arithmetic mean (exact, from the running sum — not a bucket
    /// estimate). Returns `None` when the histogram is empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// The median estimate (p50).
    #[must_use]
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// The 90th-percentile estimate.
    #[must_use]
    pub fn p90(&self) -> Option<f64> {
        self.quantile(0.90)
    }

    /// The 99th-percentile estimate.
    #[must_use]
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }
}

/// A thread-safe registry of span-duration [`Histogram`]s keyed by span
/// name.
///
/// One process-global instance lives behind [`crate::registry`]; tests
/// construct their own.
#[derive(Debug, Default)]
pub struct Registry {
    spans: Mutex<BTreeMap<String, Histogram>>,
}

impl Registry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Histogram>> {
        // A poisoned registry only means a panic elsewhere mid-update;
        // telemetry should keep limping rather than cascade the panic.
        self.spans.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Records one span duration (seconds) under the span's name.
    pub fn record_span(&self, span: &str, seconds: f64) {
        self.lock()
            .entry(span.to_owned())
            .or_insert_with(Histogram::for_durations)
            .observe(seconds);
    }

    /// A snapshot of the named span's duration histogram.
    #[must_use]
    pub fn span_durations(&self, span: &str) -> Option<Histogram> {
        self.lock().get(span).cloned()
    }

    /// The names of every span recorded so far, in sorted order.
    #[must_use]
    pub fn span_names(&self) -> Vec<String> {
        self.lock().keys().cloned().collect()
    }

    /// Drops every histogram. Intended for tests sharing the
    /// process-global registry.
    pub fn reset(&self) {
        self.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucket_boundaries_are_inclusive() {
        let mut h = Histogram::with_buckets(&[1.0, 2.0, 4.0]);
        h.observe(1.0); // lands in le=1 (inclusive upper bound)
        h.observe(1.5); // le=2
        h.observe(2.0); // le=2
        h.observe(4.0); // le=4
        h.observe(9.0); // +Inf overflow
        assert_eq!(h.counts, vec![1, 2, 1, 1]);
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 17.5).abs() < 1e-12);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let mut h = Histogram::with_buckets(&[10.0, 20.0, 30.0]);
        for _ in 0..50 {
            h.observe(5.0);
        }
        for _ in 0..50 {
            h.observe(15.0);
        }
        // Half the mass is in (0,10], half in (10,20]: the median sits
        // exactly at the boundary and p99 deep in the second bucket.
        assert!((h.p50().unwrap() - 10.0).abs() < 1e-9);
        let p99 = h.p99().unwrap();
        assert!(p99 > 19.0 && p99 <= 20.0, "p99 = {p99}");
    }

    #[test]
    fn quantile_edge_cases() {
        let empty = Histogram::with_buckets(&[1.0]);
        assert_eq!(empty.quantile(0.5), None);

        let mut overflow = Histogram::with_buckets(&[1.0, 2.0]);
        overflow.observe(100.0);
        // Overflow observations clamp to the largest finite bound.
        assert_eq!(overflow.p99(), Some(2.0));
        assert_eq!(overflow.p50(), Some(2.0));
    }

    #[test]
    fn quantiles_are_monotone_in_q() {
        let mut h = Histogram::for_durations();
        let mut x = 1e-7;
        for _ in 0..200 {
            h.observe(x);
            x *= 1.09;
        }
        let qs = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99];
        let vals: Vec<f64> = qs.iter().map(|&q| h.quantile(q).unwrap()).collect();
        assert!(vals.windows(2).all(|w| w[0] <= w[1]), "{vals:?}");
    }

    #[test]
    fn registry_keeps_one_histogram_per_span_name() {
        let r = Registry::new();
        r.record_span("clearing", 1e-4);
        r.record_span("clearing", 3e-4);
        r.record_span("admit", 2e-6);
        assert_eq!(r.span_names(), ["admit", "clearing"]);
        let clearing = r.span_durations("clearing").unwrap();
        assert_eq!(clearing.count(), 2);
        assert!((clearing.sum() - 4e-4).abs() < 1e-12);
        assert!(r.span_durations("missing").is_none());
    }

    #[test]
    fn reset_clears_everything() {
        let r = Registry::new();
        r.record_span("a", 0.1);
        r.reset();
        assert!(r.span_durations("a").is_none());
        assert!(r.span_names().is_empty());
    }
}
