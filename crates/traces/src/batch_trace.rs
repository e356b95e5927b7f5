//! Backlog-activity traces for opportunistic tenants.
//!
//! Opportunistic tenants process data continuously but only *want spot
//! capacity* when there is a backlog worth accelerating — ≈30 % of
//! slots in the paper's setup (scaled from a university data-center
//! batch trace). [`BatchTrace`] generates an on/off activity process
//! with geometric burst and idle durations: a per-slot backlog
//! intensity in `[0.05, 1]` while active, `0.0` while idle.

use serde::{Deserialize, Serialize};

use crate::dist::Sampler;

/// Generator of per-slot batch backlog activity.
///
/// The process alternates geometric-length busy bursts and idle gaps;
/// the busy fraction converges to
/// `mean_busy / (mean_busy + mean_idle)`.
///
/// # Examples
///
/// ```
/// use spotdc_traces::BatchTrace;
///
/// let t = BatchTrace::university_like(3).generate(10_000);
/// let active = t.iter().filter(|&&x| x > 0.0).count() as f64 / t.len() as f64;
/// assert!((0.2..0.4).contains(&active), "active fraction {active}");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchTrace {
    /// Mean busy-burst length in slots.
    mean_busy_slots: f64,
    /// Mean idle-gap length in slots.
    mean_idle_slots: f64,
    /// Lognormal σ of the intensity while busy.
    intensity_sigma: f64,
    /// Median intensity while busy.
    intensity_median: f64,
    seed: u64,
}

impl BatchTrace {
    /// A university-batch-like trace: busy ≈30 % of slots in bursts of
    /// ~15 slots (half an hour at 2-minute slots).
    #[must_use]
    pub fn university_like(seed: u64) -> Self {
        BatchTrace {
            mean_busy_slots: 15.0,
            mean_idle_slots: 35.0,
            intensity_sigma: 0.35,
            intensity_median: 0.7,
            seed,
        }
    }

    /// The long-run expected busy fraction.
    #[must_use]
    pub fn expected_busy_fraction(&self) -> f64 {
        self.mean_busy_slots / (self.mean_busy_slots + self.mean_idle_slots)
    }

    /// Generates `slots` intensities: the first steps of [`Self::cursor`].
    #[must_use]
    pub fn generate(&self, slots: usize) -> Vec<f64> {
        self.cursor().take(slots).collect()
    }

    /// The trace stepped one slot at a time: an endless iterator of
    /// backlog intensities, `0.0` exactly when idle (no bid).
    pub fn cursor(&self) -> impl Iterator<Item = f64> + Send {
        let tr = self.clone();
        let mut s = Sampler::seeded(self.seed);
        // Start in a random phase weighted by the duty cycle.
        let mut busy = s.flip(self.expected_busy_fraction());
        let mut left = self.draw_duration(&mut s, busy);
        std::iter::repeat_with(move || {
            if left == 0 {
                busy = !busy;
                left = tr.draw_duration(&mut s, busy);
            }
            left -= 1;
            if busy {
                (tr.intensity_median * s.lognormal(0.0, tr.intensity_sigma)).clamp(0.05, 1.0)
            } else {
                0.0
            }
        })
    }

    fn draw_duration(&self, s: &mut Sampler, busy: bool) -> u64 {
        let mean = if busy {
            self.mean_busy_slots
        } else {
            self.mean_idle_slots
        };
        1 + s.geometric(1.0 / mean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_fraction_matches_duty_cycle() {
        for (busy, idle) in [(15.0, 35.0), (10.0, 10.0), (5.0, 45.0)] {
            let tr = BatchTrace {
                mean_busy_slots: busy,
                mean_idle_slots: idle,
                ..BatchTrace::university_like(1)
            };
            let t = tr.generate(200_000);
            let active = t.iter().filter(|&&x| x > 0.0).count() as f64 / t.len() as f64;
            let expect = tr.expected_busy_fraction();
            assert!(
                (active - expect).abs() < 0.03,
                "active {active} vs expected {expect}"
            );
        }
    }

    #[test]
    fn busy_intensity_stays_in_range() {
        let t = BatchTrace::university_like(2).generate(20_000);
        assert!(t.iter().all(|&x| x == 0.0 || (0.05..=1.0).contains(&x)));
    }

    #[test]
    fn bursts_are_contiguous() {
        let t = BatchTrace::university_like(3).generate(50_000);
        // Mean run length of busy slots should be near mean_busy_slots.
        let mut runs = Vec::new();
        let mut run = 0u64;
        for &x in &t {
            if x > 0.0 {
                run += 1;
            } else if run > 0 {
                runs.push(run);
                run = 0;
            }
        }
        let mean_run = runs.iter().sum::<u64>() as f64 / runs.len() as f64;
        assert!((10.0..22.0).contains(&mean_run), "mean busy run {mean_run}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = BatchTrace::university_like(9).generate(1000);
        let b = BatchTrace::university_like(9).generate(1000);
        assert_eq!(a, b);
    }
}
