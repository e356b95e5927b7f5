//! Request-arrival intensity traces for sprinting tenants.
//!
//! The paper scales a Google-services request trace so that sprinting
//! tenants face high traffic — and need spot capacity to hold their
//! SLO — in ≈15 % of slots. [`ArrivalTrace`] generates a normalized
//! intensity series in `[0, 1]` with the same structure: a diurnal
//! swing, lognormal noise, and occasional multi-slot traffic surges.
//! Multiply by a tenant's peak request rate to get arrivals per second.

use serde::{Deserialize, Serialize};

use crate::dist::Sampler;

/// Generator of normalized (0–1) request-arrival intensity per slot.
///
/// # Examples
///
/// ```
/// use spotdc_traces::ArrivalTrace;
///
/// let t = ArrivalTrace::google_like(1).generate(2000);
/// let busy = t.iter().filter(|&&x| x > 0.8).count() as f64 / t.len() as f64;
/// assert!(busy > 0.05 && busy < 0.30, "busy fraction {busy}");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArrivalTrace {
    /// Mean intensity of the diurnal baseline (fraction of peak).
    base: f64,
    /// Diurnal amplitude (fraction of peak).
    amplitude: f64,
    /// Lognormal noise σ applied multiplicatively.
    noise_sigma: f64,
    /// Probability per slot that a surge starts.
    surge_probability: f64,
    /// Mean surge duration in slots.
    surge_mean_slots: f64,
    /// Intensity added during a surge (fraction of peak).
    surge_boost: f64,
    /// Slots per simulated day.
    slots_per_day: usize,
    seed: u64,
}

impl ArrivalTrace {
    /// A Google-like interactive traffic trace: diurnal base around
    /// 55 % of peak ± 25 %, noisy, with surges pushing intensity toward
    /// peak. Calibrated so intensity exceeds 0.8 — the level at which
    /// the calibrated sprinting tenants need spot capacity — in roughly
    /// 15 % of slots.
    #[must_use]
    pub fn google_like(seed: u64) -> Self {
        ArrivalTrace {
            base: 0.55,
            amplitude: 0.25,
            noise_sigma: 0.08,
            surge_probability: 0.01,
            surge_mean_slots: 8.0,
            surge_boost: 0.25,
            slots_per_day: 720,
            seed,
        }
    }

    /// Overrides the slots-per-day period.
    ///
    /// # Panics
    ///
    /// Panics if `slots_per_day` is zero.
    #[must_use]
    pub fn with_slots_per_day(mut self, slots_per_day: usize) -> Self {
        assert!(slots_per_day > 0, "slots per day must be positive");
        self.slots_per_day = slots_per_day;
        self
    }

    /// Generates `slots` intensities: the first steps of [`Self::cursor`].
    #[must_use]
    pub fn generate(&self, slots: usize) -> Vec<f64> {
        self.cursor().take(slots).collect()
    }

    /// The trace stepped one slot at a time: an endless iterator of
    /// normalized intensities in `[0, 1]`.
    pub fn cursor(&self) -> impl Iterator<Item = f64> + Send {
        let tr = self.clone();
        let mut s = Sampler::seeded(self.seed);
        let mut surge_left = 0u64;
        (0usize..).map(move |t| {
            let phase = 2.0 * std::f64::consts::PI * (t % tr.slots_per_day) as f64
                / tr.slots_per_day as f64;
            let diurnal =
                tr.base + tr.amplitude * (phase - 0.75 * 2.0 * std::f64::consts::PI).cos();
            if surge_left == 0 && s.flip(tr.surge_probability) {
                // Geometric duration with the requested mean.
                surge_left = 1 + s.geometric(1.0 / tr.surge_mean_slots.max(1.0));
            }
            let surge = if surge_left > 0 {
                surge_left -= 1;
                tr.surge_boost
            } else {
                0.0
            };
            let noise = s.lognormal(0.0, tr.noise_sigma);
            (diurnal * noise + surge).clamp(0.0, 1.0)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fraction of slots in `trace` with intensity above
    /// `threshold` — the calibration statistic for "tenant needs spot
    /// capacity ≈15 % of the time".
    fn busy_fraction(trace: &[f64], threshold: f64) -> f64 {
        trace.iter().filter(|&&x| x > threshold).count() as f64 / trace.len() as f64
    }

    #[test]
    fn values_in_unit_interval() {
        let t = ArrivalTrace::google_like(1).generate(50_000);
        assert!(t.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn busy_fraction_near_fifteen_percent() {
        let t = ArrivalTrace::google_like(2).generate(100_000);
        let busy = busy_fraction(&t, 0.8);
        assert!(
            (0.08..=0.25).contains(&busy),
            "busy fraction {busy} outside calibration window"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = ArrivalTrace::google_like(3).generate(500);
        let b = ArrivalTrace::google_like(3).generate(500);
        assert_eq!(a, b);
        assert_ne!(a, ArrivalTrace::google_like(4).generate(500));
    }

    #[test]
    fn diurnal_peak_hours_are_busier() {
        let t = ArrivalTrace::google_like(5)
            .with_slots_per_day(100)
            .generate(100_000);
        // Average intensity around the peak phase (slot 75 of each day)
        // vs the trough (slot 25).
        let avg_at = |phase: usize| -> f64 {
            let vals: Vec<f64> = t
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 100 == phase)
                .map(|(_, &v)| v)
                .collect();
            vals.iter().sum::<f64>() / vals.len() as f64
        };
        assert!(avg_at(75) > avg_at(25) + 0.2);
    }

    #[test]
    fn surges_create_multi_slot_runs() {
        let t = ArrivalTrace {
            base: 0.3,
            surge_probability: 0.02,
            ..ArrivalTrace::google_like(6)
        }
        .generate(50_000);
        // Find at least one run of >= 3 consecutive high slots at the
        // diurnal trough level (only surges can produce those).
        let mut run = 0;
        let mut max_run = 0;
        for &x in &t {
            if x > 0.72 {
                run += 1;
                max_run = max_run.max(run);
            } else {
                run = 0;
            }
        }
        assert!(max_run >= 3, "max high run {max_run}");
    }

    #[test]
    fn zero_surges_with_zero_probability() {
        let t = ArrivalTrace {
            surge_probability: 0.0,
            ..ArrivalTrace::google_like(7)
        }
        .generate(10_000);
        // Without surges the noisy diurnal rarely saturates fully.
        let saturated = t.iter().filter(|&&x| x >= 1.0).count();
        assert!(saturated < 100, "{saturated} saturated slots");
    }
}
