//! Synthetic PDU-level aggregate power traces.
//!
//! SpotDC's spot-capacity supply is whatever the *non-participating*
//! tenants leave unused at each shared PDU. The paper drives this with
//! a 3-month power trace from a commercial colo PDU whose key property
//! (its Fig. 7a, corroborated by \[7\]) is *slow variation*: thanks to
//! statistical multiplexing, PDU power changes by less than ±2.5 %
//! between consecutive minutes ≈99 % of the time.
//!
//! [`PduPowerTrace`] reproduces that with a mean-reverting AR(1)
//! process around a diurnal baseline, plus rare spikes, in two presets:
//! [`PduPowerTrace::colo_like`] is calibrated to the paper's statistic,
//! and [`PduPowerTrace::volatile`] stresses prediction (the 20-minute
//! testbed run of Fig. 10 deliberately uses a *more* volatile trace
//! than reality).

use serde::{Deserialize, Serialize};
use spotdc_units::Watts;

use crate::dist::Sampler;

/// Generator of per-slot aggregate power for a group of
/// non-participating tenants on one PDU.
///
/// The generated value is always inside `[floor, ceiling]`.
///
/// # Examples
///
/// ```
/// use spotdc_traces::PduPowerTrace;
/// use spotdc_units::Watts;
///
/// let trace = PduPowerTrace::colo_like(Watts::new(250.0), 11).generate(500);
/// assert_eq!(trace.len(), 500);
/// assert!(trace.iter().all(|&p| p.value() > 0.0));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PduPowerTrace {
    /// Long-run mean power.
    mean: Watts,
    /// Lower clamp (never below this).
    floor: Watts,
    /// Upper clamp (the group's subscribed capacity).
    ceiling: Watts,
    /// AR(1) mean-reversion coefficient in `[0, 1)`; close to 1 = slow.
    persistence: f64,
    /// Innovation standard deviation as a fraction of the mean.
    volatility: f64,
    /// Amplitude of the diurnal swing as a fraction of the mean.
    diurnal_amplitude: f64,
    /// Slots per simulated day (for the diurnal component).
    slots_per_day: usize,
    /// Probability per slot of a transient spike.
    spike_probability: f64,
    /// Spike magnitude as a fraction of the mean.
    spike_magnitude: f64,
    /// Fraction of the day at which the diurnal component peaks.
    peak_phase: f64,
    seed: u64,
}

impl PduPowerTrace {
    /// A trace calibrated to the paper's statistics: ≈99 % of
    /// slot-to-slot changes within ±2.5 % of the level, gentle diurnal
    /// swing, rare small spikes. `mean` is the group's typical draw.
    #[must_use]
    pub fn colo_like(mean: Watts, seed: u64) -> Self {
        PduPowerTrace {
            mean,
            floor: mean * 0.55,
            ceiling: mean * 1.35,
            persistence: 0.98,
            volatility: 0.008,
            diurnal_amplitude: 0.15,
            slots_per_day: 720, // 2-minute slots
            spike_probability: 0.002,
            spike_magnitude: 0.08,
            peak_phase: 0.75,
            seed,
        }
    }

    /// The deliberately volatile variant used for the 20-minute testbed
    /// run (paper Fig. 10): larger innovations and frequent swings so
    /// that spot availability visibly moves across ten slots.
    #[must_use]
    pub fn volatile(mean: Watts, seed: u64) -> Self {
        PduPowerTrace {
            persistence: 0.80,
            volatility: 0.08,
            spike_probability: 0.05,
            spike_magnitude: 0.2,
            ..Self::colo_like(mean, seed)
        }
    }

    /// Overrides the clamping range.
    ///
    /// # Panics
    ///
    /// Panics if `floor > ceiling`.
    #[must_use]
    pub fn with_bounds(mut self, floor: Watts, ceiling: Watts) -> Self {
        assert!(floor <= ceiling, "floor must not exceed ceiling");
        self.floor = floor;
        self.ceiling = ceiling;
        self
    }

    /// Overrides the fraction of the day at which the diurnal swing
    /// peaks (tenants in a shared facility peak at different hours).
    ///
    /// # Panics
    ///
    /// Panics unless `phase ∈ [0, 1]`.
    #[must_use]
    pub fn with_peak_phase(mut self, phase: f64) -> Self {
        assert!((0.0..=1.0).contains(&phase), "phase must be in [0,1]");
        self.peak_phase = phase;
        self
    }

    /// The long-run mean power.
    #[must_use]
    pub fn mean(&self) -> Watts {
        self.mean
    }

    /// Generates `slots` power readings: the first steps of [`Self::cursor`].
    #[must_use]
    pub fn generate(&self, slots: usize) -> Vec<Watts> {
        self.cursor().take(slots).collect()
    }

    /// The trace stepped one slot at a time: an endless iterator of
    /// power readings.
    pub fn cursor(&self) -> impl Iterator<Item = Watts> + Send {
        let tr = self.clone();
        let mut s = Sampler::seeded(self.seed);
        let mut deviation = 0.0f64; // AR(1) state around the baseline
        let sigma = self.mean.value() * self.volatility;
        (0usize..).map(move |t| {
            let phase = 2.0 * std::f64::consts::PI * (t % tr.slots_per_day) as f64
                / tr.slots_per_day as f64;
            // Evening peak shape: maximum at 3/4 of the day.
            let baseline = tr.mean.value()
                * (1.0
                    + tr.diurnal_amplitude
                        * (phase - tr.peak_phase * 2.0 * std::f64::consts::PI).cos());
            deviation = tr.persistence * deviation + s.normal(0.0, sigma);
            let mut level = baseline + deviation;
            if s.flip(tr.spike_probability) {
                let sign = if s.flip(0.5) { 1.0 } else { -1.0 };
                level += sign * tr.mean.value() * tr.spike_magnitude * s.uniform();
            }
            Watts::new(level).clamp(tr.floor, tr.ceiling)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::VariationStats;

    #[test]
    fn stays_within_bounds() {
        let tr = PduPowerTrace::colo_like(Watts::new(500.0), 1);
        for p in tr.generate(50_000) {
            assert!(p >= Watts::new(500.0 * 0.55) && p <= Watts::new(500.0 * 1.35));
        }
    }

    #[test]
    fn colo_like_matches_paper_variation_statistic() {
        // ≈99% of slot-to-slot changes within ±2.5% (paper Fig. 7a).
        let tr = PduPowerTrace::colo_like(Watts::new(500.0), 2);
        let series: Vec<f64> = tr.generate(100_000).iter().map(|w| w.value()).collect();
        let stats = VariationStats::from_series(&series);
        let frac = stats.fraction_within(0.025);
        assert!(frac > 0.985, "only {frac} of deltas within ±2.5%");
    }

    #[test]
    fn volatile_variant_is_more_volatile() {
        let calm: Vec<f64> = PduPowerTrace::colo_like(Watts::new(500.0), 3)
            .generate(20_000)
            .iter()
            .map(|w| w.value())
            .collect();
        let wild: Vec<f64> = PduPowerTrace::volatile(Watts::new(500.0), 3)
            .generate(20_000)
            .iter()
            .map(|w| w.value())
            .collect();
        let f_calm = VariationStats::from_series(&calm).fraction_within(0.025);
        let f_wild = VariationStats::from_series(&wild).fraction_within(0.025);
        assert!(f_wild < f_calm, "volatile {f_wild} vs calm {f_calm}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = PduPowerTrace::colo_like(Watts::new(100.0), 5).generate(100);
        let b = PduPowerTrace::colo_like(Watts::new(100.0), 5).generate(100);
        let c = PduPowerTrace::colo_like(Watts::new(100.0), 6).generate(100);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn mean_level_is_respected() {
        let tr = PduPowerTrace::colo_like(Watts::new(400.0), 8);
        let series = tr.generate(50_000);
        let avg = series.iter().map(|w| w.value()).sum::<f64>() / series.len() as f64;
        assert!((avg - 400.0).abs() < 400.0 * 0.05, "avg {avg}");
    }

    #[test]
    fn diurnal_pattern_repeats_daily() {
        let tr = PduPowerTrace {
            volatility: 0.0,
            spike_probability: 0.0,
            slots_per_day: 100,
            ..PduPowerTrace::colo_like(Watts::new(500.0), 9)
        };
        let series = tr.generate(300);
        // With volatility and spikes zeroed the trace is the pure
        // diurnal baseline.
        for t in 0..100 {
            assert!(series[t].approx_eq(series[t + 100], 1e-6));
        }
        // And it actually swings.
        let max = series.iter().cloned().fold(Watts::ZERO, Watts::max);
        let min = series.iter().cloned().fold(Watts::new(1e12), Watts::min);
        assert!(max.value() - min.value() > 50.0);
    }

    #[test]
    fn bounds_override_clamps() {
        let tr = PduPowerTrace::volatile(Watts::new(100.0), 4)
            .with_bounds(Watts::new(90.0), Watts::new(110.0));
        for p in tr.generate(5000) {
            assert!(p >= Watts::new(90.0) && p <= Watts::new(110.0));
        }
    }
}
