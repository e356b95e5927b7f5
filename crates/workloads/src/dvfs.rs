//! DVFS: the mapping between rack power budgets and compute speed.
//!
//! Tenants enforce power caps by scaling CPU frequency/voltage (RAPL
//! exposes watt-granularity caps). [`DvfsModel`] captures a rack of `k`
//! identical servers:
//!
//! * **speed**: normalized frequency `φ ∈ [φ_min, 1]` yields relative
//!   performance `s(φ) = σ + (1 − σ)·φ` — the serial fraction `σ` is the
//!   part of the work (memory, I/O) that does not scale with frequency;
//! * **power**: a busy server at frequency `φ` draws
//!   `p_idle + (p_peak − p_idle)·φ^γ` with `γ ≈ 2` for the `V²f`
//!   dynamic-power law; a server busy a fraction `u` of the time draws
//!   the dynamic part scaled by `u`;
//! * **deactivation**: budgets below the all-servers-at-`φ_min` knee are
//!   met by deactivating servers, scaling capacity linearly to zero.
//!
//! Inverting this model (budget → fastest feasible operating point) is
//! what turns a spot-capacity grant into a performance gain.

use serde::{Deserialize, Serialize};
use spotdc_units::Watts;

/// The operating point a power budget affords: how many servers are
/// active and at what normalized frequency.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OperatingPoint {
    /// Fraction of the rack's servers kept active, in `[0, 1]`.
    pub active_fraction: f64,
    /// Normalized frequency of active servers, in `[φ_min, 1]`.
    pub frequency: f64,
}

impl OperatingPoint {
    /// Relative compute capacity of this operating point under speed
    /// law `s(φ) = σ + (1−σ)φ`, normalized so full power = 1.
    #[must_use]
    pub fn relative_capacity(&self, serial_fraction: f64) -> f64 {
        let s = serial_fraction + (1.0 - serial_fraction) * self.frequency;
        self.active_fraction * s
    }
}

/// DVFS power/speed model for a rack of identical servers.
///
/// # Examples
///
/// ```
/// use spotdc_workloads::DvfsModel;
/// use spotdc_units::Watts;
///
/// let rack = DvfsModel::new(8, Watts::new(8.0), Watts::new(20.0), 0.5, 2.0, 0.2);
/// // Full budget runs everything at full frequency:
/// let op = rack.operating_point(rack.peak_power(), 1.0);
/// assert!((op.frequency - 1.0).abs() < 1e-6);
/// assert!((op.active_fraction - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DvfsModel {
    servers: u32,
    idle: Watts,
    peak: Watts,
    freq_min: f64,
    gamma: f64,
    serial_fraction: f64,
}

impl DvfsModel {
    /// Creates a model.
    ///
    /// * `servers` — servers in the rack;
    /// * `idle`/`peak` — per-server idle and full-power draw;
    /// * `freq_min` — lowest normalized DVFS frequency, in `(0, 1]`;
    /// * `gamma` — dynamic-power exponent (≥ 1, typically ≈ 2);
    /// * `serial_fraction` — fraction of work insensitive to frequency,
    ///   in `[0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is outside its documented range or
    /// `peak ≤ idle`.
    #[must_use]
    pub fn new(
        servers: u32,
        idle: Watts,
        peak: Watts,
        freq_min: f64,
        gamma: f64,
        serial_fraction: f64,
    ) -> Self {
        assert!(servers > 0, "need at least one server");
        assert!(
            idle.is_finite() && !idle.is_negative(),
            "idle power must be non-negative"
        );
        assert!(peak > idle, "peak power must exceed idle power");
        assert!(
            freq_min > 0.0 && freq_min <= 1.0,
            "minimum frequency must be in (0,1]"
        );
        assert!(gamma >= 1.0 && gamma.is_finite(), "gamma must be >= 1");
        assert!(
            (0.0..1.0).contains(&serial_fraction),
            "serial fraction must be in [0,1)"
        );
        DvfsModel {
            servers,
            idle,
            peak,
            freq_min,
            gamma,
            serial_fraction,
        }
    }

    /// Number of servers in the rack.
    #[must_use]
    pub fn servers(&self) -> u32 {
        self.servers
    }

    /// The speed-law serial fraction `σ`.
    #[must_use]
    pub fn serial_fraction(&self) -> f64 {
        self.serial_fraction
    }

    /// The minimum normalized frequency `φ_min`.
    #[must_use]
    pub fn freq_min(&self) -> f64 {
        self.freq_min
    }

    /// Rack power with all servers active at frequency `phi` and busy a
    /// fraction `utilization` of the time.
    #[must_use]
    pub fn rack_power(&self, phi: f64, utilization: f64) -> Watts {
        let dynamic = (self.peak - self.idle) * (utilization * phi.powf(self.gamma));
        (self.idle + dynamic) * f64::from(self.servers)
    }

    /// Rack power at full utilization and full frequency — the most
    /// the rack can draw.
    #[must_use]
    pub fn peak_power(&self) -> Watts {
        self.rack_power(1.0, 1.0)
    }

    /// The fastest operating point whose busy-power fits `budget`.
    ///
    /// `utilization` is the anticipated busy fraction at full speed; the
    /// returned point is conservative in that power is evaluated at this
    /// utilization (batch workloads pass 1.0). Budgets above
    /// [`peak_power`](Self::peak_power) saturate at full speed; budgets
    /// below the deactivation knee scale `active_fraction` linearly;
    /// a non-positive budget deactivates everything.
    #[must_use]
    pub fn operating_point(&self, budget: Watts, utilization: f64) -> OperatingPoint {
        let u = utilization.clamp(0.0, 1.0);
        if budget <= Watts::ZERO {
            return OperatingPoint {
                active_fraction: 0.0,
                frequency: self.freq_min,
            };
        }
        let knee = self.rack_power(self.freq_min, u);
        if budget <= knee {
            return OperatingPoint {
                active_fraction: (budget / knee).min(1.0),
                frequency: self.freq_min,
            };
        }
        if budget >= self.rack_power(1.0, u) {
            return OperatingPoint {
                active_fraction: 1.0,
                frequency: 1.0,
            };
        }
        // rack_power(φ, u) is strictly increasing in φ: bisect.
        let mut lo = self.freq_min;
        let mut hi = 1.0;
        for _ in 0..100 {
            let mid = 0.5 * (lo + hi);
            if self.rack_power(mid, u) <= budget {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        OperatingPoint {
            active_fraction: 1.0,
            frequency: lo,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rack() -> DvfsModel {
        DvfsModel::new(8, Watts::new(8.0), Watts::new(20.0), 0.5, 2.0, 0.2)
    }

    /// The relative capacity `budget` affords a fully busy rack.
    fn capacity(r: &DvfsModel, budget: Watts) -> f64 {
        r.operating_point(budget, 1.0)
            .relative_capacity(r.serial_fraction())
    }

    #[test]
    fn power_endpoints() {
        let r = rack();
        assert_eq!(r.peak_power(), Watts::new(8.0 * 20.0));
        // knee: 8 * (8 + 12 * 0.5^2) = 8 * 11 = 88
        assert_eq!(r.rack_power(r.freq_min(), 1.0), Watts::new(88.0));
    }

    #[test]
    fn power_monotone_in_frequency() {
        let r = rack();
        let mut last = Watts::ZERO;
        for i in 0..=10 {
            let phi = 0.5 + 0.05 * f64::from(i);
            let p = r.rack_power(phi, 1.0);
            assert!(p > last);
            last = p;
        }
    }

    #[test]
    fn operating_point_saturates_at_peak() {
        let r = rack();
        let op = r.operating_point(Watts::new(1e6), 1.0);
        assert_eq!(op.frequency, 1.0);
        assert_eq!(op.active_fraction, 1.0);
    }

    #[test]
    fn operating_point_inverts_power() {
        let r = rack();
        for budget in [95.0, 110.0, 130.0, 150.0] {
            let op = r.operating_point(Watts::new(budget), 1.0);
            assert_eq!(op.active_fraction, 1.0);
            let back = r.rack_power(op.frequency, 1.0);
            assert!(
                (back.value() - budget).abs() < 1e-6,
                "budget {budget} -> phi {} -> power {back}",
                op.frequency
            );
        }
    }

    #[test]
    fn below_knee_deactivates_servers() {
        let r = rack();
        let op = r.operating_point(Watts::new(44.0), 1.0); // half the knee
        assert_eq!(op.frequency, r.freq_min());
        assert!((op.active_fraction - 0.5).abs() < 1e-9);
    }

    #[test]
    fn zero_budget_zero_capacity() {
        let r = rack();
        assert_eq!(capacity(&r, Watts::ZERO), 0.0);
        assert_eq!(capacity(&r, Watts::new(-5.0)), 0.0);
    }

    #[test]
    fn capacity_monotone_in_budget() {
        let r = rack();
        let mut last = -1.0;
        for b in (0..=32).map(|i| f64::from(i) * 5.0) {
            let c = capacity(&r, Watts::new(b));
            assert!(c >= last - 1e-12, "capacity dropped at budget {b}");
            last = c;
        }
        assert!((capacity(&r, r.peak_power()) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn utilization_scales_dynamic_power_only() {
        let r = rack();
        let idle_rack = r.rack_power(1.0, 0.0);
        assert_eq!(idle_rack, Watts::new(64.0)); // 8 servers × 8 W idle
        assert!(r.rack_power(1.0, 0.5) < r.rack_power(1.0, 1.0));
    }

    #[test]
    fn speed_law_endpoints() {
        // s(φ) = σ + (1 − σ)·φ with σ = 0.2: 1 at full frequency, 0.6 at
        // the φ_min = 0.5 knee.
        let r = rack();
        assert!((capacity(&r, r.peak_power()) - 1.0).abs() < 1e-12);
        assert!((capacity(&r, Watts::new(88.0)) - 0.6).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "peak power must exceed idle")]
    fn peak_below_idle_rejected() {
        let _ = DvfsModel::new(1, Watts::new(10.0), Watts::new(5.0), 0.5, 2.0, 0.0);
    }
}
