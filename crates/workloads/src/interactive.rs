//! Interactive (latency-sensitive) workload model.
//!
//! *Sprinting* tenants in the paper run CloudSuite Search and Web
//! Serving: request-serving workloads judged by tail latency against a
//! 100 ms SLO (p99 for Search, p90 for Web). An
//! [`InteractiveWorkload`] composes a [`DvfsModel`] (power budget →
//! compute capacity) with an [`MmK`] queue (capacity + load → tail
//! latency), producing the convex latency-vs-power curves of the
//! paper's Fig. 8: ample power keeps latency flat and low; as the
//! budget shrinks toward the load's stability limit, latency rises
//! steeply through the SLO and saturates.

use serde::{Deserialize, Serialize};
use spotdc_units::Watts;

use crate::dvfs::{DvfsModel, OperatingPoint};
use crate::queueing::MmK;

/// A latency-sensitive workload on one rack.
///
/// A budget affords one DVFS operating point, and both the tail
/// latency and the rack's draw are read off it. [`latency`] and
/// [`power_draw`] each find that point; [`latency_and_draw`] finds it
/// once for both, as a slot needs them; [`draw_at`] reads a point
/// found beforehand.
///
/// [`latency`]: Self::latency
/// [`power_draw`]: Self::power_draw
/// [`latency_and_draw`]: Self::latency_and_draw
/// [`draw_at`]: Self::draw_at
///
/// # Examples
///
/// ```
/// use spotdc_workloads::InteractiveWorkload;
/// use spotdc_units::Watts;
///
/// let search = InteractiveWorkload::search_tenant();
/// let lam = search.peak_load();
/// // At the guaranteed 145 W the SLO is violated; spot capacity fixes it.
/// assert!(search.latency(lam, Watts::new(145.0)) > search.slo());
/// let need = search.power_for_slo(lam).expect("feasible at peak power");
/// assert!(search.latency(lam, need) <= search.slo() * 1.0001);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InteractiveWorkload {
    dvfs: DvfsModel,
    /// Per-server service rate at full frequency, req/s.
    mu_max: f64,
    /// Tail percentile used for the SLO metric (0.99 for Search).
    percentile: f64,
    /// The SLO threshold in seconds (0.1 s in the paper).
    slo: f64,
    /// Saturation clamp applied to infinite/huge latencies, seconds.
    latency_cap: f64,
    /// Reference peak arrival rate for this tenant, req/s.
    peak_load: f64,
}

impl InteractiveWorkload {
    /// Creates a workload from its components.
    ///
    /// # Panics
    ///
    /// Panics unless `mu_max > 0`, `percentile ∈ (0,1)`, `slo > 0`,
    /// `latency_cap > slo` and `peak_load ≥ 0`.
    #[must_use]
    pub fn new(
        dvfs: DvfsModel,
        mu_max: f64,
        percentile: f64,
        slo: f64,
        latency_cap: f64,
        peak_load: f64,
    ) -> Self {
        assert!(
            mu_max > 0.0 && mu_max.is_finite(),
            "service rate must be positive"
        );
        assert!(
            percentile > 0.0 && percentile < 1.0,
            "percentile must be in (0,1)"
        );
        assert!(slo > 0.0 && slo.is_finite(), "slo must be positive");
        assert!(latency_cap > slo, "latency cap must exceed the slo");
        assert!(
            peak_load >= 0.0 && peak_load.is_finite(),
            "peak load must be non-negative"
        );
        InteractiveWorkload {
            dvfs,
            mu_max,
            percentile,
            slo,
            latency_cap,
            peak_load,
        }
    }

    /// A Search-like tenant calibrated to Table I: two servers, 145 W
    /// guaranteed capacity, p99 SLO of 100 ms. At its peak load the
    /// guaranteed budget violates the SLO by ≈2× and ≈40 W of spot
    /// capacity restores it.
    #[must_use]
    pub fn search_tenant() -> Self {
        let dvfs = DvfsModel::new(2, Watts::new(40.0), Watts::new(110.0), 0.5, 2.0, 0.2);
        InteractiveWorkload::new(dvfs, 110.0, 0.99, 0.100, 1.0, 145.0)
    }

    /// A Web-Serving-like tenant calibrated to Table I: two servers,
    /// 115 W guaranteed capacity, p90 SLO of 100 ms.
    #[must_use]
    pub fn web_tenant() -> Self {
        let dvfs = DvfsModel::new(2, Watts::new(32.0), Watts::new(88.0), 0.5, 2.0, 0.2);
        InteractiveWorkload::new(dvfs, 80.0, 0.90, 0.100, 1.0, 113.0)
    }

    /// The DVFS model of the rack running this workload.
    #[must_use]
    pub fn dvfs(&self) -> &DvfsModel {
        &self.dvfs
    }

    /// The SLO threshold in seconds.
    #[must_use]
    pub fn slo(&self) -> f64 {
        self.slo
    }

    /// The tail percentile of the SLO metric.
    #[must_use]
    pub fn percentile(&self) -> f64 {
        self.percentile
    }

    /// The reference peak arrival rate, req/s.
    #[must_use]
    pub fn peak_load(&self) -> f64 {
        self.peak_load
    }

    /// Total service capacity (req/s) at full power.
    #[must_use]
    pub fn max_capacity(&self) -> f64 {
        f64::from(self.dvfs.servers()) * self.mu_max
    }

    /// Tail latency (seconds, at this workload's percentile) when
    /// serving `lambda` req/s under `budget` watts. Saturates at the
    /// latency cap instead of returning infinity.
    #[must_use]
    pub fn latency(&self, lambda: f64, budget: Watts) -> f64 {
        self.latency_at(lambda, self.operating_point(budget))
    }

    /// [`latency`](Self::latency) and [`power_draw`](Self::power_draw)
    /// at once, bit for bit: a slot's budget maps to one operating
    /// point, so the DVFS inversion runs once for both.
    #[must_use]
    pub fn latency_and_draw(&self, lambda: f64, budget: Watts) -> (f64, Watts) {
        let op = self.operating_point(budget);
        (
            self.latency_at(lambda, op),
            self.draw_at(lambda, budget, op),
        )
    }

    /// The operating point `budget` affords. A power budget is a hard
    /// cap: the tenant must pick a frequency whose *worst-case* (fully
    /// busy) draw stays under it, so the budget→frequency mapping is
    /// evaluated at utilization 1.
    #[must_use]
    pub fn operating_point(&self, budget: Watts) -> OperatingPoint {
        self.dvfs.operating_point(budget, 1.0)
    }

    /// Tail latency at `op`: the rack behaves as an M/M/k queue with
    /// service rate scaled by the operating point's relative capacity.
    fn latency_at(&self, lambda: f64, op: OperatingPoint) -> f64 {
        let lambda = if lambda <= 0.0 { 0.0 } else { lambda };
        let rel = op.relative_capacity(self.dvfs.serial_fraction());
        let mu_eff = (self.mu_max * rel).max(1e-9);
        MmK::new(self.dvfs.servers(), mu_eff)
            .latency_percentile(lambda, self.percentile)
            .min(self.latency_cap)
    }

    /// Whether the SLO is met at `lambda` req/s under `budget`.
    #[must_use]
    pub fn meets_slo(&self, lambda: f64, budget: Watts) -> bool {
        self.latency(lambda, budget) <= self.slo
    }

    /// The smallest budget meeting the SLO at `lambda` req/s, or `None`
    /// if the SLO is infeasible even at peak power.
    ///
    /// A bisection of at most 100 steps that stops at its fixed point:
    /// once the midpoint rounds to `lo` or `hi`, no later step can move
    /// either bound (`hi` meets the SLO; `lo` is 0, which never does, or
    /// a midpoint that failed), so the answer is the 100-step one.
    #[must_use]
    pub fn power_for_slo(&self, lambda: f64) -> Option<Watts> {
        let peak = self.dvfs.peak_power();
        if !self.meets_slo(lambda, peak) {
            return None;
        }
        let mut lo = 0.0;
        let mut hi = peak.value();
        for _ in 0..100 {
            let mid = 0.5 * (lo + hi);
            if mid == lo || mid == hi {
                break;
            }
            if self.meets_slo(lambda, Watts::new(mid)) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Some(Watts::new(hi))
    }

    /// The power the rack actually draws serving `lambda` req/s under
    /// `budget` — never more than the budget (cap enforcement) nor the
    /// rack's peak power. Used for metered-energy billing.
    #[must_use]
    pub fn power_draw(&self, lambda: f64, budget: Watts) -> Watts {
        self.draw_at(lambda, budget, self.operating_point(budget))
    }

    /// The draw at `op`, the operating point `budget` affords
    /// ([`operating_point`](Self::operating_point)): with that point,
    /// [`power_draw`](Self::power_draw) bit for bit.
    #[must_use]
    pub fn draw_at(&self, lambda: f64, budget: Watts, op: OperatingPoint) -> Watts {
        // Actual busy fraction at the operating point's capacity.
        let cap = op.relative_capacity(self.dvfs.serial_fraction()) * self.max_capacity();
        let u = if cap <= 0.0 {
            1.0
        } else {
            (lambda / cap).clamp(0.0, 1.0)
        };
        let draw = self.dvfs.rack_power(op.frequency, u) * op.active_fraction;
        draw.min(budget.clamp_non_negative())
            .min(self.dvfs.peak_power())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_monotone_decreasing_in_budget() {
        let w = InteractiveWorkload::search_tenant();
        let lam = w.peak_load();
        let mut last = f64::INFINITY;
        for b in [90.0, 110.0, 130.0, 145.0, 170.0, 200.0, 220.0] {
            let d = w.latency(lam, Watts::new(b));
            assert!(d <= last + 1e-9, "latency rose at budget {b}: {d} > {last}");
            last = d;
        }
    }

    #[test]
    fn latency_monotone_increasing_in_load() {
        let w = InteractiveWorkload::search_tenant();
        let b = Watts::new(180.0);
        let mut last = 0.0;
        for lam in [10.0, 50.0, 90.0, 120.0, 150.0] {
            let d = w.latency(lam, b);
            assert!(d >= last - 1e-9);
            last = d;
        }
    }

    #[test]
    fn search_tenant_violates_slo_at_reserved_power_under_peak_load() {
        let w = InteractiveWorkload::search_tenant();
        assert!(!w.meets_slo(w.peak_load(), Watts::new(145.0)));
        assert!(w.meets_slo(w.peak_load(), w.dvfs().peak_power()));
    }

    #[test]
    fn web_tenant_violates_slo_at_reserved_power_under_peak_load() {
        let w = InteractiveWorkload::web_tenant();
        assert!(!w.meets_slo(w.peak_load(), Watts::new(115.0)));
        assert!(w.meets_slo(w.peak_load(), w.dvfs().peak_power()));
    }

    #[test]
    fn power_for_slo_is_tight() {
        let w = InteractiveWorkload::search_tenant();
        let lam = w.peak_load();
        let need = w.power_for_slo(lam).unwrap();
        assert!(w.meets_slo(lam, need + Watts::new(0.01)));
        assert!(!w.meets_slo(lam, need - Watts::new(0.5)));
        // Spot demand beyond the 145 W reservation is modest (fits the
        // 50% rack headroom of the scenario).
        let spot_needed = need - Watts::new(145.0);
        assert!(
            spot_needed > Watts::ZERO && spot_needed < Watts::new(72.5),
            "spot needed: {spot_needed}"
        );
    }

    #[test]
    fn power_for_slo_none_when_infeasible() {
        let w = InteractiveWorkload::search_tenant();
        // Load beyond total capacity can never meet the SLO.
        assert!(w.power_for_slo(w.max_capacity() * 1.5).is_none());
    }

    #[test]
    fn latency_saturates_at_cap_not_infinity() {
        let w = InteractiveWorkload::search_tenant();
        let d = w.latency(w.max_capacity() * 2.0, Watts::new(145.0));
        assert_eq!(d, 1.0);
    }

    #[test]
    fn light_load_meets_slo_at_low_power() {
        let w = InteractiveWorkload::search_tenant();
        assert!(w.meets_slo(20.0, Watts::new(120.0)));
    }

    #[test]
    fn power_draw_respects_budget_and_load() {
        let w = InteractiveWorkload::search_tenant();
        let lam = w.peak_load();
        for b in [100.0, 145.0, 180.0, 220.0, 500.0] {
            let budget = Watts::new(b);
            let draw = w.power_draw(lam, budget);
            assert!(draw <= budget + Watts::new(1e-9));
            assert!(draw <= w.dvfs().peak_power() + Watts::new(1e-9));
        }
        // Light load draws less than heavy load under the same budget.
        let light = w.power_draw(20.0, Watts::new(200.0));
        let heavy = w.power_draw(120.0, Watts::new(200.0));
        assert!(light < heavy);
    }

    #[test]
    fn zero_load_latency_is_service_floor() {
        let w = InteractiveWorkload::search_tenant();
        let d = w.latency(0.0, Watts::new(200.0));
        assert!(d > 0.0 && d < w.slo());
    }
}
