//! Batch (throughput-oriented) workload model.
//!
//! *Opportunistic* tenants in the paper run Hadoop WordCount/TeraSort
//! and PowerGraph analytics: delay-tolerant jobs that continuously chew
//! through a backlog, judged by throughput (data or nodes processed per
//! second) — equivalently the inverse of job completion time. A
//! [`BatchWorkload`] maps a power budget through the [`DvfsModel`] to a
//! processing rate; spot capacity buys throughput roughly linearly
//! until the rack saturates (the paper's Fig. 11 shows up to 1.5×).

use serde::{Deserialize, Serialize};
use spotdc_units::Watts;

use crate::dvfs::{DvfsModel, OperatingPoint};

/// A throughput-oriented workload on one rack.
///
/// Throughput is expressed in abstract work units per second;
/// `throughput_max` fixes the scale (e.g. MB/s for WordCount, nodes/s
/// for graph analytics).
///
/// A budget affords one DVFS operating point, and both the rate and
/// the rack's draw are read off it. [`throughput`] and [`power_draw`]
/// each find that point; [`throughput_and_draw`] finds it once for
/// both, as a slot needs them; [`draw_at`] reads a point found
/// beforehand.
///
/// [`throughput`]: Self::throughput
/// [`power_draw`]: Self::power_draw
/// [`throughput_and_draw`]: Self::throughput_and_draw
/// [`draw_at`]: Self::draw_at
///
/// # Examples
///
/// ```
/// use spotdc_workloads::BatchWorkload;
/// use spotdc_units::Watts;
///
/// let wc = BatchWorkload::word_count_tenant();
/// let at_reserved = wc.throughput(Watts::new(125.0));
/// let boosted = wc.throughput(Watts::new(180.0));
/// assert!(boosted > at_reserved * 1.2); // spot capacity speeds processing
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BatchWorkload {
    dvfs: DvfsModel,
    /// Work units per second at full power.
    throughput_max: f64,
}

impl BatchWorkload {
    /// Creates a batch workload.
    ///
    /// # Panics
    ///
    /// Panics unless `throughput_max` is positive and finite.
    #[must_use]
    pub fn new(dvfs: DvfsModel, throughput_max: f64) -> Self {
        assert!(
            throughput_max > 0.0 && throughput_max.is_finite(),
            "max throughput must be positive"
        );
        BatchWorkload {
            dvfs,
            throughput_max,
        }
    }

    /// A WordCount-like Hadoop tenant calibrated to Table I (125 W
    /// guaranteed). Throughput unit: MB/s of input processed.
    #[must_use]
    pub fn word_count_tenant() -> Self {
        let dvfs = DvfsModel::new(2, Watts::new(35.0), Watts::new(105.0), 0.5, 2.0, 0.25);
        BatchWorkload::new(dvfs, 50.0)
    }

    /// A TeraSort-like Hadoop tenant calibrated to Table I (125 W
    /// guaranteed). Throughput unit: MB/s sorted.
    #[must_use]
    pub fn tera_sort_tenant() -> Self {
        let dvfs = DvfsModel::new(2, Watts::new(35.0), Watts::new(105.0), 0.5, 2.0, 0.35);
        BatchWorkload::new(dvfs, 30.0)
    }

    /// A PowerGraph-like analytics tenant calibrated to Table I (115 W
    /// guaranteed). Throughput unit: knodes/s processed.
    #[must_use]
    pub fn graph_tenant() -> Self {
        let dvfs = DvfsModel::new(2, Watts::new(30.0), Watts::new(90.0), 0.5, 2.0, 0.3);
        BatchWorkload::new(dvfs, 80.0)
    }

    /// The DVFS model of the rack running this workload.
    #[must_use]
    pub fn dvfs(&self) -> &DvfsModel {
        &self.dvfs
    }

    /// Throughput at full power, work units/s.
    #[must_use]
    pub fn throughput_max(&self) -> f64 {
        self.throughput_max
    }

    /// Throughput under `budget` watts, work units/s.
    #[must_use]
    pub fn throughput(&self, budget: Watts) -> f64 {
        self.throughput_at(self.operating_point(budget))
    }

    /// Actual power drawn when busy under `budget` — the operating
    /// point's draw, never exceeding the budget or the rack's peak.
    #[must_use]
    pub fn power_draw(&self, budget: Watts) -> Watts {
        self.draw_at(budget, self.operating_point(budget))
    }

    /// [`throughput`](Self::throughput) and
    /// [`power_draw`](Self::power_draw) at once, bit for bit: a slot's
    /// budget maps to one operating point, so the DVFS inversion runs
    /// once for both.
    #[must_use]
    pub fn throughput_and_draw(&self, budget: Watts) -> (f64, Watts) {
        let op = self.operating_point(budget);
        (self.throughput_at(op), self.draw_at(budget, op))
    }

    /// The operating point `budget` affords. A batch rack with backlog
    /// is always fully busy, so power is evaluated at utilization 1.
    #[must_use]
    pub fn operating_point(&self, budget: Watts) -> OperatingPoint {
        self.dvfs.operating_point(budget, 1.0)
    }

    /// The rate at `op`: full-power throughput scaled by the operating
    /// point's relative capacity.
    fn throughput_at(&self, op: OperatingPoint) -> f64 {
        self.throughput_max * op.relative_capacity(self.dvfs.serial_fraction())
    }

    /// The busy draw at `op`, the operating point `budget` affords
    /// ([`operating_point`](Self::operating_point)): with that point,
    /// [`power_draw`](Self::power_draw) bit for bit.
    #[must_use]
    pub fn draw_at(&self, budget: Watts, op: OperatingPoint) -> Watts {
        let draw = self.dvfs.rack_power(op.frequency, 1.0) * op.active_fraction;
        draw.min(budget.clamp_non_negative())
            .min(self.dvfs.peak_power())
    }

    /// The throughput speed-up of budget `b` relative to budget `base`
    /// (e.g. reserved capacity), `1.0` when equal.
    #[must_use]
    pub fn speedup(&self, b: Watts, base: Watts) -> f64 {
        let t0 = self.throughput(base);
        if t0 <= 0.0 {
            return if self.throughput(b) > 0.0 {
                f64::INFINITY
            } else {
                1.0
            };
        }
        self.throughput(b) / t0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_monotone_in_budget() {
        let w = BatchWorkload::word_count_tenant();
        let mut last = -1.0;
        for b in (0..=42).map(|i| f64::from(i) * 5.0) {
            let t = w.throughput(Watts::new(b));
            assert!(t >= last - 1e-12);
            last = t;
        }
    }

    #[test]
    fn throughput_saturates_at_peak_power() {
        let w = BatchWorkload::word_count_tenant();
        let peak = w.dvfs().peak_power();
        assert!((w.throughput(peak) - w.throughput_max()).abs() < 1e-9);
        assert!((w.throughput(peak + Watts::new(100.0)) - w.throughput_max()).abs() < 1e-9);
    }

    #[test]
    fn spot_capacity_gives_material_speedup() {
        // The paper's testbed shows up to 1.5x for opportunistic tenants.
        let w = BatchWorkload::word_count_tenant();
        let s = w.speedup(Watts::new(187.5), Watts::new(125.0)); // +50% headroom
        assert!(s > 1.2 && s < 2.0, "speedup {s}");
    }

    #[test]
    fn power_draw_tracks_budget_until_peak() {
        let w = BatchWorkload::word_count_tenant();
        // Busy rack: draw ≈ budget in the DVFS region.
        for b in [90.0, 125.0, 160.0, 200.0] {
            let draw = w.power_draw(Watts::new(b));
            assert!(draw <= Watts::new(b) + Watts::new(1e-9));
            assert!(draw >= Watts::new(b) * 0.95, "draw {draw} for budget {b}");
        }
        let above = w.power_draw(w.dvfs().peak_power() + Watts::new(50.0));
        assert!(above.approx_eq(w.dvfs().peak_power(), 1e-9));
    }

    #[test]
    fn speedup_baseline_is_one() {
        let w = BatchWorkload::graph_tenant();
        assert!((w.speedup(Watts::new(115.0), Watts::new(115.0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "max throughput must be positive")]
    fn zero_throughput_rejected() {
        let dvfs = DvfsModel::new(1, Watts::new(5.0), Watts::new(10.0), 0.5, 2.0, 0.0);
        let _ = BatchWorkload::new(dvfs, 0.0);
    }
}
