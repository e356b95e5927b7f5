//! Performance-gain curves: what spot capacity is worth in dollars.
//!
//! A [`GainCurve`] tabulates `gain(s)` — the $/hour a tenant saves by
//! adding `s` watts of spot capacity on top of its reserved budget
//! (cost at reserved minus cost at reserved + s; the paper's Fig. 9).
//! The curve is the common currency of the whole market:
//!
//! * tenants derive their bids from it (optimal demand at a price is
//!   where the curve's marginal value crosses the price);
//! * `FullBid` *is* its inverse-marginal function;
//! * `MaxPerf` water-fills across tenants' curves.
//!
//! The raw tabulated curve can be slightly non-concave (queueing knees,
//! server-deactivation kinks); [`GainCurve::concave_envelope`] takes the
//! upper concave hull, which is what marginal-value reasoning needs.

use serde::{Deserialize, Serialize};
use spotdc_units::{Price, Watts};

/// Cap applied to infinite/huge cost rates when sampling a gain curve,
/// so that gains stay finite.
const COST_CAP: f64 = 1e9;

/// A tabulated, non-decreasing mapping from spot watts to $/hour of
/// performance gain, anchored at `gain(0) = 0`.
///
/// # Examples
///
/// ```
/// use spotdc_workloads::{BatchWorkload, GainCurve, OpportunisticCost};
/// use spotdc_units::{Price, Watts};
///
/// let wl = BatchWorkload::word_count_tenant();
/// let cost = OpportunisticCost::new(0.001, 3000.0, 2.0);
/// let curve = GainCurve::from_cost_rate(Watts::new(125.0), Watts::new(62.5), 64, |b| {
///     cost.cost_rate_at_throughput(wl.throughput(b))
/// });
/// assert_eq!(curve.gain(Watts::ZERO), 0.0);
/// assert!(curve.gain(Watts::new(60.0)) > 0.0);
/// // Demand shrinks as the price rises:
/// let cheap = curve.demand_at_price(Price::per_kw_hour(0.01));
/// let dear = curve.demand_at_price(Price::per_kw_hour(1.0));
/// assert!(cheap >= dear);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GainCurve {
    /// `(spot_watts, gain_usd_per_hour)` samples, strictly increasing
    /// in watts, non-decreasing in gain, starting at `(0, 0)`.
    points: Vec<(f64, f64)>,
}

impl GainCurve {
    /// Builds a curve by sampling `cost_rate` (a $/hour cost as a
    /// function of total budget) at `samples + 1` evenly spaced spot
    /// levels in `[0, max_spot]`.
    ///
    /// Gains are clipped to be non-negative and non-decreasing (extra
    /// power never *hurts*; any numeric dip from the underlying model is
    /// flattened). Infinite cost rates are capped so gains stay finite.
    ///
    /// # Panics
    ///
    /// Panics if `max_spot` is negative/non-finite or `samples == 0`.
    #[must_use]
    pub fn from_cost_rate(
        reserved: Watts,
        max_spot: Watts,
        samples: usize,
        cost_rate: impl Fn(Watts) -> f64,
    ) -> Self {
        let costs = Self::spot_levels(max_spot, samples).map(|s| cost_rate(reserved + s));
        Self::from_costs(max_spot, samples, cost_rate(reserved), costs)
    }

    /// Builds a curve from cost rates already sampled: `base` at the
    /// reserved budget and one per [spot level](Self::spot_levels), in
    /// order. Clipping and capping are as in
    /// [`from_cost_rate`](Self::from_cost_rate).
    ///
    /// # Panics
    ///
    /// Panics if `max_spot` is negative/non-finite, `samples == 0`, or
    /// `costs` does not yield exactly `samples + 1` values.
    #[must_use]
    pub fn from_costs(
        max_spot: Watts,
        samples: usize,
        base: f64,
        costs: impl IntoIterator<Item = f64>,
    ) -> Self {
        assert!(samples > 0, "need at least one sample interval");
        assert!(
            max_spot.is_finite() && !max_spot.is_negative(),
            "max spot must be non-negative"
        );
        let base = base.min(COST_CAP);
        let mut points = Vec::with_capacity(samples + 1);
        let mut best = 0.0f64;
        let mut costs = costs.into_iter();
        for s in Self::spot_levels(max_spot, samples) {
            let cost = costs.next().expect("one cost per spot level").min(COST_CAP);
            let gain = (base - cost).max(0.0);
            best = best.max(gain);
            points.push((s.value(), best));
        }
        assert!(costs.next().is_none(), "one cost per spot level");
        GainCurve { points }
    }

    /// The `samples + 1` evenly spaced spot levels in `[0, max_spot]` a
    /// curve is tabulated at.
    pub fn spot_levels(max_spot: Watts, samples: usize) -> impl Iterator<Item = Watts> {
        (0..=samples).map(move |i| Watts::new(max_spot.value() * i as f64 / samples as f64))
    }

    /// Builds a curve directly from `(spot_watts, gain)` samples.
    ///
    /// Samples are sorted by watts; duplicate abscissae keep the larger
    /// gain; gains are clipped non-negative, made non-decreasing, and
    /// the curve is anchored at `(0, 0)`.
    ///
    /// # Panics
    ///
    /// Panics if any sample is non-finite or has negative watts.
    #[must_use]
    pub fn from_samples(samples: impl IntoIterator<Item = (f64, f64)>) -> Self {
        let mut pts: Vec<(f64, f64)> = samples.into_iter().collect();
        for &(w, g) in &pts {
            assert!(w.is_finite() && g.is_finite(), "samples must be finite");
            assert!(w >= 0.0, "spot watts must be non-negative");
        }
        pts.push((0.0, 0.0));
        pts.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
        pts.dedup_by(|next, prev| {
            if (next.0 - prev.0).abs() < 1e-12 {
                prev.1 = prev.1.max(next.1);
                true
            } else {
                false
            }
        });
        let mut best = 0.0f64;
        for p in &mut pts {
            best = best.max(p.1.max(0.0));
            p.1 = best;
        }
        GainCurve { points: pts }
    }

    /// The tabulated sample points.
    #[must_use]
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// The largest spot level the curve covers.
    #[must_use]
    pub fn max_spot(&self) -> Watts {
        Watts::new(self.points.last().map(|p| p.0).unwrap_or(0.0))
    }

    /// The gain at the largest tabulated spot level.
    #[must_use]
    pub fn max_gain(&self) -> f64 {
        self.points.last().map(|p| p.1).unwrap_or(0.0)
    }

    /// Linearly interpolated gain ($/hour) at `spot` watts. Clamps to
    /// the tabulated range.
    #[must_use]
    pub fn gain(&self, spot: Watts) -> f64 {
        let s = spot.value();
        let pts = &self.points;
        if pts.is_empty() || s <= pts[0].0 {
            return pts.first().map(|p| p.1).unwrap_or(0.0);
        }
        if s >= pts[pts.len() - 1].0 {
            return pts[pts.len() - 1].1;
        }
        let i = pts.partition_point(|p| p.0 <= s);
        let (x0, y0) = pts[i - 1];
        let (x1, y1) = pts[i];
        if x1 - x0 < 1e-15 {
            return y1;
        }
        y0 + (y1 - y0) * (s - x0) / (x1 - x0)
    }

    /// The upper concave hull of the curve: the least concave majorant
    /// over the sample points. The result has the same endpoints and is
    /// suitable for marginal-value queries.
    #[must_use]
    pub fn concave_envelope(&self) -> GainCurve {
        if self.points.len() <= 2 {
            return self.clone();
        }
        // Monotone-chain upper hull over points sorted by x.
        let mut hull: Vec<(f64, f64)> = Vec::with_capacity(self.points.len());
        for &p in &self.points {
            while hull.len() >= 2 {
                let a = hull[hull.len() - 2];
                let b = hull[hull.len() - 1];
                // Remove b if it lies below segment a->p (cross product).
                let cross = (b.0 - a.0) * (p.1 - a.1) - (b.1 - a.1) * (p.0 - a.0);
                if cross >= 0.0 {
                    hull.pop();
                } else {
                    break;
                }
            }
            hull.push(p);
        }
        GainCurve { points: hull }
    }

    /// The marginal gain in $/hour per **watt** of the segment
    /// containing `spot` (the right-derivative; zero past the end).
    #[must_use]
    pub fn marginal(&self, spot: Watts) -> f64 {
        let s = spot.value();
        let pts = &self.points;
        if pts.len() < 2 || s >= pts[pts.len() - 1].0 {
            return 0.0;
        }
        let i = pts.partition_point(|p| p.0 <= s).min(pts.len() - 1).max(1);
        let (x0, y0) = pts[i - 1];
        let (x1, y1) = pts[i];
        if x1 - x0 < 1e-15 {
            0.0
        } else {
            (y1 - y0) / (x1 - x0)
        }
    }

    /// The net-benefit-maximizing spot demand at `price`: the largest
    /// tabulated level where the concave envelope's marginal value still
    /// meets the price (`argmax_s gain(s) − price·s` for the envelope).
    ///
    /// Call this on the [concave envelope](Self::concave_envelope) for
    /// exact results; on a raw curve it is a conservative approximation.
    #[must_use]
    pub fn demand_at_price(&self, price: Price) -> Watts {
        // $/kW/h -> $/W/h to match marginal's per-watt basis.
        let p = price.per_kw_hour_value() / 1000.0;
        let pts = &self.points;
        if pts.len() < 2 {
            return Watts::ZERO;
        }
        let mut demand = 0.0;
        for w in pts.windows(2) {
            let (x0, y0) = w[0];
            let (x1, y1) = w[1];
            let slope = if x1 - x0 < 1e-15 {
                0.0
            } else {
                (y1 - y0) / (x1 - x0)
            };
            if slope >= p && slope > 0.0 {
                demand = x1;
            } else {
                break;
            }
        }
        Watts::new(demand)
    }

    /// Net benefit `gain(spot) − price·spot` in $/hour.
    #[must_use]
    pub fn net_benefit(&self, spot: Watts, price: Price) -> f64 {
        self.gain(spot) - price.per_kw_hour_value() * spot.kilowatts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchWorkload;
    use crate::cost::{OpportunisticCost, SprintingCost};
    use crate::interactive::InteractiveWorkload;

    fn batch_curve() -> GainCurve {
        let wl = BatchWorkload::word_count_tenant();
        let cost = OpportunisticCost::new(0.001, 3000.0, 2.0);
        GainCurve::from_cost_rate(Watts::new(125.0), Watts::new(62.5), 64, |b| {
            cost.cost_rate_at_throughput(wl.throughput(b))
        })
    }

    fn sprint_curve() -> GainCurve {
        let wl = InteractiveWorkload::search_tenant();
        let cost = SprintingCost::new(0.0002, 0.02, 0.1);
        let lam = wl.peak_load();
        GainCurve::from_cost_rate(Watts::new(145.0), Watts::new(72.5), 64, |b| {
            cost.cost_rate(wl.latency(lam, b), lam)
        })
    }

    #[test]
    fn anchored_at_zero() {
        let c = batch_curve();
        assert_eq!(c.gain(Watts::ZERO), 0.0);
        assert_eq!(c.points()[0], (0.0, 0.0));
    }

    #[test]
    fn gain_non_decreasing() {
        for c in [batch_curve(), sprint_curve()] {
            let mut last = -1.0;
            for i in 0..=100 {
                let g = c.gain(c.max_spot() * (i as f64 / 100.0));
                assert!(g >= last - 1e-12);
                last = g;
            }
        }
    }

    #[test]
    fn sprinting_gain_has_slo_cliff() {
        // Most of the sprinting gain concentrates where the SLO
        // violation is eliminated (steep early, flat late).
        let c = sprint_curve();
        let half = c.gain(c.max_spot() * 0.6);
        let full = c.max_gain();
        assert!(full > 0.0);
        assert!(
            half > 0.8 * full,
            "gain should be front-loaded: {half} vs {full}"
        );
    }

    #[test]
    fn interpolation_matches_samples() {
        let c = GainCurve::from_samples([(10.0, 1.0), (20.0, 3.0)]);
        assert_eq!(c.gain(Watts::new(10.0)), 1.0);
        assert_eq!(c.gain(Watts::new(15.0)), 2.0);
        assert_eq!(c.gain(Watts::new(25.0)), 3.0); // clamp right
        assert_eq!(c.gain(Watts::new(5.0)), 0.5);
    }

    #[test]
    fn from_samples_sorts_and_monotonizes() {
        let c = GainCurve::from_samples([(20.0, 1.0), (10.0, 2.0), (30.0, 0.5)]);
        // Sorted: (0,0),(10,2),(20,max(1,2)=2),(30,2)
        assert_eq!(c.gain(Watts::new(10.0)), 2.0);
        assert_eq!(c.gain(Watts::new(20.0)), 2.0);
        assert_eq!(c.gain(Watts::new(30.0)), 2.0);
    }

    #[test]
    fn envelope_dominates_and_is_concave() {
        for c in [batch_curve(), sprint_curve()] {
            let env = c.concave_envelope();
            for i in 0..=50 {
                let s = c.max_spot() * (i as f64 / 50.0);
                assert!(env.gain(s) >= c.gain(s) - 1e-9, "envelope must dominate");
            }
            // Concavity: slopes non-increasing.
            let pts = env.points();
            let mut last = f64::INFINITY;
            for w in pts.windows(2) {
                let slope = (w[1].1 - w[0].1) / (w[1].0 - w[0].0).max(1e-15);
                assert!(slope <= last + 1e-9, "slopes must be non-increasing");
                last = slope;
            }
            // Same endpoints.
            assert_eq!(env.max_gain(), c.max_gain());
            assert_eq!(env.max_spot(), c.max_spot());
        }
    }

    #[test]
    fn demand_monotone_non_increasing_in_price() {
        let env = batch_curve().concave_envelope();
        let mut last = Watts::new(f64::INFINITY);
        for cents in [0.1, 1.0, 5.0, 10.0, 50.0, 200.0] {
            let d = env.demand_at_price(Price::cents_per_kw_hour(cents));
            assert!(d <= last);
            last = d;
        }
    }

    #[test]
    fn demand_zero_at_absurd_price_full_at_free() {
        let env = batch_curve().concave_envelope();
        assert_eq!(env.demand_at_price(Price::per_kw_hour(1e9)), Watts::ZERO);
        let free = env.demand_at_price(Price::ZERO);
        // At price zero every strictly-gaining watt is demanded.
        assert!(free > Watts::ZERO);
    }

    #[test]
    fn demand_maximizes_net_benefit_on_envelope() {
        let env = sprint_curve().concave_envelope();
        let price = Price::per_kw_hour(0.3);
        let d = env.demand_at_price(price);
        let best = env.net_benefit(d, price);
        for i in 0..=100 {
            let s = env.max_spot() * (i as f64 / 100.0);
            assert!(
                env.net_benefit(s, price) <= best + 1e-9,
                "net benefit at {s} beats chosen demand {d}"
            );
        }
    }

    #[test]
    fn marginal_decreases_on_envelope() {
        let env = batch_curve().concave_envelope();
        let m0 = env.marginal(Watts::new(1.0));
        let m1 = env.marginal(Watts::new(40.0));
        assert!(m0 >= m1);
        assert_eq!(env.marginal(env.max_spot()), 0.0);
    }

    #[test]
    fn infinite_costs_are_capped() {
        // Cost function returning infinity below some budget.
        let c = GainCurve::from_cost_rate(Watts::new(10.0), Watts::new(10.0), 10, |b| {
            if b.value() < 15.0 {
                f64::INFINITY
            } else {
                1.0
            }
        });
        assert!(c.max_gain().is_finite());
        assert!(c.max_gain() > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_samples_rejected() {
        let _ = GainCurve::from_cost_rate(Watts::ZERO, Watts::new(1.0), 0, |_| 0.0);
    }

    #[test]
    #[should_panic(expected = "one cost per spot level")]
    fn cost_count_must_match_levels() {
        let _ = GainCurve::from_costs(Watts::new(1.0), 2, 1.0, [1.0, 0.5]);
    }
}
