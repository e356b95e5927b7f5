//! Tenant workload/cost model pairings.
//!
//! A tenant is either *sprinting* (interactive workload judged by tail
//! latency against an SLO, cost linear-then-quadratic — Search and Web
//! in Table I) or *opportunistic* (batch workload judged by throughput,
//! cost linear in completion time — WordCount, TeraSort, Graph).
//! [`WorkloadModel`] unifies the two behind the queries the agent and
//! strategies need: gain curve over spot levels, needed power,
//! performance reporting, actual power draw.

use serde::{Deserialize, Serialize};
use spotdc_units::Watts;
use spotdc_workloads::{
    BatchWorkload, GainCurve, InteractiveWorkload, OperatingPoint, OpportunisticCost, SprintingCost,
};

/// How many samples gain curves are tabulated with.
const GAIN_SAMPLES: usize = 48;

/// A tenant's workload paired with its dollar cost model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadModel {
    /// Latency-sensitive tenant (Search, Web): intensity scales the
    /// request arrival rate.
    Sprinting {
        /// The interactive workload model.
        workload: InteractiveWorkload,
        /// The SLO-penalty cost model.
        cost: SprintingCost,
    },
    /// Throughput-oriented tenant (WordCount, TeraSort, Graph):
    /// intensity scales the backlog pressure.
    Opportunistic {
        /// The batch workload model.
        workload: BatchWorkload,
        /// The completion-time cost model.
        cost: OpportunisticCost,
    },
}

/// The cost-independent half of a tenant's valuation (see
/// [`WorkloadModel::valuation_row`]): what the performance model says
/// at each budget a gain curve samples. Applying the cost model to it
/// ([`WorkloadModel::gain_from_row`]) is one multiplication or so per
/// sample, where building it is one queueing or DVFS inversion each.
#[derive(Debug, Clone, PartialEq)]
pub struct ValuationRow {
    reserved: Watts,
    headroom: Watts,
    /// Tail latency (sprinting) or throughput (opportunistic) at the
    /// reservation.
    at_reserved: f64,
    /// The same at each of the curve's spot levels.
    at_levels: Vec<f64>,
    /// Sprinting: the smallest budget meeting the SLO, `None` when
    /// infeasible. Opportunistic: `None`.
    slo_power: Option<Watts>,
}

impl WorkloadModel {
    /// The paper's Search tenant: p99/100 ms SLO, highest bid prices.
    #[must_use]
    pub fn search() -> Self {
        WorkloadModel::Sprinting {
            workload: InteractiveWorkload::search_tenant(),
            cost: SprintingCost::new(0.000_000_01, 0.000_8, 0.100),
        }
    }

    /// The paper's Web Serving tenant: p90/100 ms SLO, medium prices.
    #[must_use]
    pub fn web() -> Self {
        WorkloadModel::Sprinting {
            workload: InteractiveWorkload::web_tenant(),
            cost: SprintingCost::new(0.000_000_01, 0.000_6, 0.100),
        }
    }

    /// The paper's WordCount tenant.
    #[must_use]
    pub fn word_count() -> Self {
        WorkloadModel::Opportunistic {
            workload: BatchWorkload::word_count_tenant(),
            cost: OpportunisticCost::new(0.000_8, 900.0, 4.0),
        }
    }

    /// The paper's TeraSort tenant.
    #[must_use]
    pub fn tera_sort() -> Self {
        WorkloadModel::Opportunistic {
            workload: BatchWorkload::tera_sort_tenant(),
            cost: OpportunisticCost::new(0.000_7, 600.0, 4.0),
        }
    }

    /// The paper's graph-analytics tenant.
    #[must_use]
    pub fn graph() -> Self {
        WorkloadModel::Opportunistic {
            workload: BatchWorkload::graph_tenant(),
            cost: OpportunisticCost::new(0.000_45, 1500.0, 4.0),
        }
    }

    /// Whether this is a sprinting (latency-SLO) model.
    #[must_use]
    pub fn is_sprinting(&self) -> bool {
        matches!(self, WorkloadModel::Sprinting { .. })
    }

    /// Whether `other` pairs this model's workload with any cost model:
    /// the two then build equal valuation rows, which depend on the
    /// workload alone.
    pub(crate) fn same_workload(&self, other: &WorkloadModel) -> bool {
        match (self, other) {
            (
                WorkloadModel::Sprinting { workload: a, .. },
                WorkloadModel::Sprinting { workload: b, .. },
            ) => a == b,
            (
                WorkloadModel::Opportunistic { workload: a, .. },
                WorkloadModel::Opportunistic { workload: b, .. },
            ) => a == b,
            _ => false,
        }
    }

    /// Scales the cost model by `factor` (used by the hyper-scale
    /// scenario's ±20 % tenant-diversity jitter).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or non-finite.
    #[must_use]
    pub fn with_cost_scaled(self, factor: f64) -> Self {
        assert!(
            factor >= 0.0 && factor.is_finite(),
            "cost scale factor must be non-negative"
        );
        match self {
            WorkloadModel::Sprinting { workload, cost } => WorkloadModel::Sprinting {
                workload,
                cost: SprintingCost::new(cost.a() * factor, cost.b() * factor, cost.slo()),
            },
            WorkloadModel::Opportunistic { workload, cost } => WorkloadModel::Opportunistic {
                workload,
                cost: OpportunisticCost::new(
                    cost.rho() * factor,
                    cost.work_per_job(),
                    cost.jobs_per_hour(),
                ),
            },
        }
    }

    /// The arrival rate (req/s) a normalized `intensity ∈ [0,1]` means
    /// for a sprinting model; zero for opportunistic models.
    #[must_use]
    pub fn arrival_rate(&self, intensity: f64) -> f64 {
        match self {
            WorkloadModel::Sprinting { workload, .. } => {
                workload.peak_load() * intensity.clamp(0.0, 1.0)
            }
            WorkloadModel::Opportunistic { .. } => 0.0,
        }
    }

    /// What the cost model judges at `budget`: tail latency (seconds)
    /// for sprinting models, throughput (work units/s, independent of
    /// `intensity`) for opportunistic ones.
    fn performance(&self, budget: Watts, intensity: f64) -> f64 {
        match self {
            WorkloadModel::Sprinting { workload, .. } => {
                workload.latency(self.arrival_rate(intensity), budget)
            }
            WorkloadModel::Opportunistic { workload, .. } => workload.throughput(budget),
        }
    }

    /// The cost rate ($/hour) of [`performance`](Self::performance)
    /// `perf` at load `intensity`.
    pub(crate) fn cost_at(&self, perf: f64, intensity: f64) -> f64 {
        match self {
            WorkloadModel::Sprinting { cost, .. } => {
                cost.cost_rate(perf, self.arrival_rate(intensity))
            }
            WorkloadModel::Opportunistic { cost, .. } => {
                let pressure = intensity.clamp(0.0, 1.0);
                if pressure == 0.0 {
                    return 0.0;
                }
                pressure * cost.cost_rate_at_throughput(perf)
            }
        }
    }

    /// The gain curve over `[0, headroom]` watts of spot capacity on
    /// top of `reserved`, at load `intensity` — the tenant's private
    /// valuation the strategies bid from.
    #[must_use]
    pub fn gain_curve(&self, reserved: Watts, headroom: Watts, intensity: f64) -> GainCurve {
        if !self.is_sprinting() && intensity <= 0.0 {
            // No backlog: every cost is zero (see `cost_at`), so skip
            // the DVFS samples an agent's load-independent row needs.
            let zeros = std::iter::repeat_n(0.0, GAIN_SAMPLES + 1);
            return GainCurve::from_costs(headroom, GAIN_SAMPLES, 0.0, zeros);
        }
        // The curve alone needs no SLO power, whose bisection would cost
        // twice the samples.
        let row = self.sampled_row(reserved, headroom, intensity, None);
        self.gain_from_row(&row, intensity)
    }

    /// The cost-independent half of the valuation at load `intensity`:
    /// the performance model sampled at `reserved` and at every spot
    /// level of the gain curve, plus (sprinting) the SLO power. An
    /// opportunistic row does not depend on `intensity` at all.
    #[must_use]
    pub fn valuation_row(&self, reserved: Watts, headroom: Watts, intensity: f64) -> ValuationRow {
        self.sampled_row(reserved, headroom, intensity, self.slo_power(intensity))
    }

    /// A row's samples at `intensity`, carrying `slo_power` as given.
    fn sampled_row(
        &self,
        reserved: Watts,
        headroom: Watts,
        intensity: f64,
        slo_power: Option<Watts>,
    ) -> ValuationRow {
        ValuationRow {
            reserved,
            headroom,
            at_reserved: self.performance(reserved, intensity),
            at_levels: GainCurve::spot_levels(headroom, GAIN_SAMPLES)
                .map(|s| self.performance(reserved + s, intensity))
                .collect(),
            slo_power,
        }
    }

    /// The gain curve at load `intensity` from a row this model built
    /// (at the same `intensity`, for a sprinting model): the cost model
    /// applied to each sample.
    #[must_use]
    pub fn gain_from_row(&self, row: &ValuationRow, intensity: f64) -> GainCurve {
        GainCurve::from_costs(
            row.headroom,
            GAIN_SAMPLES,
            self.cost_at(row.at_reserved, intensity),
            row.at_levels.iter().map(|&p| self.cost_at(p, intensity)),
        )
    }

    /// [`needed_power`](Self::needed_power) at load `intensity` from a
    /// row this model built (at the same `intensity`, for a sprinting
    /// model).
    #[must_use]
    pub fn needed_from_row(&self, row: &ValuationRow, intensity: f64) -> Watts {
        self.needed_given(row.slo_power, row.reserved, row.headroom, intensity)
    }

    /// The extra power beyond `reserved` the tenant *needs* (sprinting:
    /// to meet its SLO; opportunistic: to saturate its useful
    /// throughput), clamped to `headroom`. Zero when nothing is needed.
    #[must_use]
    pub fn needed_power(&self, reserved: Watts, headroom: Watts, intensity: f64) -> Watts {
        self.needed_given(self.slo_power(intensity), reserved, headroom, intensity)
    }

    /// The smallest budget meeting a sprinting model's SLO at load
    /// `intensity` (`None` when infeasible, and for opportunistic models).
    fn slo_power(&self, intensity: f64) -> Option<Watts> {
        match self {
            WorkloadModel::Sprinting { workload, .. } => {
                workload.power_for_slo(self.arrival_rate(intensity))
            }
            WorkloadModel::Opportunistic { .. } => None,
        }
    }

    /// [`needed_power`](Self::needed_power) given the sprinting SLO
    /// power (ignored for opportunistic models).
    fn needed_given(
        &self,
        slo_power: Option<Watts>,
        reserved: Watts,
        headroom: Watts,
        intensity: f64,
    ) -> Watts {
        match self {
            WorkloadModel::Sprinting { .. } => match slo_power {
                Some(p) => (p - reserved).clamp_non_negative().min(headroom),
                // SLO infeasible even at peak power: take all the
                // headroom, every watt still helps.
                None => headroom,
            },
            WorkloadModel::Opportunistic { workload, .. } => {
                if intensity <= 0.0 {
                    return Watts::ZERO;
                }
                // Spot worth taking: up to the power that saturates
                // throughput, scaled by backlog pressure.
                let saturation = workload.dvfs().peak_power();
                ((saturation - reserved).clamp_non_negative() * intensity.clamp(0.0, 1.0))
                    .min(headroom)
            }
        }
    }

    /// Whether the tenant would benefit from spot capacity at this
    /// load: sprinting tenants when the SLO is violated at the
    /// reserved budget, opportunistic tenants whenever backlog exists.
    #[must_use]
    pub fn wants_spot(&self, reserved: Watts, intensity: f64) -> bool {
        match self {
            WorkloadModel::Sprinting { workload, .. } => {
                let lambda = self.arrival_rate(intensity);
                lambda > 0.0 && !workload.meets_slo(lambda, reserved)
            }
            WorkloadModel::Opportunistic { .. } => intensity > 0.0,
        }
    }

    /// The DVFS operating point `budget` affords this model's rack: a
    /// pure function of the workload and the budget.
    pub(crate) fn operating_point(&self, budget: Watts) -> OperatingPoint {
        match self {
            WorkloadModel::Sprinting { workload, .. } => workload.operating_point(budget),
            WorkloadModel::Opportunistic { workload, .. } => workload.operating_point(budget),
        }
    }

    /// The power actually drawn running under `budget` at `intensity`.
    #[must_use]
    pub fn power_draw(&self, budget: Watts, intensity: f64) -> Watts {
        self.power_draw_at(budget, intensity, || self.operating_point(budget))
    }

    /// [`power_draw`](Self::power_draw), with `op` giving the
    /// [operating point](Self::operating_point) `budget` affords, so a
    /// caller holding that point passes it instead of finding it again.
    pub(crate) fn power_draw_at(
        &self,
        budget: Watts,
        intensity: f64,
        op: impl FnOnce() -> OperatingPoint,
    ) -> Watts {
        match self {
            WorkloadModel::Sprinting { workload, .. } => {
                workload.draw_at(self.arrival_rate(intensity), budget, op())
            }
            WorkloadModel::Opportunistic { workload, .. } => {
                if intensity <= 0.0 {
                    // Idle rack: a zero budget deactivates every
                    // server, so it is metered at 0 W (DESIGN §2).
                    workload.power_draw(Watts::ZERO)
                } else {
                    workload.draw_at(budget, op())
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_wants_spot_only_under_high_load() {
        let m = WorkloadModel::search();
        assert!(!m.wants_spot(Watts::new(145.0), 0.3));
        assert!(m.wants_spot(Watts::new(145.0), 1.0));
    }

    #[test]
    fn opportunistic_wants_spot_iff_backlog() {
        let m = WorkloadModel::word_count();
        assert!(!m.wants_spot(Watts::new(125.0), 0.0));
        assert!(m.wants_spot(Watts::new(125.0), 0.4));
    }

    #[test]
    fn needed_power_positive_when_slo_violated() {
        let m = WorkloadModel::search();
        let need = m.needed_power(Watts::new(145.0), Watts::new(72.5), 1.0);
        assert!(
            need > Watts::ZERO && need <= Watts::new(72.5),
            "need {need}"
        );
        assert_eq!(
            m.needed_power(Watts::new(145.0), Watts::new(72.5), 0.2),
            Watts::ZERO
        );
    }

    #[test]
    fn gain_curve_positive_under_load() {
        let m = WorkloadModel::web();
        let g = m.gain_curve(Watts::new(115.0), Watts::new(57.5), 1.0);
        assert!(g.max_gain() > 0.0);
        assert_eq!(g.gain(Watts::ZERO), 0.0);
    }

    #[test]
    fn idle_opportunistic_gains_nothing() {
        let m = WorkloadModel::graph();
        let g = m.gain_curve(Watts::new(115.0), Watts::new(57.5), 0.0);
        assert_eq!(g.max_gain(), 0.0);
    }

    #[test]
    fn power_draw_tracks_load() {
        let m = WorkloadModel::search();
        let light = m.power_draw(Watts::new(200.0), 0.2);
        let heavy = m.power_draw(Watts::new(200.0), 1.0);
        assert!(light < heavy);
        let b = WorkloadModel::word_count();
        let idle = b.power_draw(Watts::new(125.0), 0.0);
        let busy = b.power_draw(Watts::new(125.0), 0.8);
        assert!(idle < busy);
    }

    #[test]
    fn cost_scaling_scales_gains() {
        let base = WorkloadModel::web();
        let double = base.clone().with_cost_scaled(2.0);
        let g1 = base.gain_curve(Watts::new(115.0), Watts::new(57.5), 1.0);
        let g2 = double.gain_curve(Watts::new(115.0), Watts::new(57.5), 1.0);
        assert!(
            (g2.max_gain() - 2.0 * g1.max_gain()).abs() < 0.05 * g1.max_gain().max(1e-9),
            "scaled {} vs base {}",
            g2.max_gain(),
            g1.max_gain()
        );
    }

    #[test]
    fn arrival_rate_clamps_intensity() {
        let m = WorkloadModel::search();
        assert_eq!(m.arrival_rate(2.0), m.arrival_rate(1.0));
        assert_eq!(m.arrival_rate(-1.0), 0.0);
        assert_eq!(WorkloadModel::graph().arrival_rate(0.7), 0.0);
    }
}
