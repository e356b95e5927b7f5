//! The tenant agent: one tenant's slot-by-slot behaviour.
//!
//! A [`TenantAgent`] owns one rack (the testbed's Table I maps each
//! tenant to one "rack"; multi-rack tenants compose agents or use
//! [`crate::multirack`]), its capacity reservation, its workload/cost
//! model and a bidding strategy. Each slot the simulation feeds it the
//! load intensity, asks it for a bid, and later tells it the budget it
//! ended up with; the agent reports the power it drew, the performance
//! it achieved and the performance cost it incurred.

use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};
use spotdc_core::bid::{RackBid, TenantBid};
use spotdc_units::{Price, RackId, TenantId, Watts};
use spotdc_workloads::{GainCurve, OperatingPoint};

use crate::model::{ValuationRow, WorkloadModel};
use crate::strategy::{BidContext, Strategy};

/// Intensity quantization for valuations: the curve is built at the
/// load rounded to a 1/256 step, and a sprinting agent's valuation rows
/// are cached per step.
const INTENSITY_BUCKETS: f64 = 256.0;

/// Rows a sprinting class caches: one per step, `0..=INTENSITY_BUCKETS`.
const SPRINTING_ROWS: usize = INTENSITY_BUCKETS as usize + 1;

/// A valuation class's write-once answers: its valuation rows keyed by
/// intensity bucket, and the DVFS operating point its reservation
/// affords. A row is dozens of queueing or DVFS inversions, and long
/// simulations revisit the same load levels constantly. An
/// opportunistic row is load-independent, so a batch agent's cache
/// holds one.
///
/// A row is a pure function of the agent's valuation class (workload,
/// reservation, headroom) and the bucket, and the reservation's
/// operating point one of the class's DVFS model and reservation, so
/// [`share_valuation_rows`] points a whole class at one cache:
/// whichever agent needs an answer first computes it for all, and a
/// clone keeps its original's cache. Each entry is written once and
/// read without a lock, so agents and simulations on any thread share a
/// cache freely.
///
/// Only the slot-0 warm-up draw ([`TenantAgent::reserved_draw`]) reads
/// the operating point. `Sense`'s SLO test and `Settle`'s
/// [`TenantAgent::run_slot`] could read it too, every slot, and run
/// ~2.2x faster bit for bit, but they do not yet: the benchmark keeps
/// every repetition's reports, so the faster repetitions would cost
/// more memory than its bound allows (ROADMAP 1(a)).
#[derive(Debug, Default)]
struct ClassCache {
    rows: OnceLock<Box<[OnceLock<Box<ValuationRow>>]>>,
    reserved_op: OnceLock<OperatingPoint>,
}

impl ClassCache {
    /// The row under `key`, built by `build` on first use; the cache
    /// takes its length, `len`, from its first caller.
    fn row(&self, key: usize, len: usize, build: impl FnOnce() -> ValuationRow) -> &ValuationRow {
        let rows = self
            .rows
            .get_or_init(|| (0..len).map(|_| OnceLock::new()).collect());
        rows[key].get_or_init(|| Box::new(build()))
    }
}

/// The performance a tenant achieved in one slot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Performance {
    /// Sprinting tenants: tail latency against the SLO.
    Latency {
        /// Achieved tail latency, seconds.
        seconds: f64,
        /// Whether the SLO was met.
        slo_met: bool,
    },
    /// Opportunistic tenants: processing throughput.
    Throughput {
        /// Work units per second.
        rate: f64,
    },
}

impl Performance {
    /// A scalar "higher is better" index: inverse latency for
    /// sprinting, throughput for opportunistic. Used for the paper's
    /// normalized performance plots (Figs. 12b, 15b, 18c).
    #[must_use]
    pub fn index(&self) -> f64 {
        match *self {
            Performance::Latency { seconds, .. } => {
                if seconds <= 0.0 {
                    f64::INFINITY
                } else {
                    1.0 / seconds
                }
            }
            Performance::Throughput { rate } => rate,
        }
    }
}

/// What one slot looked like from the tenant's side.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlotOutcome {
    /// Power actually drawn (≤ budget).
    pub draw: Watts,
    /// Performance achieved.
    pub performance: Performance,
    /// Performance cost rate, $/hour (Section IV-C models).
    pub cost_rate: f64,
}

/// One tenant's agent.
///
/// # Examples
///
/// ```
/// use spotdc_tenants::{Strategy, TenantAgent, WorkloadModel};
/// use spotdc_units::{Price, RackId, TenantId, Watts};
///
/// let mut agent = TenantAgent::new(
///     TenantId::new(2),
///     RackId::new(2),
///     Watts::new(125.0),
///     Watts::new(62.5),
///     WorkloadModel::word_count(),
///     Strategy::elastic(Price::per_kw_hour(0.02), Price::per_kw_hour(0.2)),
/// );
/// agent.observe(0.8); // backlog present
/// let bid = agent.make_bid().expect("busy batch tenant bids");
/// assert_eq!(bid.tenant(), TenantId::new(2));
/// ```
#[derive(Debug, Clone)]
pub struct TenantAgent {
    tenant: TenantId,
    rack: RackId,
    reserved: Watts,
    headroom: Watts,
    model: WorkloadModel,
    strategy: Strategy,
    intensity: f64,
    /// [`WorkloadModel::wants_spot`] at `intensity`, evaluated once by
    /// [`Self::observe`]: bidding and the slot's record both read it.
    wants_spot: bool,
    predicted_price: Option<Price>,
    /// The valuation rows and the reservation's operating point: the
    /// agent's own, or its class's once [`share_valuation_rows`] ran; a
    /// clone shares its original's. Each valuation applies the agent's
    /// cost model to its row afresh.
    class: Arc<ClassCache>,
}

/// Points every agent at one fresh, cold class cache per valuation
/// class and returns the number of classes. A class is the agents with
/// an equal workload, reservation and headroom: their rows, and the
/// operating point their reservation affords, are equal whatever their
/// cost models, so each is computed once per class instead of once per
/// agent: once per scenario, whose assembly calls this and whose
/// simulations run clones of its agents.
pub fn share_valuation_rows(agents: &mut [TenantAgent]) -> usize {
    // The first agent of each class; classes are few (one per Table I
    // kind), so a scan beats hashing floats.
    let mut firsts: Vec<usize> = Vec::new();
    for i in 0..agents.len() {
        let class = match firsts.iter().find(|&&f| agents[f].same_class(&agents[i])) {
            Some(&f) => Arc::clone(&agents[f].class),
            None => {
                firsts.push(i);
                Arc::default()
            }
        };
        agents[i].class = class;
    }
    firsts.len()
}

impl TenantAgent {
    /// Creates an agent.
    ///
    /// # Panics
    ///
    /// Panics if `reserved` or `headroom` is negative/non-finite.
    #[must_use]
    pub fn new(
        tenant: TenantId,
        rack: RackId,
        reserved: Watts,
        headroom: Watts,
        model: WorkloadModel,
        strategy: Strategy,
    ) -> Self {
        assert!(
            reserved.is_finite() && !reserved.is_negative(),
            "reservation must be non-negative"
        );
        assert!(
            headroom.is_finite() && !headroom.is_negative(),
            "headroom must be non-negative"
        );
        TenantAgent {
            tenant,
            rack,
            reserved,
            headroom,
            model,
            strategy,
            intensity: 0.0,
            // No load wants no spot, whatever the workload.
            wants_spot: false,
            predicted_price: None,
            class: Arc::default(),
        }
    }

    /// Whether `other` is in the same valuation class: an equal
    /// workload, reservation and headroom.
    fn same_class(&self, other: &TenantAgent) -> bool {
        self.reserved == other.reserved
            && self.headroom == other.headroom
            && self.model.same_workload(&other.model)
    }

    /// The tenant's `(gain curve, needed power)` at the current
    /// (quantized) intensity, from its cached valuation row.
    fn valuation(&self) -> (GainCurve, Watts) {
        let bucket = (self.intensity * INTENSITY_BUCKETS).round() as u16;
        let quantized = f64::from(bucket) / INTENSITY_BUCKETS;
        let (key, len) = if self.model.is_sprinting() {
            (usize::from(bucket), SPRINTING_ROWS)
        } else {
            (0, 1)
        };
        let row = self.class.row(key, len, || {
            self.model
                .valuation_row(self.reserved, self.headroom, quantized)
        });
        (
            self.model.gain_from_row(row, quantized),
            self.model.needed_from_row(row, quantized),
        )
    }

    /// The tenant's identity.
    #[must_use]
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// The rack this agent manages.
    #[must_use]
    pub fn rack(&self) -> RackId {
        self.rack
    }

    /// The guaranteed capacity reservation.
    #[must_use]
    pub fn reserved(&self) -> Watts {
        self.reserved
    }

    /// The rack's spot headroom.
    #[must_use]
    pub fn headroom(&self) -> Watts {
        self.headroom
    }

    /// The workload model.
    #[must_use]
    pub fn model(&self) -> &WorkloadModel {
        &self.model
    }

    /// The bidding strategy.
    #[must_use]
    pub fn strategy(&self) -> &Strategy {
        &self.strategy
    }

    /// Replaces the bidding strategy (Fig. 16 swaps strategies
    /// mid-experiment).
    pub fn set_strategy(&mut self, strategy: Strategy) {
        self.strategy = strategy;
    }

    /// Sets the load intensity for the upcoming slot (`[0, 1]`,
    /// clamped) and decides, once, whether the tenant wants spot at it.
    pub fn observe(&mut self, intensity: f64) {
        self.intensity = intensity.clamp(0.0, 1.0);
        self.wants_spot = self.model.wants_spot(self.reserved, self.intensity);
    }

    /// The current load intensity.
    #[must_use]
    pub fn intensity(&self) -> f64 {
        self.intensity
    }

    /// Feeds the agent a clearing-price prediction (price-predicting
    /// strategies use it; others ignore it).
    pub fn predict_price(&mut self, price: Option<Price>) {
        self.predicted_price = price;
    }

    /// The most recently fed clearing-price prediction, if any.
    #[must_use]
    pub fn predicted_price(&self) -> Option<Price> {
        self.predicted_price
    }

    /// Whether this tenant wants spot capacity at the current load, as
    /// decided when it last observed that load.
    #[must_use]
    pub fn wants_spot(&self) -> bool {
        self.wants_spot
    }

    /// Produces this slot's bid, or `None` when the tenant sits out.
    #[must_use]
    pub fn make_bid(&mut self) -> Option<TenantBid> {
        if !self.wants_spot() {
            return None;
        }
        let (gain, needed) = self.valuation();
        let ctx = BidContext {
            gain,
            needed,
            headroom: self.headroom,
            predicted_price: self.predicted_price,
        };
        let demand = self.strategy.make_bid(&ctx)?;
        TenantBid::new(self.tenant, vec![RackBid::new(self.rack, demand)]).ok()
    }

    /// The gain curve at the current intensity (cached) — used by the
    /// `MaxPerf` baseline, which reads tenants' valuations directly.
    #[must_use]
    pub fn gain_curve(&self) -> GainCurve {
        self.valuation().0
    }

    /// The power the rack draws under its reservation at load
    /// `intensity`: `model().power_draw(reserved(), intensity)` bit for
    /// bit, read off the class's reservation operating point, which is
    /// found once per class. An idle batch rack draws at a zero budget
    /// and needs no point. The slot-0 meter warm-up is its one caller.
    #[must_use]
    pub fn reserved_draw(&self, intensity: f64) -> Watts {
        self.model.power_draw_at(self.reserved, intensity, || {
            *self
                .class
                .reserved_op
                .get_or_init(|| self.model.operating_point(self.reserved))
        })
    }

    /// Runs the slot with the given total budget (reserved + any spot
    /// grant), reporting draw, performance and cost. The performance
    /// model is evaluated once, and the cost is read off that value. A
    /// rack finds its DVFS operating point once per slot: a sprinting
    /// rack for its latency and its draw, a busy batch rack for its
    /// rate and its draw.
    #[must_use]
    pub fn run_slot(&self, budget: Watts) -> SlotOutcome {
        let (draw, performance, value) = match &self.model {
            WorkloadModel::Sprinting { workload, cost } => {
                let lambda = self.model.arrival_rate(self.intensity);
                let (seconds, draw) = workload.latency_and_draw(lambda, budget);
                let slo_met = seconds <= cost.slo();
                (draw, Performance::Latency { seconds, slo_met }, seconds)
            }
            WorkloadModel::Opportunistic { workload, .. } => {
                // No backlog: nothing runs, so the rate is 0 without a
                // DVFS inversion; `cost_at` charges an idle tenant
                // nothing.
                let (rate, draw) = if self.intensity > 0.0 {
                    workload.throughput_and_draw(budget)
                } else {
                    (0.0, self.model.power_draw(budget, self.intensity))
                };
                (draw, Performance::Throughput { rate }, rate)
            }
        };
        SlotOutcome {
            draw,
            performance,
            cost_rate: self.model.cost_at(value, self.intensity),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn search_agent() -> TenantAgent {
        TenantAgent::new(
            TenantId::new(0),
            RackId::new(0),
            Watts::new(145.0),
            Watts::new(72.5),
            WorkloadModel::search(),
            Strategy::elastic(Price::per_kw_hour(0.05), Price::per_kw_hour(0.5)),
        )
    }

    fn batch_agent() -> TenantAgent {
        TenantAgent::new(
            TenantId::new(2),
            RackId::new(2),
            Watts::new(125.0),
            Watts::new(62.5),
            WorkloadModel::word_count(),
            Strategy::elastic(Price::per_kw_hour(0.02), Price::per_kw_hour(0.2)),
        )
    }

    #[test]
    fn sprinting_agent_bids_only_under_pressure() {
        let mut a = search_agent();
        a.observe(0.3);
        assert!(!a.wants_spot());
        assert!(a.make_bid().is_none());
        a.observe(1.0);
        assert!(a.wants_spot());
        let bid = a.make_bid().unwrap();
        assert_eq!(bid.rack_bids()[0].rack(), RackId::new(0));
        assert!(bid.total_demand_at(Price::ZERO) > Watts::ZERO);
    }

    #[test]
    fn batch_agent_bids_whenever_busy() {
        let mut a = batch_agent();
        a.observe(0.0);
        assert!(a.make_bid().is_none());
        a.observe(0.5);
        assert!(a.make_bid().is_some());
    }

    #[test]
    fn spot_budget_improves_reported_performance() {
        let mut a = search_agent();
        a.observe(1.0);
        let at_reserved = a.run_slot(Watts::new(145.0));
        let boosted = a.run_slot(Watts::new(200.0));
        assert!(boosted.performance.index() > at_reserved.performance.index());
        assert!(boosted.cost_rate <= at_reserved.cost_rate);
        match (at_reserved.performance, boosted.performance) {
            (
                Performance::Latency {
                    slo_met: before, ..
                },
                Performance::Latency { slo_met: after, .. },
            ) => {
                assert!(!before, "SLO should be violated at reserved budget");
                assert!(after, "SLO should be met with spot capacity");
            }
            _ => panic!("sprinting agent must report latency"),
        }
    }

    #[test]
    fn batch_throughput_scales_with_budget() {
        let mut a = batch_agent();
        a.observe(1.0);
        let base = a.run_slot(Watts::new(125.0));
        let boosted = a.run_slot(Watts::new(187.5));
        let speedup = boosted.performance.index() / base.performance.index();
        assert!(speedup > 1.2, "speedup {speedup}");
    }

    #[test]
    fn cost_rate_decreases_with_budget() {
        for mut a in [search_agent(), batch_agent()] {
            a.observe(0.9);
            let hi = a.run_slot(Watts::new(190.0)).cost_rate;
            let lo = a.run_slot(Watts::new(130.0)).cost_rate;
            assert!(hi <= lo, "cost should fall with budget");
        }
    }

    #[test]
    fn idle_opportunistic_costs_nothing() {
        let mut a = batch_agent();
        a.observe(0.0);
        let out = a.run_slot(Watts::new(125.0));
        assert_eq!(out.cost_rate, 0.0);
        assert_eq!(out.performance, Performance::Throughput { rate: 0.0 });
    }

    #[test]
    fn draw_never_exceeds_budget() {
        let mut a = batch_agent();
        a.observe(0.9);
        for b in [100.0, 125.0, 150.0, 200.0] {
            let out = a.run_slot(Watts::new(b));
            assert!(out.draw <= Watts::new(b) + Watts::new(1e-9));
        }
    }

    #[test]
    fn a_clone_shares_its_class_cache() {
        let mut shared = vec![search_agent(), search_agent()];
        assert_eq!(share_valuation_rows(&mut shared), 1);
        shared[0].observe(1.0);
        assert!(shared[0].make_bid().is_some());
        assert!(
            shared[1].class.rows.get().is_some(),
            "the class cache is warm"
        );
        let copy = shared[1].clone();
        assert!(Arc::ptr_eq(&copy.class, &shared[1].class), "a clone shares");
        let fresh = search_agent();
        assert!(!Arc::ptr_eq(&fresh.class, &shared[1].class));
        assert!(fresh.class.rows.get().is_none(), "a new agent starts cold");
    }

    #[test]
    fn reserved_draw_is_power_draw_at_the_reservation_bit_for_bit() {
        let table_one = [
            (WorkloadModel::search(), 145.0),
            (WorkloadModel::web(), 115.0),
            (WorkloadModel::word_count(), 125.0),
            (WorkloadModel::tera_sort(), 125.0),
            (WorkloadModel::graph(), 115.0),
        ];
        let agent = |model: WorkloadModel, reserved: f64| {
            TenantAgent::new(
                TenantId::new(0),
                RackId::new(0),
                Watts::new(reserved),
                Watts::new(reserved / 2.0),
                model,
                Strategy::simple(Price::per_kw_hour(0.5)),
            )
        };
        for (model, reserved) in table_one {
            // A class of two, the second with another cost model, and a
            // lone agent with its own cache.
            let mut class = vec![
                agent(model.clone(), reserved),
                agent(model.clone().with_cost_scaled(1.2), reserved),
            ];
            assert_eq!(share_valuation_rows(&mut class), 1);
            let lone = agent(model.clone(), reserved);
            for a in class.iter().chain([&lone]) {
                for load in [0.0, 1e-9, 0.5, 1.0] {
                    let want = model.power_draw(Watts::new(reserved), load);
                    assert_eq!(
                        a.reserved_draw(load).value().to_bits(),
                        want.value().to_bits(),
                        "{model:?} at load {load}"
                    );
                }
            }
            assert!(
                class[1].class.reserved_op.get().is_some(),
                "the class holds its point"
            );
        }
    }

    #[test]
    fn classes_split_on_workload_reservation_and_headroom_only() {
        let with = |reserved: f64, headroom: f64, model: WorkloadModel| {
            TenantAgent::new(
                TenantId::new(0),
                RackId::new(0),
                Watts::new(reserved),
                Watts::new(headroom),
                model,
                Strategy::simple(Price::per_kw_hour(0.5)),
            )
        };
        let mut agents = vec![
            search_agent(),
            // Same class: only the cost model and strategy differ.
            with(145.0, 72.5, WorkloadModel::search().with_cost_scaled(1.2)),
            with(150.0, 72.5, WorkloadModel::search()),
            with(145.0, 70.0, WorkloadModel::search()),
            with(145.0, 72.5, WorkloadModel::web()),
            with(125.0, 62.5, WorkloadModel::word_count()),
            with(125.0, 62.5, WorkloadModel::tera_sort()),
            batch_agent(),
        ];
        assert_eq!(share_valuation_rows(&mut agents), 6);
        let shares = |i: usize, j: usize| Arc::ptr_eq(&agents[i].class, &agents[j].class);
        assert!(shares(0, 1));
        assert!(shares(5, 7));
        for (i, j) in [(0, 2), (0, 3), (0, 4), (5, 6), (2, 3)] {
            assert!(!shares(i, j), "agents {i} and {j} must not share rows");
        }
    }

    #[test]
    fn performance_index_orientation() {
        let fast = Performance::Latency {
            seconds: 0.05,
            slo_met: true,
        };
        let slow = Performance::Latency {
            seconds: 0.5,
            slo_met: false,
        };
        assert!(fast.index() > slow.index());
        let t = Performance::Throughput { rate: 42.0 };
        assert_eq!(t.index(), 42.0);
    }

    #[test]
    fn strategy_swap_changes_bids() {
        let mut a = search_agent();
        a.observe(1.0);
        let elastic = a.make_bid().unwrap();
        a.set_strategy(Strategy::simple(Price::per_kw_hour(0.5)));
        let simple = a.make_bid().unwrap();
        // The simple bid is inelastic: equal demand at 0 and at cap.
        let d0 = simple.total_demand_at(Price::ZERO);
        let dcap = simple.total_demand_at(Price::per_kw_hour(0.5));
        assert_eq!(d0, dcap);
        // The elastic bid demands more at price zero than it needs.
        assert!(elastic.total_demand_at(Price::ZERO) >= d0);
    }

    #[test]
    fn price_prediction_feeds_strategy() {
        let mut a = search_agent();
        a.set_strategy(Strategy::PricePredictor {
            margin: 0.05,
            fallback_price: Price::per_kw_hour(0.5),
        });
        a.observe(1.0);
        a.predict_price(Some(Price::per_kw_hour(0.1)));
        let bid = a.make_bid().unwrap();
        assert!(bid.price_ceiling() < Price::per_kw_hour(0.12));
    }
}
