//! Typed state threaded through the slot pipeline.
//!
//! Two lifetimes of state exist in a run:
//!
//! * [`SimState`] — everything that persists *across* slots (but the
//!   late bids `Stage::CollectBids` holds for the next slot): the
//!   topology, operator, meter, PDU bank, fault plan, degradation
//!   controllers, and the run's [`SimReport`], which `Settle` extends
//!   by one record (and its counters) per slot. Built once from the
//!   [`Scenario`] + [`EngineConfig`] (including the slot-0 meter
//!   warm-up); the report is what is left at the end.
//! * [`SlotContext`] — everything scoped to *one* slot: the clearing
//!   price, spot sold/available, per-rack payments, and the reusable
//!   bid/gain scratch buffers that keep the steady state free of
//!   per-slot allocations. [`SlotContext::begin`] resets it at the top
//!   of each slot.
//!
//! Every stage runs over `(&mut SimState, &mut SlotContext)` and the
//! stages communicate exclusively through them — there is no hidden
//! channel between stages, which is what makes alternative stage
//! compositions (the modes, and future clearing schemes) safe to
//! assemble.

use std::collections::BTreeMap;

use spotdc_core::{ConcaveGain, ConstraintSet, MarketOutcome, Operator, TaskShip};
use spotdc_faults::FaultPlan;
use spotdc_power::topology::PowerTopology;
use spotdc_power::{CapController, EmergencyLog, PowerMeter, RackPduBank};
use spotdc_tenants::TenantAgent;
use spotdc_units::{RackId, Slot, Watts};

use crate::engine::EngineConfig;
use crate::metrics::SimReport;
use crate::scenario::{OtherGroup, Scenario, TraceCursors};

/// Meter readings retained per rack. Shared with the durability layer:
/// a restored meter must use the same window length or replayed
/// histories would evict differently.
pub const METER_HISTORY_LEN: usize = 4;

/// Cross-slot simulation state: the world the pipeline stages act on.
///
/// Fields are public so each stage function can borrow exactly the
/// disjoint subset it needs.
#[derive(Debug)]
pub struct SimState {
    /// The power topology under simulation.
    pub topology: PowerTopology,
    /// The SpotDC operator (predictor + clearing) for this topology.
    pub operator: Operator,
    /// The *observed* power meter (subject to meter faults).
    pub meter: PowerMeter,
    /// Last slot's meter snapshot, kept only when prediction-delay
    /// faults are armed.
    pub prev_meter: Option<PowerMeter>,
    /// The intelligent rack PDUs grants are programmed into.
    pub bank: RackPduBank,
    /// Finds each slot's overloads in the physical per-PDU power; it
    /// keeps none, `Settle` counts them into [`Self::report`].
    pub emergencies: EmergencyLog,
    /// Graceful-degradation cap controller, when enabled.
    pub cap: Option<CapController>,
    /// Tenant agents, in rack order: clones of the scenario's, so each
    /// valuation class reads the scenario's one class cache of rows and
    /// reservation operating point
    /// ([`spotdc_tenants::share_valuation_rows`]).
    pub agents: Vec<TenantAgent>,
    /// Non-participating ("other") rack groups.
    pub others: Vec<OtherGroup>,
    /// The scenario's traces as cursors, at the slot `Sense` last
    /// stepped them to (slot 0 for [`Self::new`]'s warm-up).
    pub cursors: TraceCursors,
    /// Deterministic fault schedule. The stages query it
    /// unconditionally: with a channel's rates at zero its query answers
    /// `None` / `false` without hashing.
    pub plan: FaultPlan,
    /// Whether to snapshot the meter each slot for delayed predictions.
    pub track_prev_meter: bool,
    /// Whether the post-clearing invariant checker runs every slot.
    pub validate: bool,
    /// Per-rack guaranteed power, indexed by dense rack index.
    pub guaranteed: Vec<Watts>,
    /// Rack index → PDU index.
    pub rack_pdu: Vec<usize>,
    /// Physical draw of every rack this slot (faults never touch it).
    pub true_draw: Vec<Watts>,
    /// Per-PDU non-spot ("base") load of the previous slot — what the
    /// cap controller budgets spot against.
    pub prev_base_pdu: Vec<Watts>,
    /// The run's report so far: its fixed fields are filled in by
    /// [`Self::new`], and the stages add each slot's record, faults,
    /// degradation, invariant violations and overloads as they happen.
    /// Its `slot` is the slot length payments are billed by.
    pub report: SimReport,
    /// Thread pool for the within-slot data-parallel sections, sized by
    /// [`EngineConfig::inner_jobs`]. The stages always map through it;
    /// at width 1 the pool runs them inline.
    pub inner: spotdc_par::ThreadPool,
    /// The distributed clearing runtime, present when
    /// [`EngineConfig::shards`] is above one and the mode has a market
    /// to distribute. [`Self::clear_tasks`] routes the market clear
    /// stages' tasks through it; everything else ignores it.
    pub dist: Option<spotdc_dist::ShardRuntime>,
    /// Structure-of-arrays per-PDU draw buffer the settle stage
    /// re-fills each slot instead of allocating a fresh vector.
    pub pdu_draw: Vec<Watts>,
}

impl SimState {
    /// Builds the cross-slot state for a run of `slots` slots,
    /// including the slot-0 meter warm-up: each tenant draws what it
    /// would at its first load sample under its reserved budget, so the
    /// first prediction has references to work from. That draw reads
    /// the operating point the reservation affords off the agent's
    /// valuation class ([`TenantAgent::reserved_draw`]), so the warm-up
    /// finds one per class, not one per agent. Warm-up is
    /// initialization, not operation: it is never faulted.
    #[must_use]
    pub fn new(scenario: &Scenario, config: &EngineConfig, slots: usize) -> Self {
        let mut cursors = scenario.cursors();
        cursors.seek(0);
        let topology = scenario.topology.clone();
        let operator = Operator::new(topology.clone(), config.operator);
        let mut meter = PowerMeter::new(&topology, METER_HISTORY_LEN)
            .expect("engine meter history length is positive");
        let bank = RackPduBank::new(&topology);
        let emergencies = EmergencyLog::new(&topology);
        let plan = FaultPlan::new(config.faults);
        let track_prev_meter = config.faults.prediction_delay > 0.0;
        let cap = config
            .cap
            .enabled
            .then(|| CapController::new(&topology, config.cap));
        let validate = config.validate || crate::validate::forced();
        let guaranteed: Vec<Watts> = topology.racks().map(|r| r.guaranteed()).collect();
        let rack_pdu: Vec<usize> = topology.racks().map(|r| r.pdu().index()).collect();
        let agents = scenario.agents.clone();

        let mut true_draw: Vec<Watts> = vec![Watts::ZERO; topology.rack_count()];
        for (i, agent) in agents.iter().enumerate() {
            // Only the draw is metered: no performance, no cost, and no
            // SLO test — slot 0's `Sense` observes the same load.
            let draw = agent.reserved_draw(cursors.load[i].clamp(0.0, 1.0));
            meter.record(Slot::ZERO, agent.rack(), draw);
            true_draw[agent.rack().index()] = draw.clamp_non_negative();
        }
        for (j, other) in scenario.others.iter().enumerate() {
            let draw = cursors.other[j].min(other.subscription);
            meter.record(Slot::ZERO, other.rack, draw);
            true_draw[other.rack.index()] = draw.clamp_non_negative();
        }
        let pdu_count = topology.pdu_count();
        let mut prev_base_pdu: Vec<Watts> = vec![Watts::ZERO; pdu_count];
        for (i, &d) in true_draw.iter().enumerate() {
            prev_base_pdu[rack_pdu[i]] += d.min(guaranteed[i]);
        }

        let report = SimReport {
            records: Vec::with_capacity(slots),
            slot: scenario.slot,
            subscriptions: agents.iter().map(|a| a.reserved()).collect(),
            headrooms: agents.iter().map(|a| a.headroom()).collect(),
            total_subscribed: topology.total_leased(),
            ups_capacity: topology.ups_capacity(),
            emergencies: 0,
            transient_overshoots: 0,
            degraded_slots: 0,
            invariant_violations: 0,
            faults_injected: 0,
        };

        SimState {
            topology,
            operator,
            meter,
            prev_meter: None,
            bank,
            emergencies,
            cap,
            agents,
            others: scenario.others.clone(),
            cursors,
            plan,
            track_prev_meter,
            validate,
            guaranteed,
            rack_pdu,
            true_draw,
            prev_base_pdu,
            report,
            inner: spotdc_par::ThreadPool::new(config.inner_jobs.max(1)),
            dist: (config.shards > 1 && config.mode.has_market()).then(|| {
                spotdc_dist::ShardRuntime::new(config.shards, config.operator.clearing)
                    .expect("start shard agents")
            }),
            pdu_draw: vec![Watts::ZERO; pdu_count],
        }
    }

    /// Clears one slot's market tasks, one entry per task in task
    /// order — the single place that knows where a clear runs. With
    /// shard agents ([`Self::dist`]) the tasks go over the wire and a
    /// dead shard's come back `None`, which the clear stages degrade to
    /// "no spot capacity" (the paper's comms-loss rule). Without, they
    /// are walked here by [`spotdc_core::MarketClearing::clear_tasks`]
    /// — the very function a shard agent runs — on the operator's
    /// engine, against `constraints` itself (its UPS spot is put back
    /// afterwards) or, with an inner pool and more than one task, one
    /// contiguous run per worker on that worker's own copy; `par_map`
    /// returns the runs in order, so the results are in task order
    /// either way.
    pub fn clear_tasks(
        &mut self,
        slot: Slot,
        constraints: &mut ConstraintSet,
        tasks: Vec<TaskShip>,
    ) -> Vec<Option<MarketOutcome>> {
        if let Some(dist) = self.dist.as_mut() {
            return dist.clear_tasks(slot, constraints, tasks);
        }
        let engine = self.operator.clearing();
        // Only here is the pool's width asked: the wide arm pays a
        // constraint-set clone per worker. Everywhere else the pool
        // decides.
        let results = if self.inner.threads() > 1 && tasks.len() > 1 {
            let _span = spotdc_telemetry::span!("par.clear_per_pdu", slot = slot);
            let runs: Vec<&[TaskShip]> = tasks
                .chunks(tasks.len().div_ceil(self.inner.threads()))
                .collect();
            let run = spotdc_telemetry::current_run();
            let shared = &*constraints;
            let cleared = self.inner.par_map(&runs, |part| {
                let _scope = run.as_deref().map(spotdc_telemetry::run_scope);
                engine.clear_tasks(slot, &mut shared.clone(), part)
            });
            cleared.into_iter().flatten().collect()
        } else {
            let ups_spot = constraints.ups_spot();
            let cleared = engine.clear_tasks(slot, constraints, &tasks);
            constraints.set_ups_spot(ups_spot);
            cleared
        };
        results.into_iter().map(Some).collect()
    }

    /// The meter the market should see this slot: last slot's snapshot
    /// when a prediction-delay fault fired, the live meter otherwise.
    #[must_use]
    pub fn market_meter(&self, delayed: bool) -> &PowerMeter {
        match (&self.prev_meter, delayed) {
            (Some(prev), true) => prev,
            _ => &self.meter,
        }
    }

    /// Consumes the state into the final report.
    #[must_use]
    pub fn into_report(self) -> SimReport {
        self.report
    }
}

/// Per-slot state threaded through the stages, reset by [`begin`].
///
/// The bid/gain vectors are reusable scratch buffers hoisted out of
/// the slot loop so the steady state allocates nothing per slot;
/// payments are a flat vector over the dense rack index space instead
/// of a fresh map per slot.
///
/// [`begin`]: SlotContext::begin
#[derive(Debug)]
pub struct SlotContext {
    /// The slot being simulated.
    pub slot: Slot,
    /// Dense slot index (`slot.index() as usize`).
    pub t: usize,
    /// Whether a prediction-delay fault fired this slot.
    pub delayed: bool,
    /// Clearing price, if any spot was sold.
    pub price: Option<f64>,
    /// Predicted spot capacity offered to the market (W).
    pub spot_available: f64,
    /// Spot capacity actually sold/granted (W).
    pub spot_sold: f64,
    /// Whether any degradation path activated this slot.
    pub slot_degraded: bool,
    /// Per-rack payments for this slot (USD), dense rack index.
    pub payments: Vec<f64>,
    /// Tenant bids as delivered (after lost and late submissions);
    /// their tenants are the price broadcast's audience.
    pub bids: Vec<spotdc_core::TenantBid>,
    /// Admitted rack bids handed to clearing.
    pub rack_bids: Vec<spotdc_core::RackBid>,
    /// Racks requesting spot, fed to the predictor: the admitted rack
    /// bids' racks (`CollectBids`) or the wanting racks (`CollectGains`).
    pub requesting: Vec<RackId>,
    /// MaxPerf: concave gain envelope per wanting rack.
    pub gains: BTreeMap<RackId, ConcaveGain>,
    /// The constraint set clearing runs against, if a predict stage
    /// ran. Clear stages `take()` it.
    pub constraints: Option<ConstraintSet>,
}

impl SlotContext {
    /// Allocates the per-slot scratch for a topology of `rack_count`
    /// racks and `agent_count` tenant agents.
    #[must_use]
    pub fn new(rack_count: usize, agent_count: usize) -> Self {
        SlotContext {
            slot: Slot::ZERO,
            t: 0,
            delayed: false,
            price: None,
            spot_available: 0.0,
            spot_sold: 0.0,
            slot_degraded: false,
            payments: vec![0.0; rack_count],
            bids: Vec::with_capacity(agent_count),
            rack_bids: Vec::new(),
            requesting: Vec::new(),
            gains: BTreeMap::new(),
            constraints: None,
        }
    }

    /// Resets the slot-scoped fields at the top of slot `t`. Scratch
    /// buffers keep their capacity; the stages that fill them clear
    /// them first.
    pub fn begin(&mut self, slot: Slot, t: usize) {
        self.slot = slot;
        self.t = t;
        self.delayed = false;
        self.price = None;
        self.spot_available = 0.0;
        self.spot_sold = 0.0;
        self.slot_degraded = false;
        self.payments.fill(0.0);
        self.constraints = None;
    }
}
