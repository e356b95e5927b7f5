//! The pipeline stages: one struct per step of Algorithm 1.
//!
//! Float accumulation order, RNG draw order and telemetry emission are
//! part of the contract (the golden-report test pins every
//! composition's output byte for byte). Stage-local scratch that must
//! survive across slots (late bids, the per-PDU validation map) lives
//! on the stage struct itself, keeping the steady state free of
//! per-slot allocations.
//!
//! Whichever stage collects leaves the admitted requesting set, so
//! there is one [`Predict`]; the data-parallel sections always map
//! through [`SimState::inner`], and the pool, not the stage, decides
//! whether that fans out.
//!
//! The three `Clear*` stages only build their [`TaskShip`]s, hand them
//! to [`SimState::clear_tasks`] and interpret the results; whether the
//! tasks clear here or on shard agents is that function's business.

use std::collections::BTreeMap;

use spotdc_core::{
    check_allocation, check_allocation_indexed, BidIndex, ClearResult, ConcaveGain, ConstraintSet,
    MarketInvariant, RackBid, SpotAllocation, TaskShip, TenantBid,
};
use spotdc_faults::{BidFault, FaultPlan, MeterFault};
use spotdc_power::{PowerMeter, PowerTopology};
use spotdc_units::{RackId, Slot, TenantId, Watts};

use crate::metrics::{SlotRecord, TenantSlotMetrics};
use crate::pipeline::{SimState, SlotContext, SlotStage};

/// Logs one fired fault as a `FaultInjected` event. The label is
/// rendered only when telemetry is on.
fn note_fault_injected(slot: Slot, kind: &str, target: &dyn std::fmt::Display) {
    if spotdc_telemetry::is_enabled() {
        spotdc_telemetry::emit(spotdc_telemetry::Event::FaultInjected {
            slot,
            at: spotdc_units::MonotonicNanos::now(),
            kind: kind.to_owned(),
            target: target.to_string(),
        });
    }
}

/// Records `draw` into the meter, applying any scheduled meter fault:
/// a dropout skips the sample (detectable staleness), a freeze
/// re-records the last value as if fresh (undetectable), noise scales
/// the sample. Returns `true` when a fault fired.
fn record_observed(
    meter: &mut PowerMeter,
    plan: &FaultPlan,
    slot: Slot,
    rack: RackId,
    draw: Watts,
) -> bool {
    let Some(fault) = plan.meter_fault(slot, rack) else {
        meter.record(slot, rack, draw);
        return false;
    };
    note_fault_injected(slot, fault.kind(), &rack);
    match fault {
        MeterFault::Dropout => {}
        MeterFault::Freeze => {
            if let Some(prev) = meter.latest(rack) {
                meter.record(slot, rack, prev.power);
            }
        }
        MeterFault::Noise { relative } => {
            meter.record(slot, rack, draw * (1.0 + relative));
        }
    }
    true
}

/// Collects every tenant agent's bid in rack order, appending the
/// `Some` results to `bids`. The per-agent bid computation goes through
/// the inner pool (each agent mutates only its own valuation cache),
/// which runs it inline at width one and merges in agent order at any
/// width.
fn collect_bids_into(state: &mut SimState, slot: Slot, bids: &mut Vec<TenantBid>) {
    let _span = spotdc_telemetry::span!("par.collect_bids", slot = slot);
    let produced = state.inner.par_map_mut(&mut state.agents, |a| a.make_bid());
    bids.extend(produced.into_iter().flatten());
}

/// Counts and reports post-clearing invariant violations. Every
/// violation is a bug somewhere upstream — clearing, degradation or
/// capping — so debug builds abort on the spot.
fn note_violations(slot: Slot, violations: &[MarketInvariant], count: &mut usize) {
    if violations.is_empty() {
        return;
    }
    *count += violations.len();
    crate::validate::record_violations(violations.len());
    if spotdc_telemetry::is_enabled() {
        for v in violations {
            spotdc_telemetry::emit(spotdc_telemetry::Event::InvariantViolated {
                slot,
                at: spotdc_units::MonotonicNanos::now(),
                violation: v.to_string(),
            });
        }
    }
    debug_assert!(
        violations.is_empty(),
        "market invariants violated at {slot}: {violations:?}"
    );
}

/// The tenants among the slot's delivered `bids` whose price broadcast
/// is lost, sorted. Decided once per slot — however many sub-markets
/// then consult the set — and each `(slot, tenant)` is counted and
/// logged once, as a lost bid is.
fn lost_broadcasts(state: &mut SimState, slot: Slot, bids: &[TenantBid]) -> Vec<TenantId> {
    let is_lost = |tenant: &TenantId| state.plan.broadcast_lost(slot, *tenant);
    let mut lost: Vec<TenantId> = bids.iter().map(TenantBid::tenant).filter(is_lost).collect();
    for tenant in &lost {
        state.faults_injected += 1;
        note_fault_injected(slot, "broadcast-lost", tenant);
    }
    lost.sort_unstable();
    lost
}

/// The comms-loss rule for the price broadcast: a tenant that never
/// hears the price cannot know its grant, so every grant on a rack of a
/// `lost` tenant (sorted) is revoked before anything is programmed.
fn revoke_lost_broadcasts(topology: &PowerTopology, lost: &[TenantId], alloc: &mut SpotAllocation) {
    if lost.is_empty() {
        return;
    }
    alloc.revoke_where(|rack| {
        let owner = topology.rack(rack).map(|spec| spec.tenant());
        owner.is_ok_and(|tenant| lost.binary_search(&tenant).is_ok())
    });
}

/// Programs one cleared market's positive grants into the rack PDUs
/// and books each winner's payment for the slot.
fn program_grants(state: &mut SimState, payments: &mut [f64], alloc: &SpotAllocation) {
    for (rack, grant) in alloc.iter() {
        if grant > Watts::ZERO {
            state
                .bank
                .grant_spot(rack, grant)
                .expect("cleared grants respect rack headroom");
            payments[rack.index()] = alloc.payment_for(rack, state.slot_len).usd();
        }
    }
}

/// Sense: tenants observe their load traces, the rack PDUs reset, and
/// the prediction-delay fault (if scheduled) selects which meter
/// snapshot the market will see. Runs in every composition.
#[derive(Debug)]
pub struct Sense;

impl SlotStage for Sense {
    fn name(&self) -> &'static str {
        "stage.sense"
    }

    fn run(&mut self, state: &mut SimState, ctx: &mut SlotContext) {
        let slot = ctx.slot;
        let t = ctx.t;
        for (i, agent) in state.agents.iter_mut().enumerate() {
            agent.observe(state.traces.loads[i][t]);
        }
        state.bank.reset_all();

        // Delayed prediction input: the operator sees the meter as it
        // stood at the end of the previous slot.
        let delayed = state.plan.prediction_delayed(slot);
        if delayed {
            state.faults_injected += 1;
            note_fault_injected(slot, "prediction-delay", &"operator");
        }
        ctx.delayed = delayed;
    }
}

/// CollectBids: tenants bid, the optional price oracle runs its
/// pre-clearing pass, late bids from the previous slot roll over, bid
/// faults fire (a lost bid is simply not cleared), and the operator
/// admission-checks the delivered bids into `ctx.rack_bids`
/// — whichever pricing clears them, and before anything is shipped to
/// a shard agent. The admitted racks are the slot's requesting set.
#[derive(Debug)]
pub struct CollectBids {
    price_oracle: bool,
    /// Late bids carried across slots — stage-local because no other
    /// stage may observe them.
    late_bids: Vec<TenantBid>,
}

impl CollectBids {
    /// Creates the stage. `price_oracle` enables the Fig. 16
    /// pre-clearing price pass.
    #[must_use]
    pub fn new(price_oracle: bool) -> Self {
        CollectBids {
            price_oracle,
            late_bids: Vec::new(),
        }
    }
}

impl SlotStage for CollectBids {
    fn name(&self) -> &'static str {
        "stage.collect_bids"
    }

    fn save_durable(&self, enc: &mut spotdc_durable::Encoder) {
        // Late bids are the one piece of market state carried across
        // slots outside `SimState`; a checkpoint must capture them or a
        // recovered run would drop a rolled-over bid a cold run admits.
        crate::durability::encode_tenant_bids(enc, &self.late_bids);
    }

    fn load_durable(
        &mut self,
        dec: &mut spotdc_durable::Decoder<'_>,
    ) -> Result<(), spotdc_durable::DecodeError> {
        self.late_bids = crate::durability::decode_tenant_bids(dec)?;
        Ok(())
    }

    fn run(&mut self, state: &mut SimState, ctx: &mut SlotContext) {
        let slot = ctx.slot;
        ctx.bids.clear();
        collect_bids_into(state, slot, &mut ctx.bids);
        if self.price_oracle {
            // The oracle's pre-pass always reads the *live* meter: it
            // models perfect knowledge, not the (possibly delayed)
            // view the real clearing pass gets.
            let pre = state.operator.run_slot(slot, &ctx.bids, &state.meter);
            let oracle = (pre.outcome.sold() > Watts::ZERO).then(|| pre.outcome.price());
            for a in state.agents.iter_mut() {
                a.predict_price(oracle);
            }
            ctx.bids.clear();
            collect_bids_into(state, slot, &mut ctx.bids);
        }
        // Late bids from the previous slot arrive now — unless the
        // tenant already submitted a fresh one, which supersedes the
        // stale copy.
        for b in self.late_bids.drain(..) {
            if !ctx.bids.iter().any(|x| x.tenant() == b.tenant()) {
                ctx.bids.push(b);
            }
        }
        let mut i = 0;
        while i < ctx.bids.len() {
            match state.plan.bid_fault(slot, ctx.bids[i].tenant()) {
                None => i += 1,
                Some(fault) => {
                    state.faults_injected += 1;
                    note_fault_injected(slot, fault.kind(), &ctx.bids[i].tenant());
                    let bid = ctx.bids.remove(i);
                    if fault == BidFault::Late {
                        self.late_bids.push(bid);
                    }
                }
            }
        }
        ctx.rack_bids.clear();
        // Who was turned away is the operator's to report (`BidRejected`);
        // nothing downstream reads it.
        state
            .operator
            .admit_bids_into(slot, &ctx.bids, &mut ctx.rack_bids, &mut Vec::new());
        ctx.requesting.clear();
        ctx.requesting
            .extend(ctx.rack_bids.iter().map(RackBid::rack));
    }
}

/// CollectGains: the MaxPerf analogue of bidding — every tenant that
/// wants spot contributes the concave envelope of its gain curve.
#[derive(Debug)]
pub struct CollectGains;

impl SlotStage for CollectGains {
    fn name(&self) -> &'static str {
        "stage.collect_gains"
    }

    fn run(&mut self, state: &mut SimState, ctx: &mut SlotContext) {
        ctx.gains.clear();
        ctx.requesting.clear();
        // Envelope construction is the expensive part and goes through
        // the inner pool; the merge below inserts in agent order at any
        // width.
        let _span = spotdc_telemetry::span!("par.collect_gains", slot = ctx.slot);
        let produced = state.inner.par_map_mut(&mut state.agents, |agent| {
            if !agent.wants_spot() {
                return None;
            }
            let env = agent.gain_curve().concave_envelope();
            ConcaveGain::from_points(env.points())
                .ok()
                .map(|gain| (agent.rack(), gain))
        });
        for (rack, gain) in produced.into_iter().flatten() {
            ctx.requesting.push(rack);
            ctx.gains.insert(rack, gain);
        }
    }
}

/// Predict: forecast this slot's spot capacity (paper Eqns. 1–4) from
/// the market's meter view for the requesting set the collect stage
/// left, and build the constraint set clearing will run against. One
/// body for every composition: the operator applies its configured
/// staleness policy and emits the prediction / degradation telemetry
/// whatever clears the slot.
#[derive(Debug)]
pub struct Predict;

impl SlotStage for Predict {
    fn name(&self) -> &'static str {
        "stage.predict"
    }

    fn run(&mut self, state: &mut SimState, ctx: &mut SlotContext) {
        let meter = state.market_meter(ctx.delayed);
        let (predicted, degraded) = state
            .operator
            .predict_spot(ctx.slot, &ctx.requesting, meter);
        ctx.slot_degraded |= degraded.is_some();
        ctx.spot_available = predicted.total_pdu().min(predicted.ups).value();
        ctx.constraints = Some(ConstraintSet::new(
            &state.topology,
            predicted.pdu,
            predicted.ups,
        ));
    }
}

/// ClearUniform: the paper's single uniform-price clearing, the price
/// broadcast (a tenant it does not reach loses its grant),
/// post-clearing invariant check, and grant programming into the rack
/// PDUs.
///
/// The uniform market is a single task: it clears against the shared
/// UPS constraint, so it cannot split.
#[derive(Debug)]
pub struct ClearUniform;

impl SlotStage for ClearUniform {
    fn name(&self) -> &'static str {
        "stage.clear_market"
    }

    fn run(&mut self, state: &mut SimState, ctx: &mut SlotContext) {
        let slot = ctx.slot;
        let mut constraints = ctx.constraints.take().expect("Predict runs before Clear");
        let task = TaskShip::Market {
            bids: ctx.rack_bids.clone(),
            ups_spot: constraints.ups_spot(),
        };
        let cleared = state.clear_tasks(slot, &mut constraints, vec![task]).pop();
        let Some(Some(ClearResult::Market(outcome))) = cleared else {
            // Comms loss: no spot capacity this slot.
            ctx.slot_degraded = true;
            return;
        };
        let mut alloc = outcome.into_allocation();
        let lost = lost_broadcasts(state, slot, &ctx.bids);
        revoke_lost_broadcasts(&state.topology, &lost, &mut alloc);
        if state.validate {
            // The checker audits against *every delivered* bid, not
            // just the admitted ones, so admission bugs can't hide.
            ctx.rack_bids.clear();
            ctx.rack_bids
                .extend(ctx.bids.iter().flat_map(|b| b.rack_bids().iter().cloned()));
            note_violations(
                slot,
                &check_allocation(&constraints, &alloc, &ctx.rack_bids, true),
                &mut state.invariant_violations,
            );
        }
        program_grants(state, &mut ctx.payments, &alloc);
        ctx.spot_sold = alloc.total().value();
        if ctx.spot_sold > 0.0 {
            ctx.price = Some(alloc.price().per_kw_hour_value());
        }
    }
}

/// ClearPerPdu: the localized-price ablation — each PDU's sub-market
/// clears independently at its own price; the reported price is
/// revenue-weighted across sub-markets and the combined grant set is
/// checked against the shared UPS spot.
#[derive(Debug, Default)]
pub struct ClearPerPdu {
    /// Combined grant set across sub-markets (validation scratch).
    combined: BTreeMap<RackId, Watts>,
}

impl SlotStage for ClearPerPdu {
    fn name(&self) -> &'static str {
        "stage.clear_per_pdu"
    }

    fn run(&mut self, state: &mut SimState, ctx: &mut SlotContext) {
        let slot = ctx.slot;
        let mut constraints = ctx.constraints.take().expect("Predict runs before Clear");
        let mut revenue_weighted_price = 0.0;
        self.combined.clear();
        // One task per PDU sub-market, each against its own UPS share.
        // Results come back in task (PDU) order wherever they cleared,
        // so the merge below — payments, validation, revenue-weighted
        // price — is the same on every backend.
        let tasks = state
            .operator
            .clearing()
            .per_pdu_submarket_shares(&ctx.rack_bids, &constraints)
            .into_iter()
            .map(|(bids, ups_spot)| TaskShip::Market { bids, ups_spot })
            .collect();
        let cleared = state.clear_tasks(slot, &mut constraints, tasks);
        // One rack → bids index for the whole slot: every sub-market's
        // Eq. 1 check then costs its own grants, not the slot's bids.
        let admitted = state.validate.then(|| BidIndex::new(&ctx.rack_bids));
        let lost = lost_broadcasts(state, slot, &ctx.bids);
        for result in cleared {
            let Some(ClearResult::Market(outcome)) = result else {
                // Comms loss: this sub-market sells nothing this slot.
                ctx.slot_degraded = true;
                continue;
            };
            let mut alloc = outcome.into_allocation();
            revoke_lost_broadcasts(&state.topology, &lost, &mut alloc);
            if state.validate {
                note_violations(
                    slot,
                    &check_allocation_indexed(&constraints, &alloc, admitted.as_ref()),
                    &mut state.invariant_violations,
                );
                for (rack, grant) in alloc.iter() {
                    self.combined.insert(rack, grant);
                }
            }
            program_grants(state, &mut ctx.payments, &alloc);
            let sold = alloc.total().value();
            ctx.spot_sold += sold;
            revenue_weighted_price += alloc.price().per_kw_hour_value() * sold;
        }
        if state.validate {
            // The sub-markets share the UPS spot; the combined grant
            // set must still fit it.
            if let Err(v) = constraints.check(&self.combined) {
                note_violations(
                    slot,
                    &[MarketInvariant::Capacity(v)],
                    &mut state.invariant_violations,
                );
            }
        }
        if ctx.spot_sold > 0.0 {
            ctx.price = Some(revenue_weighted_price / ctx.spot_sold);
        }
    }
}

/// ClearMaxPerf: the omniscient water-filling allocator — no prices,
/// no payments, grants straight into the rack PDUs.
#[derive(Debug)]
pub struct ClearMaxPerf;

impl SlotStage for ClearMaxPerf {
    fn name(&self) -> &'static str {
        "stage.clear_maxperf"
    }

    fn run(&mut self, state: &mut SimState, ctx: &mut SlotContext) {
        let slot = ctx.slot;
        let mut constraints = ctx.constraints.take().expect("Predict runs before Clear");
        // Water-filling is a single task: the envelopes interact
        // through the shared constraints.
        let task = TaskShip::MaxPerf {
            gains: ctx.gains.clone(),
            ups_spot: constraints.ups_spot(),
        };
        let cleared = state.clear_tasks(slot, &mut constraints, vec![task]).pop();
        let Some(Some(ClearResult::MaxPerf(grants))) = cleared else {
            // Comms loss: no spot capacity this slot.
            ctx.slot_degraded = true;
            return;
        };
        if state.validate {
            if let Err(v) = constraints.check(&grants) {
                note_violations(
                    slot,
                    &[MarketInvariant::Capacity(v)],
                    &mut state.invariant_violations,
                );
            }
        }
        for (&rack, &grant) in &grants {
            if grant > Watts::ZERO {
                state
                    .bank
                    .grant_spot(rack, grant)
                    .expect("maxperf grants respect rack headroom");
                ctx.spot_sold += grant.value();
            }
        }
    }
}

/// Enforce: graceful degradation — when overloads were observed last
/// slot, the cap controller sheds spot first (guaranteed capacity is
/// only capped while a held level's base load alone exceeds its
/// capacity), with hysteresis on release. A no-op when no controller
/// is configured.
#[derive(Debug)]
pub struct Enforce;

impl SlotStage for Enforce {
    fn name(&self) -> &'static str {
        "stage.enforce"
    }

    fn run(&mut self, state: &mut SimState, ctx: &mut SlotContext) {
        let Some(cap) = state.cap.as_mut() else {
            return;
        };
        cap.note_emergencies(ctx.slot, &state.last_emergencies);
        let outcome = cap.enforce(ctx.slot, &state.prev_base_pdu, &mut state.bank);
        for trim in &outcome.trims {
            ctx.spot_sold -= (trim.old_spot - trim.new_spot).value();
            let i = trim.rack.index();
            if trim.old_spot > Watts::ZERO {
                ctx.payments[i] *= trim.new_spot.value() / trim.old_spot.value();
            }
        }
        if !outcome.is_noop() {
            ctx.slot_degraded = true;
        }
    }
}

/// Settle: tenants execute under their budgets, the meter records the
/// *observed* draw (subject to meter faults) while `true_draw` keeps
/// the physical one; emergencies, accounting, telemetry and the
/// per-slot record all settle here, and slot state rolls forward for
/// the next slot's degradation paths.
#[derive(Debug)]
pub struct Settle;

impl SlotStage for Settle {
    fn name(&self) -> &'static str {
        "stage.settle"
    }

    fn run(&mut self, state: &mut SimState, ctx: &mut SlotContext) {
        let slot = ctx.slot;
        let t = ctx.t;
        let mut tenant_metrics = Vec::with_capacity(state.agents.len());
        // Tenant execution is pure per agent (`run_slot(&self)`), so the
        // inner pool only reads the agents and the bank; the serial
        // merge below records meter samples and metrics in agent order,
        // keeping the report identical at any width.
        let outcomes = {
            let _span = spotdc_telemetry::span!("par.settle", slot = slot);
            let bank = &state.bank;
            state.inner.par_map(&state.agents, |agent| {
                agent.run_slot(bank.budget(agent.rack()))
            })
        };
        for (agent, out) in state.agents.iter().zip(outcomes) {
            if record_observed(&mut state.meter, &state.plan, slot, agent.rack(), out.draw) {
                state.faults_injected += 1;
            }
            state.true_draw[agent.rack().index()] = out.draw.clamp_non_negative();
            let (perf_index, slo_met) = match out.performance {
                spotdc_tenants::Performance::Latency { slo_met, .. } => {
                    (out.performance.index(), Some(slo_met))
                }
                spotdc_tenants::Performance::Throughput { .. } => (out.performance.index(), None),
            };
            tenant_metrics.push(TenantSlotMetrics {
                wanted: agent.wants_spot(),
                grant: state.bank.spot_grant(agent.rack()).value(),
                draw: out.draw.value(),
                perf_index,
                slo_met,
                cost_rate: out.cost_rate,
                payment: ctx.payments[agent.rack().index()],
            });
        }
        for (j, other) in state.others.iter().enumerate() {
            let draw = state.traces.others[j][t].min(other.subscription);
            if record_observed(&mut state.meter, &state.plan, slot, other.rack, draw) {
                state.faults_injected += 1;
            }
            state.true_draw[other.rack.index()] = draw.clamp_non_negative();
        }

        // Emergencies and the per-slot record reflect *physical* power:
        // `true_draw` summed in rack order — the order the meter sums
        // its readings in, so an unfaulted run's records match what it
        // observed bit for bit — into the recycled per-PDU buffer.
        state.pdu_draw.fill(Watts::ZERO);
        let mut ups_power = Watts::ZERO;
        for (i, &d) in state.true_draw.iter().enumerate() {
            state.pdu_draw[state.rack_pdu[i]] += d;
            ups_power += d;
        }
        let found = state.emergencies.observe(slot, &state.pdu_draw);
        if ctx.slot_degraded {
            state.degraded_slots += 1;
        }
        state.records.push(SlotRecord {
            slot: t as u64,
            price: ctx.price,
            spot_available: ctx.spot_available,
            spot_sold: ctx.spot_sold,
            ups_power: ups_power.value(),
            pdu_power: state.pdu_draw.iter().map(|w| w.value()).collect(),
            tenants: tenant_metrics,
        });
        // Roll slot state forward for next slot's degradation paths.
        state.last_emergencies = found;
        if state.cap.is_some() {
            state
                .prev_base_pdu
                .iter_mut()
                .for_each(|w| *w = Watts::ZERO);
            for i in 0..state.true_draw.len() {
                state.prev_base_pdu[state.rack_pdu[i]] +=
                    state.true_draw[i].min(state.guaranteed[i]);
            }
        }
        if state.track_prev_meter {
            state.prev_meter = Some(state.meter.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotdc_power::topology::TopologyBuilder;
    use spotdc_units::Price;

    #[test]
    fn a_lost_broadcast_revokes_every_rack_of_that_tenant_and_no_other() {
        let watts = Watts::new;
        let topology = TopologyBuilder::new(watts(400.0))
            .pdu(watts(400.0))
            .rack(TenantId::new(0), watts(100.0), watts(50.0))
            .rack(TenantId::new(1), watts(100.0), watts(50.0))
            .rack(TenantId::new(0), watts(100.0), watts(50.0))
            .build()
            .unwrap();
        let grants = (0..3).map(|r| (RackId::new(r), watts(20.0))).collect();
        let mut alloc = SpotAllocation::new(Slot::new(2), Price::per_kw_hour(0.2), grants);
        revoke_lost_broadcasts(&topology, &[], &mut alloc);
        assert_eq!(alloc.total(), watts(60.0));
        revoke_lost_broadcasts(&topology, &[TenantId::new(0)], &mut alloc);
        let kept: Vec<RackId> = alloc.iter().map(|(rack, _)| rack).collect();
        assert_eq!(kept, [RackId::new(1)]);
    }
}
