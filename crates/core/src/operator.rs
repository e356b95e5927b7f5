//! The operator's per-slot control loop (Algorithm 1 of the paper).
//!
//! Each slot the operator: collects tenants' bundled bids, predicts
//! spot capacity from the power monitor, clears the market, and
//! returns the grants to be programmed into the rack PDUs. [`Operator`]
//! packages those steps; the surrounding simulation (or a real
//! deployment shim) owns the clock, the meter and the actuation.

use serde::{Deserialize, Serialize};
use spotdc_power::{PowerMeter, PowerTopology};
use spotdc_units::{RackId, Slot};

use crate::bid::{RackBid, TenantBid};
use crate::clearing::{ClearingConfig, MarketClearing, MarketOutcome};
use crate::constraints::ConstraintSet;
use crate::prediction::{PredictedSpot, SpotPredictor, StalenessPolicy};

/// Operator-side configuration: how to predict and how to clear.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct OperatorConfig {
    /// Market-clearing search configuration.
    pub clearing: ClearingConfig,
    /// Spot-capacity predictor (under-prediction factor).
    pub predictor: SpotPredictor,
    /// Telemetry settings. [`Operator::new`] installs them process-wide
    /// when `telemetry.enabled` is set *and* nothing installed telemetry
    /// earlier, so the default disabled config never clobbers a sink
    /// installed elsewhere (e.g. by the simulation engine or the repro
    /// binary) and concurrent operators never race on the global sink.
    pub telemetry: spotdc_telemetry::TelemetryConfig,
    /// Staleness handling for prediction inputs. `None` (the default)
    /// preserves the historical behaviour of trusting the meter's
    /// latest reading unconditionally; `Some` widens margins per slot
    /// of staleness and withholds PDUs past the policy's age bound.
    pub staleness: Option<StalenessPolicy>,
}

/// The SpotDC operator: owns the market for one power topology.
///
/// # Examples
///
/// ```
/// use spotdc_core::{demand::StepBid, Operator, OperatorConfig, RackBid, TenantBid};
/// use spotdc_power::{PowerMeter, topology::TopologyBuilder};
/// use spotdc_units::{Price, RackId, Slot, TenantId, Watts};
///
/// let topo = TopologyBuilder::new(Watts::new(300.0))
///     .pdu(Watts::new(300.0))
///     .rack(TenantId::new(0), Watts::new(100.0), Watts::new(50.0))
///     .rack(TenantId::new(1), Watts::new(150.0), Watts::ZERO)
///     .build()?;
/// let mut meter = PowerMeter::new(&topo, 4)?;
/// meter.record(Slot::ZERO, RackId::new(0), Watts::new(80.0));
/// meter.record(Slot::ZERO, RackId::new(1), Watts::new(100.0));
///
/// let operator = Operator::new(topo, OperatorConfig::default());
/// let bid = TenantBid::new(TenantId::new(0), vec![RackBid::new(
///     RackId::new(0),
///     StepBid::new(Watts::new(30.0), Price::per_kw_hour(0.2))?.into(),
/// )])?;
/// let round = operator.run_slot(Slot::new(1), &[bid], &meter);
/// assert_eq!(round.outcome.allocation().grant(RackId::new(0)), Watts::new(30.0));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Operator {
    topology: PowerTopology,
    clearing: MarketClearing,
    predictor: SpotPredictor,
    staleness: Option<StalenessPolicy>,
}

/// Everything the operator produced for one slot.
#[derive(Debug, Clone)]
pub struct SlotRound {
    /// The spot capacities the operator predicted before clearing.
    pub predicted: PredictedSpot,
    /// The constraint set the market cleared against.
    pub constraints: ConstraintSet,
    /// The clearing outcome (price, grants, revenue).
    pub outcome: MarketOutcome,
    /// Rack bids that were dropped at admission (unknown rack, a rack
    /// not owned by the bidding tenant, a tenant's second bid, or a bid
    /// for more than the rack's spot headroom).
    pub rejected: Vec<RackId>,
    /// How prediction inputs were degraded this slot, if a
    /// [`StalenessPolicy`] was in force and anything was stale.
    pub degraded: Option<DegradedInfo>,
}

/// What was degraded while producing a [`SlotRound`]'s prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradedInfo {
    /// Racks whose prediction reference came from a stale reading.
    pub stale_racks: u64,
    /// PDUs whose spot capacity was withheld entirely.
    pub withheld_pdus: u64,
}

impl Operator {
    /// Creates an operator for `topology`.
    #[must_use]
    pub fn new(topology: PowerTopology, config: OperatorConfig) -> Self {
        if config.telemetry.enabled {
            spotdc_telemetry::install_if_uninstalled(config.telemetry);
        }
        Operator {
            topology,
            clearing: MarketClearing::new(config.clearing),
            predictor: config.predictor,
            staleness: config.staleness,
        }
    }

    /// The topology this operator manages.
    #[must_use]
    pub fn topology(&self) -> &PowerTopology {
        &self.topology
    }

    /// Runs one market round for `slot`: admission-checks the bids,
    /// predicts spot capacity (requesting racks count at their full
    /// guarantee), clears, and returns the round record.
    ///
    /// This is the one-call convenience wrapper over the staged entry
    /// points ([`Self::admit_bids_into`], [`Self::predict_spot`],
    /// [`Self::clear`]) that a pipeline-shaped caller — the simulation
    /// engine's `CollectBids`/`Predict`/`Clear` stages — invokes
    /// individually with its own reusable buffers.
    #[must_use]
    pub fn run_slot(&self, slot: Slot, bids: &[TenantBid], meter: &PowerMeter) -> SlotRound {
        let _span = spotdc_telemetry::span!("operator.run_slot", slot = slot);
        let mut rack_bids: Vec<RackBid> = Vec::new();
        let mut rejected: Vec<RackId> = Vec::new();
        self.admit_bids_into(slot, bids, &mut rack_bids, &mut rejected);
        let requesting: Vec<RackId> = rack_bids.iter().map(RackBid::rack).collect();
        let (predicted, degraded) = self.predict_spot(slot, &requesting, meter);
        let constraints = ConstraintSet::new(&self.topology, predicted.pdu.clone(), predicted.ups);
        let outcome = self.clear(slot, &rack_bids, &constraints);
        SlotRound {
            predicted,
            constraints,
            outcome,
            rejected,
            degraded,
        }
    }

    /// Admission-checks `bids`, appending each rack bid that names a
    /// known rack owned by the bidding tenant, and asks for at most the
    /// rack's spot headroom, to `rack_bids` and every other requested
    /// rack to `rejected`. A tenant bids once a slot: only its first bid
    /// in `bids` is admitted, and every rack of a later one is rejected.
    /// Buffers are appended to, not cleared, so callers can reuse
    /// hot-path scratch across slots.
    pub fn admit_bids_into(
        &self,
        slot: Slot,
        bids: &[TenantBid],
        rack_bids: &mut Vec<RackBid>,
        rejected: &mut Vec<RackId>,
    ) {
        // Only a rack owner needs a has-bid bit: every rack a tenant
        // beyond the last owner names is rejected anyway.
        let owners = self.topology.tenants().last().map_or(0, |t| t.index() + 1);
        let mut has_bid = vec![false; owners];
        for tenant_bid in bids {
            let tenant = tenant_bid.tenant().index();
            let repeated = has_bid
                .get_mut(tenant)
                .is_some_and(|seen| std::mem::replace(seen, true));
            let rejected_before = rejected.len();
            // Why the first dropped rack was dropped.
            let mut reason = None;
            for rb in tenant_bid.rack_bids() {
                let refusal = match self.topology.rack(rb.rack()) {
                    _ if repeated => Some("admission: tenant already bid this slot"),
                    Ok(spec) if spec.tenant() == tenant_bid.tenant() => {
                        let over = rb.demand().max_demand() > spec.spot_headroom();
                        over.then_some("admission: bid exceeds rack headroom")
                    }
                    _ => Some("admission: rack unknown or not owned by tenant"),
                };
                match refusal {
                    None => rack_bids.push(rb.clone()),
                    Some(why) => {
                        reason.get_or_insert(why);
                        rejected.push(rb.rack());
                    }
                }
            }
            let dropped = rejected.len() - rejected_before;
            if let Some(reason) = reason.filter(|_| spotdc_telemetry::is_enabled()) {
                spotdc_telemetry::emit(spotdc_telemetry::Event::BidRejected {
                    slot,
                    at: spotdc_units::MonotonicNanos::now(),
                    tenant: tenant as u64,
                    racks: dropped as u64,
                    reason: reason.to_owned(),
                });
            }
        }
    }

    /// Predicts this slot's spot capacity from `meter` for the racks in
    /// `requesting` (which count at their full guarantee), applying the
    /// configured [`StalenessPolicy`] and emitting the degradation and
    /// prediction telemetry events.
    #[must_use]
    pub fn predict_spot(
        &self,
        slot: Slot,
        requesting: &[RackId],
        meter: &PowerMeter,
    ) -> (PredictedSpot, Option<DegradedInfo>) {
        let (predicted, degraded) = match self.staleness {
            None => (
                self.predictor
                    .predict(&self.topology, meter, requesting.iter().copied()),
                None,
            ),
            Some(policy) => {
                let d = self.predictor.predict_with_staleness(
                    &self.topology,
                    meter,
                    requesting.iter().copied(),
                    slot,
                    policy,
                );
                let info = d.is_degraded().then_some(DegradedInfo {
                    stale_racks: d.stale_racks,
                    withheld_pdus: d.withheld_pdus,
                });
                if let Some(info) = info {
                    if spotdc_telemetry::is_enabled() {
                        spotdc_telemetry::emit(spotdc_telemetry::Event::DegradedDecision {
                            slot,
                            at: spotdc_units::MonotonicNanos::now(),
                            kind: "stale-meter".to_owned(),
                            detail: format!(
                                "{} stale racks, {} withheld pdus",
                                info.stale_racks, info.withheld_pdus
                            ),
                            watts: d.spot.total_pdu().value(),
                        });
                    }
                }
                (d.spot, info)
            }
        };
        if spotdc_telemetry::is_enabled() {
            spotdc_telemetry::emit(spotdc_telemetry::Event::PredictionIssued {
                slot,
                at: spotdc_units::MonotonicNanos::now(),
                ups_watts: predicted.ups.value(),
                pdu_total_watts: predicted.total_pdu().value(),
                pdus: predicted.pdu.len() as u64,
            });
        }
        (predicted, degraded)
    }

    /// Clears the market over admitted `rack_bids` under `constraints`.
    #[must_use]
    pub fn clear(
        &self,
        slot: Slot,
        rack_bids: &[RackBid],
        constraints: &ConstraintSet,
    ) -> MarketOutcome {
        self.clearing.clear(slot, rack_bids, constraints)
    }

    /// The clearing engine: what a clear stage walks its tasks on
    /// ([`MarketClearing::clear_tasks`]), the same function a shard
    /// agent runs.
    #[must_use]
    pub fn clearing(&self) -> &MarketClearing {
        &self.clearing
    }

    /// How many slots this operator's clearing engine has swept or
    /// routed through the legacy scan so far.
    #[must_use]
    pub fn clearing_cache_stats(&self) -> crate::clearing::ClearingCacheStats {
        self.clearing.cache_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::StepBid;
    use spotdc_power::topology::TopologyBuilder;
    use spotdc_units::{Price, TenantId, Watts};

    fn operator() -> (Operator, PowerMeter) {
        let topo = TopologyBuilder::new(Watts::new(400.0))
            .pdu(Watts::new(250.0))
            .rack(TenantId::new(0), Watts::new(100.0), Watts::new(50.0))
            .rack(TenantId::new(1), Watts::new(100.0), Watts::new(50.0))
            .build()
            .unwrap();
        let mut meter = PowerMeter::new(&topo, 4).unwrap();
        meter.record(Slot::ZERO, RackId::new(0), Watts::new(70.0));
        meter.record(Slot::ZERO, RackId::new(1), Watts::new(60.0));
        (Operator::new(topo, OperatorConfig::default()), meter)
    }

    fn step_bid(tenant: usize, rack: usize, d: f64, q: f64) -> TenantBid {
        TenantBid::new(
            TenantId::new(tenant),
            vec![RackBid::new(
                RackId::new(rack),
                StepBid::new(Watts::new(d), Price::per_kw_hour(q))
                    .unwrap()
                    .into(),
            )],
        )
        .unwrap()
    }

    #[test]
    fn full_round_produces_feasible_grants() {
        let (op, meter) = operator();
        let bids = vec![step_bid(0, 0, 40.0, 0.3), step_bid(1, 1, 30.0, 0.2)];
        let round = op.run_slot(Slot::new(1), &bids, &meter);
        assert!(round.rejected.is_empty());
        assert!(round
            .constraints
            .is_feasible(round.outcome.allocation().grants()));
        assert!(round.outcome.sold() > Watts::ZERO);
    }

    #[test]
    fn repeated_rounds_surface_clearing_cache_stats() {
        // The same bids slot after slot clear alike, and the operator
        // exposes its engine's counts of them.
        let (op, meter) = operator();
        let bids = vec![step_bid(0, 0, 40.0, 0.3), step_bid(1, 1, 30.0, 0.2)];
        let first = op.run_slot(Slot::new(1), &bids, &meter);
        let second = op.run_slot(Slot::new(2), &bids, &meter);
        assert_eq!(
            first.outcome.allocation().grants(),
            second.outcome.allocation().grants()
        );
        assert_eq!(first.outcome.price(), second.outcome.price());
        let stats = op.clearing_cache_stats();
        assert_eq!(stats.full_sweeps + stats.legacy_scans, 2, "{stats:?}");
        assert!(stats.candidates_total > 0, "{stats:?}");
    }

    #[test]
    fn requesting_racks_count_at_guarantee_in_prediction() {
        let (op, meter) = operator();
        // Without bids: spot = 250 - 70 - 60 = 120.
        let none = op.run_slot(Slot::new(1), &[], &meter);
        assert_eq!(none.predicted.pdu[0], Watts::new(120.0));
        // Rack 0 bidding: its reference becomes 100 → spot = 90.
        let with = op.run_slot(Slot::new(1), &[step_bid(0, 0, 10.0, 0.2)], &meter);
        assert_eq!(with.predicted.pdu[0], Watts::new(90.0));
    }

    #[test]
    fn foreign_rack_bid_is_rejected() {
        let (op, meter) = operator();
        // Tenant 0 bidding for tenant 1's rack.
        let round = op.run_slot(Slot::new(1), &[step_bid(0, 1, 10.0, 0.2)], &meter);
        assert_eq!(round.rejected, vec![RackId::new(1)]);
        assert!(round.outcome.allocation().is_empty());
    }

    #[test]
    fn a_second_bid_from_one_tenant_is_rejected() {
        let (op, meter) = operator();
        // Tenant 0 bids twice for its rack; only the first bid counts,
        // so the price, the grant and the revenue all come from it.
        let bids = vec![
            step_bid(0, 0, 40.0, 0.3),
            step_bid(0, 0, 45.0, 0.25),
            step_bid(1, 1, 30.0, 0.2),
        ];
        let round = op.run_slot(Slot::new(1), &bids, &meter);
        assert_eq!(round.rejected, vec![RackId::new(0)]);
        let first_only = op.run_slot(Slot::new(1), &[bids[0].clone(), bids[2].clone()], &meter);
        assert_eq!(round.outcome.price(), first_only.outcome.price());
        assert_eq!(
            round.outcome.allocation().grants(),
            first_only.outcome.allocation().grants()
        );
        assert_eq!(
            round.outcome.revenue_rate(),
            first_only.outcome.revenue_rate()
        );
        assert_eq!(
            round.outcome.allocation().grant(RackId::new(0)),
            Watts::new(40.0)
        );
    }

    #[test]
    fn a_bid_beyond_rack_headroom_is_rejected() {
        let (op, meter) = operator();
        // Both racks have 50 W of spot headroom.
        let over = op.run_slot(Slot::new(1), &[step_bid(0, 0, 51.0, 0.2)], &meter);
        assert_eq!(over.rejected, vec![RackId::new(0)]);
        assert!(over.outcome.allocation().is_empty());
        let exact = op.run_slot(Slot::new(1), &[step_bid(0, 0, 50.0, 0.2)], &meter);
        assert!(exact.rejected.is_empty());
        assert_eq!(
            exact.outcome.allocation().grant(RackId::new(0)),
            Watts::new(50.0)
        );
    }

    #[test]
    fn unknown_rack_bid_is_rejected() {
        let (op, meter) = operator();
        let round = op.run_slot(Slot::new(1), &[step_bid(0, 7, 10.0, 0.2)], &meter);
        assert_eq!(round.rejected, vec![RackId::new(7)]);
    }

    #[test]
    fn staleness_policy_degrades_rounds() {
        let (op, meter) = operator();
        let topo = op.topology().clone();
        let stale_aware = Operator::new(
            topo,
            OperatorConfig {
                staleness: Some(StalenessPolicy::paper_default()),
                ..OperatorConfig::default()
            },
        );
        // Fresh inputs (readings from slot 0, predicting slot 1): not
        // degraded, identical prediction to the policy-free operator.
        let fresh = stale_aware.run_slot(Slot::new(1), &[], &meter);
        assert!(fresh.degraded.is_none());
        assert_eq!(
            fresh.predicted,
            op.run_slot(Slot::new(1), &[], &meter).predicted
        );
        // Three slots of silence: margins widen (10 W per stale slot,
        // both racks 2 slots stale ⇒ 120 − 40 = 80) and the round is
        // flagged degraded.
        let stale = stale_aware.run_slot(Slot::new(3), &[], &meter);
        let info = stale.degraded.expect("stale inputs flag the round");
        assert_eq!(info.stale_racks, 2);
        assert_eq!(info.withheld_pdus, 0);
        assert_eq!(stale.predicted.pdu[0], Watts::new(80.0));
        // Past the age bound the PDU is withheld outright.
        let dead = stale_aware.run_slot(Slot::new(20), &[], &meter);
        assert_eq!(dead.degraded.unwrap().withheld_pdus, 1);
        assert_eq!(dead.predicted.pdu[0], Watts::ZERO);
    }

    #[test]
    fn under_prediction_shrinks_supply() {
        let topo = {
            let (op, _) = operator();
            op.topology().clone()
        };
        let mut meter = PowerMeter::new(&topo, 4).unwrap();
        meter.record(Slot::ZERO, RackId::new(0), Watts::new(70.0));
        meter.record(Slot::ZERO, RackId::new(1), Watts::new(60.0));
        let conservative = Operator::new(
            topo,
            OperatorConfig {
                predictor: SpotPredictor::under_predicting(20.0),
                ..OperatorConfig::default()
            },
        );
        let round = conservative.run_slot(Slot::new(1), &[], &meter);
        assert!(round.predicted.pdu[0].approx_eq(Watts::new(96.0), 1e-9));
    }
}
