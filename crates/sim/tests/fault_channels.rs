//! Every fault channel bites: each `FaultConfig` channel, armed alone on
//! `Scenario::hyperscale(42, 304)` under uniform SpotDc, shows the
//! mechanism its doc names, stage by stage. A channel whose verdicts
//! fire but change nothing would pass the fault counters and the
//! determinism grid; these tests catch it.

use spotdc_core::{OperatorConfig, StalenessPolicy};
use spotdc_faults::{BidFault, FaultConfig, FaultPlan, MeterFault};
use spotdc_power::{MeterReading, PowerMeter};
use spotdc_sim::engine::{EngineConfig, Simulation};
use spotdc_sim::pipeline::{self, SimState, SlotContext, Stage};
use spotdc_sim::{Mode, Scenario, SimReport};
use spotdc_units::{RackId, Slot, TenantId, Watts};

const TENANTS: usize = 304;
const SLOTS: u64 = 60;

fn scenario() -> Scenario {
    Scenario::hyperscale(42, TENANTS)
}

/// Uniform SpotDc with only the channels `faults` sets armed.
fn armed(faults: FaultConfig) -> EngineConfig {
    EngineConfig {
        faults: FaultConfig { seed: 7, ..faults },
        ..EngineConfig::new(Mode::SpotDc)
    }
}

/// Runs [`SLOTS`] slots of `config` stage by stage, calling
/// `after(stage name, state, ctx, stages)` once each stage has run, and
/// returns the report.
fn drive(
    config: &EngineConfig,
    mut after: impl FnMut(&str, &SimState, &SlotContext, &[Stage]),
) -> SimReport {
    let scenario = scenario();
    let mut state = SimState::new(&scenario, config, SLOTS as usize);
    let mut ctx = SlotContext::new(state.topology.rack_count(), state.agents.len());
    let mut stages = pipeline::build(config);
    for t in 0..SLOTS {
        ctx.begin(Slot::new(t), t as usize);
        for i in 0..stages.len() {
            stages[i].run(&mut state, &mut ctx);
            after(stages[i].name(), &state, &ctx, &stages);
        }
    }
    state.into_report()
}

/// The meter as `Settle` leaves it, slot by slot, and the warm-up
/// meter `SimState::new` leaves before slot 0.
fn meters_after_settle(config: &EngineConfig) -> (PowerMeter, Vec<PowerMeter>) {
    let warm = SimState::new(&scenario(), config, 0).meter;
    let mut settled = Vec::new();
    drive(config, |stage, state, _, _| {
        if stage == "stage.settle" {
            settled.push(state.meter.clone());
        }
    });
    (warm, settled)
}

fn assert_same_meter(got: &PowerMeter, want: &PowerMeter, what: &str) {
    for i in 0..want.rack_count() {
        let rack = RackId::new(i);
        assert_eq!(got.latest(rack), want.latest(rack), "{what}, rack {i}");
        assert_eq!(got.history(rack), want.history(rack), "{what}, rack {i}");
    }
}

fn delayed(staleness: Option<StalenessPolicy>) -> EngineConfig {
    EngineConfig {
        operator: OperatorConfig {
            staleness,
            ..OperatorConfig::default()
        },
        ..armed(FaultConfig {
            prediction_delay: 0.5,
            ..FaultConfig::disabled()
        })
    }
}

/// A delayed prediction reads the older meter: on a delayed slot
/// `t ≥ 2`, `Predict`'s meter is the live one as it stood after
/// `Settle(t − 2)`; on slot 1 it is the warm-up, and on slot 0 the live
/// meter. And the delay reaches the records.
#[test]
fn a_delayed_prediction_reads_the_meter_a_slot_late() {
    let config = delayed(None);
    let (warm, settled) = meters_after_settle(&config);
    let mut delayed_slots = 0;
    let report = drive(&config, |stage, state, ctx, _| {
        if stage != "stage.predict" {
            return;
        }
        let seen = state.market_meter(ctx.delayed);
        let t = ctx.t;
        match (ctx.delayed, t) {
            (false, _) | (true, 0) => assert_same_meter(seen, &state.meter, "live"),
            (true, 1) => assert_same_meter(seen, &warm, "slot 1 reads the warm-up"),
            (true, _) => {
                delayed_slots += 1;
                assert_same_meter(seen, &settled[t - 2], &format!("slot {t}"));
            }
        }
    });
    assert!(delayed_slots > 10, "{delayed_slots} delayed slots");
    let disarmed = Simulation::new(scenario(), EngineConfig::new(Mode::SpotDc)).run(SLOTS);
    let moved = report
        .records
        .iter()
        .zip(&disarmed.records)
        .filter(|(a, b)| a != b)
        .count();
    assert!(moved > 0, "the delay moved no record");
}

/// Under `StalenessPolicy::paper_default()` a delayed slot's newest
/// readings are one slot old: `last_known_good(rack, t − 1)` ages them
/// by 1 and the slot counts as degraded. Slot 1's view is the warm-up,
/// tagged slot 0, so it is fresh; nothing else is armed, so no other
/// slot is degraded.
#[test]
fn a_delayed_slot_reads_one_slot_stale_and_degrades() {
    let config = delayed(Some(StalenessPolicy::paper_default()));
    let mut stale_slots = 0;
    drive(&config, |stage, state, ctx, _| {
        if stage != "stage.predict" {
            return;
        }
        let lagging = ctx.delayed && ctx.t >= 2;
        let asof = Slot::new(ctx.slot.index().saturating_sub(1));
        let meter = state.market_meter(ctx.delayed);
        for i in 0..meter.rack_count() {
            let (_, age) = meter
                .last_known_good(RackId::new(i), asof)
                .expect("every rack is read");
            assert_eq!(age, u64::from(lagging), "slot {}, rack {i}", ctx.t);
        }
        assert_eq!(ctx.slot_degraded, lagging, "slot {}", ctx.t);
        stale_slots += usize::from(lagging);
    });
    assert!(stale_slots > 10, "{stale_slots} stale slots");
}

/// Runs `faults` and calls `check(slot, rack, fault, before, state)`
/// for every meter fault its plan fires, once `Settle` has recorded the
/// slot, `before` being the rack's newest reading as `Sense` left it (no
/// stage between them records); returns how many fired.
fn each_meter_fault(
    faults: FaultConfig,
    mut check: impl FnMut(Slot, RackId, MeterFault, Option<MeterReading>, &SimState),
) -> usize {
    let config = armed(faults);
    let plan = FaultPlan::new(config.faults);
    let mut before = Vec::new();
    let mut fired = 0;
    drive(&config, |stage, state, ctx, _| match stage {
        "stage.sense" => {
            before = (0..state.meter.rack_count())
                .map(|i| state.meter.latest(RackId::new(i)))
                .collect();
        }
        "stage.settle" => {
            for (i, &prior) in before.iter().enumerate() {
                let rack = RackId::new(i);
                if let Some(fault) = plan.meter_fault(ctx.slot, rack) {
                    fired += 1;
                    check(ctx.slot, rack, fault, prior, state);
                }
            }
        }
        _ => {}
    });
    fired
}

/// A dropout ages the reading: the meter keeps the one before, and its
/// staleness as of the slot grows.
#[test]
fn a_meter_dropout_ages_the_reading() {
    let fired = each_meter_fault(
        FaultConfig {
            meter_dropout: 0.1,
            ..FaultConfig::disabled()
        },
        |slot, rack, fault, prior, state| {
            assert_eq!(fault, MeterFault::Dropout);
            assert_eq!(state.meter.latest(rack), prior, "{slot:?} {rack:?}");
            // The warm-up before slot 0 shares slot 0's tag, so only a
            // later dropout shows as age.
            let (_, age) = state.meter.last_known_good(rack, slot).unwrap();
            assert_eq!(age >= 1, slot > Slot::ZERO, "{slot:?} {rack:?}: age {age}");
        },
    );
    assert!(fired > 100, "{fired} dropouts");
}

/// A freeze repeats the reading: the slot is recorded, at the value
/// the meter held before it, whatever the rack drew.
#[test]
fn a_meter_freeze_repeats_the_reading() {
    let mut moved = 0;
    let fired = each_meter_fault(
        FaultConfig {
            meter_freeze: 0.1,
            ..FaultConfig::disabled()
        },
        |slot, rack, fault, prior, state| {
            assert_eq!(fault, MeterFault::Freeze);
            let latest = state.meter.latest(rack).unwrap();
            assert_eq!(latest.slot, slot);
            assert_eq!(latest.power, prior.unwrap().power, "{slot:?} {rack:?}");
            moved += usize::from(state.true_draw[rack.index()] != latest.power);
        },
    );
    assert!(fired > 100, "{fired} freezes");
    assert!(moved > 0, "no frozen rack drew anything else");
}

/// Noise scales the reading: the slot is recorded at the physical draw
/// times `1 + relative`.
#[test]
fn meter_noise_scales_the_reading() {
    let fired = each_meter_fault(
        FaultConfig {
            meter_noise: 0.1,
            noise_magnitude: 0.4,
            ..FaultConfig::disabled()
        },
        |slot, rack, fault, _, state| {
            let MeterFault::Noise { relative } = fault else {
                panic!("{fault:?}");
            };
            let latest = state.meter.latest(rack).unwrap();
            assert_eq!(latest.slot, slot);
            let scaled = state.true_draw[rack.index()] * (1.0 + relative);
            assert_eq!(
                latest.power,
                scaled.clamp_non_negative(),
                "{slot:?} {rack:?}"
            );
        },
    );
    assert!(fired > 100, "{fired} noise spikes");
}

/// The racks of `tenant`.
fn racks_of(state: &SimState, tenant: TenantId) -> Vec<RackId> {
    state
        .topology
        .racks()
        .filter(|r| r.tenant() == tenant)
        .map(|r| r.id())
        .collect()
}

/// A lost bid is not cleared: its tenant's bid never reaches admission
/// and its racks end the clear with no grant.
#[test]
fn a_lost_bid_is_not_cleared() {
    let config = armed(FaultConfig {
        bid_loss: 0.2,
        ..FaultConfig::disabled()
    });
    let plan = FaultPlan::new(config.faults);
    let report = drive(&config, |stage, state, ctx, _| {
        let lost = |tenant: TenantId| plan.bid_fault(ctx.slot, tenant) == Some(BidFault::Lost);
        match stage {
            "stage.collect_bids" => {
                assert!(!ctx.bids.iter().any(|b| lost(b.tenant())));
            }
            "stage.clear_market" => {
                let tenants = state.topology.tenants().filter(|&t| lost(t));
                for rack in tenants.flat_map(|t| racks_of(state, t)) {
                    assert!(!ctx.rack_bids.iter().any(|b| b.rack() == rack));
                    assert_eq!(state.bank.spot_grant(rack), Watts::ZERO);
                }
            }
            _ => {}
        }
    });
    assert!(
        report.faults_injected > 100,
        "{} lost",
        report.faults_injected
    );
}

/// A late bid clears one slot later: it is missing from its own slot's
/// delivered bids and arrives in the next one's, unless the tenant bid
/// afresh there (which supersedes it) or lost that bid too.
#[test]
fn a_late_bid_clears_one_slot_later() {
    let config = armed(FaultConfig {
        bid_delay: 0.2,
        ..FaultConfig::disabled()
    });
    let plan = FaultPlan::new(config.faults);
    let mut pending: Vec<spotdc_core::TenantBid> = Vec::new();
    let (mut late, mut arrived) = (0, 0);
    drive(&config, |stage, _, ctx, stages| {
        if stage != "stage.collect_bids" {
            return;
        }
        for bid in pending.drain(..) {
            let tenant = bid.tenant();
            if plan.bid_fault(ctx.slot, tenant).is_some() {
                continue;
            }
            let fresh = ctx.bids.iter().find(|b| b.tenant() == tenant);
            assert!(
                fresh.is_some(),
                "{:?}: tenant {tenant:?} lost its late bid",
                ctx.slot
            );
            if fresh == Some(&bid) {
                arrived += 1;
                assert!(ctx.rack_bids.iter().any(|r| bid.rack_bids().contains(r)));
            }
        }
        let Some(Stage::CollectBids { late_bids, .. }) = stages
            .iter()
            .find(|s| matches!(s, Stage::CollectBids { .. }))
        else {
            panic!("SpotDc collects bids");
        };
        for bid in late_bids {
            assert!(!ctx.bids.iter().any(|b| b.tenant() == bid.tenant()));
        }
        late += late_bids.len();
        pending.clone_from(late_bids);
    });
    assert!(late > 100 && arrived > 0, "{late} late, {arrived} arrived");
}

/// A lost broadcast revokes the grant: a bidding tenant the price does
/// not reach holds no spot and owes nothing.
#[test]
fn a_lost_broadcast_revokes_the_grant() {
    let config = armed(FaultConfig {
        broadcast_loss: 0.2,
        ..FaultConfig::disabled()
    });
    let plan = FaultPlan::new(config.faults);
    let mut revoked = 0;
    drive(&config, |stage, state, ctx, _| {
        if stage != "stage.clear_market" {
            return;
        }
        for bid in &ctx.bids {
            if plan.broadcast_lost(ctx.slot, bid.tenant()) {
                revoked += 1;
                for rack in racks_of(state, bid.tenant()) {
                    assert_eq!(state.bank.spot_grant(rack), Watts::ZERO);
                    assert_eq!(ctx.payments[rack.index()], 0.0);
                }
            }
        }
    });
    assert!(revoked > 100, "{revoked} broadcasts lost");
}
