//! The five workloads: sizes, engine configurations, set-up, one
//! timed repetition, and the recorded-book replay.
//!
//! Every input derives from `--seed` through the `Scenario`
//! constructors; nothing here reads a clock to decide *what* to run,
//! so a seed always yields the same market and the same simulated
//! metrics.

use std::path::Path;
use std::time::Instant;

use spotdc_core::{ClearingConfig, MarketClearing, MarketOutcome, OperatorConfig, StalenessPolicy};
use spotdc_dist::TransportKind;
use spotdc_faults::FaultConfig;
use spotdc_power::CapConfig;
use spotdc_sim::engine::{DurabilityConfig, EngineConfig, Simulation};
use spotdc_sim::{Mode, Scenario, SimReport};
use spotdc_telemetry::{SinkKind, TelemetryConfig};
use spotdc_units::Slot;

use crate::schema::Workload;
use crate::slotloop::{self, Capture};
use crate::spans::{Recorder, SpanId};

/// `armed-3k`: a checkpoint every N slots…
pub const ARMED_CHECKPOINT_EVERY: u64 = 5;
/// …and a simulated crash after this many, so recovery loads the
/// slot-10 snapshot and replays two journaled slots.
pub const ARMED_STOP_AFTER: u64 = 12;

/// How big one workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    /// Hyperscale participants; 0 selects the Table I testbed.
    pub tenants: usize,
    /// Slots per `Simulation::run` call in one repetition (per mode on
    /// `testbed-modes`); recorded books on `clear-replay`.
    pub rep_slots: u64,
    /// Priming slots inside set-up (warm, unrecorded slots on
    /// `clear-replay`).
    pub prime_slots: u64,
    /// How many times set-up is repeated for the `setup_s` median.
    /// `clear-replay`'s eight-second recording runs once.
    pub setups: usize,
    /// Horizon of the cross-checks (validate pass, serial reference).
    pub check_slots: u64,
    /// Trailing slots of a traced repetition whose post-`Predict`
    /// inputs are kept for the direct-call layer rows.
    pub capture_slots: u64,
}

impl Plan {
    /// The measured size, or the `--smoke` size (a tenth of the
    /// tenants, a twentieth of the long horizons) that runs the same
    /// code paths in seconds.
    #[must_use]
    pub fn of(workload: Workload, smoke: bool) -> Plan {
        let full = match workload {
            Workload::TestbedModes => Plan {
                tenants: 0,
                rep_slots: 8000,
                prime_slots: 4000,
                setups: 3,
                check_slots: 1000,
                capture_slots: 200,
            },
            Workload::Armed3k => Plan {
                tenants: 3000,
                rep_slots: 20,
                prime_slots: 8,
                setups: 3,
                check_slots: 20,
                capture_slots: 6,
            },
            Workload::PerPdu15k | Workload::Sharded15k => Plan {
                tenants: 15_000,
                rep_slots: 8,
                prime_slots: 2,
                setups: 3,
                check_slots: 2,
                capture_slots: 2,
            },
            Workload::ClearReplay => Plan {
                tenants: 15_000,
                rep_slots: 8,
                prime_slots: 2,
                setups: 1,
                check_slots: 0,
                capture_slots: 8,
            },
        };
        if !smoke {
            return full;
        }
        let shrink = |slots: u64| if slots > 100 { slots / 20 } else { slots };
        Plan {
            tenants: full.tenants / 10,
            rep_slots: shrink(full.rep_slots),
            prime_slots: shrink(full.prime_slots),
            setups: 1,
            check_slots: shrink(full.check_slots),
            capture_slots: shrink(full.capture_slots),
        }
    }
}

/// Builds the workload's scenario from the seed.
#[must_use]
pub fn scenario(seed: u64, plan: &Plan) -> Scenario {
    if plan.tenants == 0 {
        Scenario::testbed(seed)
    } else {
        Scenario::hyperscale(seed, plan.tenants)
    }
}

/// The telemetry posture of `armed-3k`: enabled, events to the
/// `FileSink` the binary installed up front.
#[must_use]
pub fn armed_telemetry() -> TelemetryConfig {
    TelemetryConfig {
        enabled: true,
        sink: SinkKind::File,
        sample_every: 1,
    }
}

fn plain(mode: Mode) -> EngineConfig {
    EngineConfig {
        // Pinned, not `cfg!(debug_assertions)`: a debug test build must
        // run the same stages as the measured release build.
        validate: false,
        ..EngineConfig::new(mode)
    }
}

/// The engine configurations one repetition runs back to back.
/// `armed-3k`'s durability settings are filled in per call by
/// [`repetition`].
#[must_use]
pub fn configs(workload: Workload, seed: u64) -> Vec<EngineConfig> {
    match workload {
        Workload::TestbedModes => vec![
            plain(Mode::SpotDc),
            plain(Mode::PowerCapped),
            plain(Mode::MaxPerf),
        ],
        Workload::Armed3k => vec![EngineConfig {
            faults: FaultConfig::uniform(0.01, seed ^ 0xfa),
            cap: CapConfig::paper_default(),
            operator: OperatorConfig {
                staleness: Some(StalenessPolicy::paper_default()),
                telemetry: armed_telemetry(),
                ..OperatorConfig::default()
            },
            validate: true,
            telemetry: armed_telemetry(),
            ..EngineConfig::new(Mode::SpotDc)
        }],
        Workload::PerPdu15k => vec![EngineConfig {
            per_pdu_pricing: true,
            ..plain(Mode::SpotDc)
        }],
        Workload::Sharded15k => vec![EngineConfig {
            per_pdu_pricing: true,
            shards: 2,
            shard_transport: TransportKind::InProc,
            ..plain(Mode::SpotDc)
        }],
        // The pipeline that records the books: the paper's uniform
        // market, nothing armed.
        Workload::ClearReplay => vec![plain(Mode::SpotDc)],
    }
}

/// A pipeline workload ready to be timed.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// The scenario (its trace cache already holds the timed horizon).
    pub scenario: Scenario,
    /// The configurations one repetition runs.
    pub configs: Vec<EngineConfig>,
}

/// Set-up of a pipeline workload: scenario construction, trace
/// generation for the timed horizon, and a short priming run through
/// the product entry point so first-touch costs (allocator growth,
/// page faults, lazy statics) land here rather than in the first timed
/// repetition. Telemetry stays off throughout.
#[must_use]
pub fn setup(workload: Workload, seed: u64, plan: &Plan) -> Prepared {
    let scenario = scenario(seed, plan);
    let _ = scenario.traces(plan.rep_slots as usize);
    let configs = configs(workload, seed);
    let primers = match workload {
        // "Plain" priming: the armed posture needs the scratch dir and
        // the sink, which belong to the timed region.
        Workload::Armed3k => vec![plain(Mode::SpotDc)],
        _ => configs.clone(),
    };
    for config in primers {
        let report = Simulation::new(scenario.clone(), config).run(plan.prime_slots);
        std::hint::black_box(report.avg_spot_sold());
    }
    Prepared { scenario, configs }
}

/// What one timed repetition produced.
#[derive(Debug)]
pub struct Repetition {
    /// Wall seconds of the product calls.
    pub secs: f64,
    /// One report per configuration, in order.
    pub reports: Vec<SimReport>,
    /// `armed-3k`: seconds of the resuming call and the journaled slots
    /// it replayed.
    pub resume: Option<(f64, u64)>,
}

impl Repetition {
    /// Market slots completed.
    #[must_use]
    pub fn slots(&self) -> u64 {
        self.reports.iter().map(|r| r.records.len() as u64).sum()
    }
}

/// One repetition: every configuration through `Simulation::run`, cold
/// engine included. On `armed-3k` it is `run_durable` interrupted after
/// [`ARMED_STOP_AFTER`] slots and a resuming `run_durable` to the
/// horizon, so journal writes and recovery reads are both inside.
///
/// # Errors
///
/// Returns the durable layer's error text.
pub fn repetition(
    workload: Workload,
    prepared: &Prepared,
    plan: &Plan,
    scratch: &Path,
) -> Result<Repetition, String> {
    if workload == Workload::Armed3k {
        return armed_repetition(prepared, plan, scratch, true);
    }
    let started = Instant::now();
    let reports: Vec<SimReport> = prepared
        .configs
        .iter()
        .map(|config| {
            Simulation::new(prepared.scenario.clone(), config.clone()).run(plan.rep_slots)
        })
        .collect();
    Ok(Repetition {
        secs: started.elapsed().as_secs_f64(),
        reports,
        resume: None,
    })
}

/// `armed-3k`'s durable run, interrupted and resumed (`interrupt`) or
/// straight through.
///
/// # Errors
///
/// Returns the durable layer's error text.
pub fn armed_repetition(
    prepared: &Prepared,
    plan: &Plan,
    scratch: &Path,
    interrupt: bool,
) -> Result<Repetition, String> {
    let durable = |resume: bool, stop_after: Option<u64>| EngineConfig {
        durability: DurabilityConfig {
            dir: Some(scratch.join("ckpt")),
            checkpoint_every: ARMED_CHECKPOINT_EVERY,
            resume,
            stop_after,
            slot_delay_ms: 0,
        },
        ..prepared.configs[0].clone()
    };
    let run = |config: EngineConfig| {
        Simulation::new(prepared.scenario.clone(), config)
            .run_durable(plan.rep_slots)
            .map_err(|e| format!("run_durable: {e}"))
    };
    let started = Instant::now();
    if !interrupt {
        let outcome = run(durable(false, None))?;
        return Ok(Repetition {
            secs: started.elapsed().as_secs_f64(),
            reports: vec![outcome.report],
            resume: None,
        });
    }
    let stop = ARMED_STOP_AFTER
        .min(plan.rep_slots.saturating_sub(1))
        .max(1);
    let stopped = run(durable(false, Some(stop)))?;
    if stopped.stopped_after != Some(stop) {
        return Err(format!(
            "interrupted run stopped after {:?}, wanted {stop}",
            stopped.stopped_after
        ));
    }
    let resume_started = Instant::now();
    let resumed = run(durable(true, None))?;
    let resume_secs = resume_started.elapsed().as_secs_f64();
    let secs = started.elapsed().as_secs_f64();
    let recovery = resumed
        .recovery
        .ok_or_else(|| "resumed run reported no recovery".to_owned())?;
    Ok(Repetition {
        secs,
        reports: vec![resumed.report],
        resume: Some((resume_secs, recovery.replayed_slots)),
    })
}

/// The order recorded books are replayed in: up 0…n-1, back down
/// n-2…1, so every transition — the wrap included — is a real
/// adjacent-slot diff.
#[must_use]
pub fn ping_pong_order(books: usize) -> Vec<usize> {
    let up = 0..books;
    let down = (1..books.saturating_sub(1)).rev();
    up.chain(down).collect()
}

/// `clear-replay`'s inputs: consecutive-slot bid books recorded off the
/// real pipeline, and the warm engine they are replayed through.
#[derive(Debug)]
pub struct Replay {
    /// The recorded books, in slot order.
    pub books: Vec<Capture>,
    /// The operator's clearing configuration.
    pub clearing: ClearingConfig,
    /// The single warm engine every timed clear goes through.
    pub engine: MarketClearing,
    /// Replay order ([`ping_pong_order`]).
    pub order: Vec<usize>,
    /// The scenario the books came from (layer rows reuse it).
    pub scenario: Scenario,
}

/// Set-up of `clear-replay`: drives the uniform pipeline for
/// `prime_slots` warm plus `rep_slots` recorded slots through the traced
/// loop (spans land in `rec`), keeps each recorded slot's post-`Predict`
/// bids and constraints, and warms the engine with one clear.
///
/// # Errors
///
/// Never in practice (the recording loop has no durable steps); the
/// signature carries the loop's I/O error type.
pub fn replay_setup(seed: u64, plan: &Plan, rec: &mut Recorder) -> std::io::Result<Replay> {
    let scenario = scenario(seed, plan);
    let config = configs(Workload::ClearReplay, seed).remove(0);
    let out = slotloop::run(
        &scenario,
        &config,
        plan.prime_slots + plan.rep_slots,
        rec,
        Some(plan.prime_slots),
        None,
    )?;
    let clearing = config.operator.clearing;
    let engine = MarketClearing::new(clearing);
    let order = ping_pong_order(out.captures.len());
    // Warm on the book the cycle ends with, so even the very first
    // timed clear is a real adjacent-slot transition, not a repeat.
    let warm = &out.captures[*order.last().expect("at least one book was recorded")];
    std::hint::black_box(engine.clear(warm.slot, &warm.rack_bids, &warm.constraints));
    Ok(Replay {
        order,
        books: out.captures,
        clearing,
        engine,
        scenario,
    })
}

impl Replay {
    /// One pass over [`Replay::order`] through the warm engine. `op`
    /// numbers the clears (it is the `Slot` each clear is stamped
    /// with); `each` sees every outcome with its book index. With
    /// `trace` set, each clear is recorded as a `core.clearing.clear`
    /// span under the given parent.
    pub fn cycle(
        &self,
        op: &mut u64,
        mut trace: Option<(&mut Recorder, SpanId)>,
        mut each: impl FnMut(usize, Slot, MarketOutcome),
    ) {
        for &book in &self.order {
            let capture = &self.books[book];
            let slot = Slot::new(*op);
            let span = trace
                .as_mut()
                .map(|(rec, parent)| rec.open(SPAN_CLEAR, Some(*parent), *op));
            let outcome = self
                .engine
                .clear(slot, &capture.rack_bids, &capture.constraints);
            if let (Some((rec, _)), Some(span)) = (trace.as_mut(), span) {
                rec.close(span);
            }
            *op += 1;
            each(book, slot, outcome);
        }
    }
}

/// Span name of one replayed `MarketClearing::clear`.
pub const SPAN_CLEAR: &str = "core.clearing.clear";
/// Span name of one pass over the replay order.
pub const SPAN_CYCLE: &str = "replay.cycle";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ping_pong_visits_every_adjacent_pair_in_both_directions() {
        assert_eq!(
            ping_pong_order(8),
            [0, 1, 2, 3, 4, 5, 6, 7, 6, 5, 4, 3, 2, 1]
        );
        assert_eq!(ping_pong_order(3), [0, 1, 2, 1]);
        assert_eq!(ping_pong_order(2), [0, 1]);
        assert_eq!(ping_pong_order(1), [0]);
        assert!(ping_pong_order(0).is_empty());
        // Cyclically, consecutive entries always differ by exactly one
        // slot: no transition skips a recorded book.
        let order = ping_pong_order(8);
        for (i, &a) in order.iter().enumerate() {
            let b = order[(i + 1) % order.len()];
            assert_eq!(a.abs_diff(b), 1, "{a} -> {b}");
        }
    }

    #[test]
    fn smoke_plans_shrink_tenants_and_long_horizons_only() {
        let full = Plan::of(Workload::TestbedModes, false);
        let smoke = Plan::of(Workload::TestbedModes, true);
        assert_eq!((full.rep_slots, smoke.rep_slots), (8000, 400));
        let big = Plan::of(Workload::PerPdu15k, true);
        assert_eq!((big.tenants, big.rep_slots), (1500, 8));
        assert_eq!(Plan::of(Workload::Armed3k, true).tenants, 300);
    }

    #[test]
    fn armed_posture_arms_every_layer_the_workload_claims() {
        let armed = configs(Workload::Armed3k, 42).remove(0);
        assert!(armed.faults.any() && armed.cap.enabled && armed.validate);
        assert!(armed.telemetry.enabled && armed.operator.staleness.is_some());
        assert_eq!(armed.faults.seed, 42 ^ 0xfa);
        armed.validate().expect("armed config is valid");
        for w in Workload::ALL {
            for c in configs(w, 7) {
                c.validate().expect("workload config is valid");
                assert_eq!(c.inner_jobs, 1, "no workload measures the scheduler");
            }
        }
    }
}
