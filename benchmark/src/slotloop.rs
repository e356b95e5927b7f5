//! The traced slot loop: `Simulation::run` / `run_durable`'s main loop
//! re-implemented over the public seam (`pipeline::build`,
//! `SimState::new`, `SlotContext::{new, begin}`, `SlotStage::run`) so a
//! span can be recorded around every stage without editing the crates.
//!
//! Every traced run's report digest is checked against the product
//! entry point's, so this loop cannot silently drift from
//! `run_one_slot`.

use std::collections::BTreeMap;
use std::path::Path;

use spotdc_core::{ClearingCacheStats, ConcaveGain, ConstraintSet, RackBid, TenantBid};
use spotdc_durable::WalWriter;
use spotdc_power::PowerMeter;
use spotdc_sim::durability::{encode_wal_record, EngineSnapshot};
use spotdc_sim::engine::EngineConfig;
use spotdc_sim::pipeline::{self, SimState, SlotContext};
use spotdc_sim::{Scenario, SimReport};
use spotdc_units::{MonotonicNanos, RackId, Slot};

use crate::spans::Recorder;

/// One slot's market inputs as they stood right after `Predict` — what
/// the direct-call layer rows replay.
#[derive(Debug, Clone)]
pub struct Capture {
    /// The slot captured.
    pub slot: Slot,
    /// Tenant bids as delivered (what admission and the journal see).
    pub bids: Vec<TenantBid>,
    /// Flattened rack bids handed to clearing.
    pub rack_bids: Vec<RackBid>,
    /// The requesting set the predictor saw.
    pub requesting: Vec<RackId>,
    /// The constraint set clearing runs against.
    pub constraints: ConstraintSet,
    /// The meter the market saw this slot.
    pub meter: PowerMeter,
    /// MaxPerf gain envelopes (empty in market modes).
    pub gains: BTreeMap<RackId, ConcaveGain>,
}

/// The journal + checkpoint steps `run_durable` performs after each
/// slot, recorded as their own spans.
#[derive(Debug)]
pub struct DurableSteps<'a> {
    /// Checkpoint / journal directory.
    pub dir: &'a Path,
    /// Cut a checkpoint after every N slots.
    pub checkpoint_every: u64,
}

/// Byte and record counts of the durable steps of one loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurableTally {
    /// Journal payload bytes appended.
    pub wal_bytes: u64,
    /// Journal records appended.
    pub wal_records: u64,
    /// Checkpoints cut.
    pub checkpoints: u64,
    /// Bytes of the last checkpoint file.
    pub checkpoint_bytes: u64,
}

/// What one traced loop produced besides its spans.
#[derive(Debug)]
pub struct LoopOutput {
    /// The report, as `Simulation::run` would have returned it.
    pub report: SimReport,
    /// Inputs captured after `Predict`, for the slots asked for.
    pub captures: Vec<Capture>,
    /// The operator engine's sweep-mode tallies (uniform market).
    pub operator_cache: ClearingCacheStats,
    /// Per-shard warm-engine tallies (sharded runs).
    pub shard_cache: Vec<ClearingCacheStats>,
    /// Durable-step tallies (zero without [`DurableSteps`]).
    pub durable: DurableTally,
}

/// Span names of the loop. Stage spans keep the stage's own
/// `stage.*` telemetry name.
pub const SPAN_STATE_NEW: &str = "sim.state_new";
/// One market slot (parent of its stage spans).
pub const SPAN_SLOT: &str = "slot";
/// Input capture — benchmark work, excluded from slot time.
pub const SPAN_CAPTURE: &str = "bench.capture";
/// `encode_wal_record`.
pub const SPAN_WAL_ENCODE: &str = "durable.wal_encode";
/// `WalWriter::append`.
pub const SPAN_WAL_APPEND: &str = "durable.wal_append";
/// Snapshot capture + encode + `write_checkpoint` + journal restart.
pub const SPAN_CHECKPOINT: &str = "durable.checkpoint_write";

/// Runs `slots` slots of `config` on `scenario`, recording a span per
/// slot and per stage into `rec`, and capturing market inputs for every
/// slot index at or after `capture_from`.
///
/// # Errors
///
/// Returns the I/O error of a durable step.
pub fn run(
    scenario: &Scenario,
    config: &EngineConfig,
    slots: u64,
    rec: &mut Recorder,
    capture_from: Option<u64>,
    durable: Option<&DurableSteps<'_>>,
) -> std::io::Result<LoopOutput> {
    let new_span = rec.open(SPAN_STATE_NEW, None, 0);
    let mut state = SimState::new(scenario, config, slots as usize);
    rec.close(new_span);
    let mut ctx = SlotContext::new(state.topology.rack_count(), state.agents.len());
    let mut stages = pipeline::build(config);

    let mut wal = match durable {
        Some(d) => {
            spotdc_durable::clear_dir(d.dir)?;
            Some(WalWriter::create(&d.dir.join("journal.wal"))?)
        }
        None => None,
    };
    let mut tally = DurableTally::default();
    let mut captures = Vec::new();

    for t in 0..slots {
        let slot = Slot::new(t);
        let slot_span = rec.open(SPAN_SLOT, None, t);
        // The product loop's own telemetry (no-ops unless a workload
        // arms it) is kept, so an armed traced slot does the same work
        // and writes the same events as `run_one_slot`.
        let telemetry_slot = spotdc_telemetry::span!("engine.slot", slot = slot);
        ctx.begin(slot, t as usize);
        for stage in &mut stages {
            let stage_span = rec.open(stage.name(), Some(slot_span), t);
            let telemetry_stage = spotdc_telemetry::span!(stage.name());
            let started = spotdc_telemetry::is_enabled().then(std::time::Instant::now);
            stage.run(&mut state, &mut ctx);
            if let Some(started) = started {
                spotdc_telemetry::emit(spotdc_telemetry::Event::SpanClosed {
                    slot,
                    at: MonotonicNanos::now(),
                    span: stage.name().to_owned(),
                    nanos: u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
                });
            }
            drop(telemetry_stage);
            rec.close(stage_span);
            // The clear stage takes the constraint set and a
            // validating clear rewrites `rack_bids`, so inputs are
            // copied right after Predict or not at all.
            if stage.name() == "stage.predict" && capture_from.is_some_and(|from| t >= from) {
                let capture_span = rec.open(SPAN_CAPTURE, Some(slot_span), t);
                captures.push(Capture {
                    slot,
                    bids: ctx.bids.clone(),
                    rack_bids: ctx.rack_bids.clone(),
                    requesting: ctx.requesting.clone(),
                    constraints: ctx
                        .constraints
                        .clone()
                        .expect("Predict leaves a constraint set"),
                    meter: state.market_meter(ctx.delayed).clone(),
                    gains: ctx.gains.clone(),
                });
                rec.close(capture_span);
            }
        }
        drop(telemetry_slot);
        rec.close(slot_span);

        if let (Some(d), Some(journal)) = (durable, wal.as_mut()) {
            let encode_span = rec.open(SPAN_WAL_ENCODE, None, t);
            let record = encode_wal_record(&ctx);
            rec.close(encode_span);
            let append_span = rec.open(SPAN_WAL_APPEND, None, t);
            journal.append(&record)?;
            rec.close(append_span);
            tally.wal_bytes += record.len() as u64;
            tally.wal_records += 1;
            if (t + 1) % d.checkpoint_every == 0 {
                let ckpt_span = rec.open(SPAN_CHECKPOINT, None, t);
                let snap =
                    EngineSnapshot::capture(&state, &stages, config.mode, scenario.seed, t + 1);
                tally.checkpoint_bytes =
                    spotdc_durable::write_checkpoint(d.dir, t + 1, &snap.encode())?;
                *journal = WalWriter::create(&d.dir.join("journal.wal"))?;
                rec.close(ckpt_span);
                tally.checkpoints += 1;
            }
        }
    }
    if let Some(journal) = wal.as_mut() {
        journal.sync()?;
    }

    let operator_cache = state.operator.clearing_cache_stats();
    let shard_cache = state
        .dist
        .as_ref()
        .map(spotdc_dist::ShardRuntime::shard_cache_stats)
        .unwrap_or_default();
    Ok(LoopOutput {
        report: state.into_report(),
        captures,
        operator_cache,
        shard_cache,
        durable: tally,
    })
}
