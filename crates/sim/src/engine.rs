//! The time-slotted simulation driver.
//!
//! [`Simulation::run`] owns the clock: each slot it steps the stages
//! [`crate::pipeline::build`] tabled for its configuration, mirroring
//! Algorithm 1 and Fig. 6 of the paper:
//!
//! 1. **Sense** — tenants observe their load traces, rack PDUs reset;
//! 2. **CollectBids** (SpotDC) / **CollectGains** (MaxPerf) — bids
//!    arrive (or are lost, or roll over late) and pass operator
//!    admission, or gain envelopes are gathered;
//! 3. **Predict** — spot capacity is forecast from *last* slot's meter
//!    readings (Eqns. 1–4), under the staleness policy if armed;
//! 4. **Clear** — uniform-price clearing, localized per-PDU prices, or
//!    MaxPerf's omniscient water-filling; lost broadcasts revoke the
//!    affected grants;
//! 5. **Enforce** — the cap controller sheds spot before guaranteed
//!    capacity when overloads were observed;
//! 6. **Settle** — tenants run under their budgets, the meter records
//!    every rack's draw, emergencies and accounting settle, the slot
//!    record is emitted.
//!
//! The pipeline distinguishes **physical** power (what racks actually
//! draw, which feeds the emergency log and the per-slot records) from
//! **observed** power (what the meter reports, which feeds prediction
//! and clearing). With fault injection off the two are identical, down
//! to the float-accumulation order; a [`FaultConfig`] lets them
//! diverge — dropped, frozen or noisy meter samples, lost or late
//! bids, lost price broadcasts, delayed prediction inputs — so the
//! degradation paths
//! ([`StalenessPolicy`] margins, [`CapController`] shedding, the
//! post-clearing invariant checker) can be exercised deterministically.
//!
//! [`StalenessPolicy`]: spotdc_core::StalenessPolicy
//! [`CapController`]: spotdc_power::CapController

use std::path::{Path, PathBuf};

use spotdc_durable::{Tail, WalWriter};
use spotdc_faults::FaultConfig;
use spotdc_power::CapConfig;
use spotdc_units::{MonotonicNanos, Slot};

use crate::baselines::Mode;
use crate::durability::EngineSnapshot;
use crate::metrics::SimReport;
use crate::pipeline::{self, SimState, SlotContext, SlotStage};
use crate::scenario::Scenario;
use spotdc_core::OperatorConfig;

/// Crash-safety settings: where checkpoints and the write-ahead
/// journal live, and how often checkpoints are cut.
#[derive(Debug, Clone, PartialEq)]
pub struct DurabilityConfig {
    /// Directory for checkpoint files and the journal. `None` (the
    /// default) disables durability: [`Simulation::run_durable`] is
    /// then [`Simulation::run`].
    pub dir: Option<PathBuf>,
    /// Cut a checkpoint after every N completed slots. Must be
    /// positive when `dir` is set.
    pub checkpoint_every: u64,
    /// Recover from the durable state in `dir` instead of clearing it
    /// and starting cold.
    pub resume: bool,
    /// Test hook: return after this many slots as if the process had
    /// been killed there, leaving the durable state exactly as a real
    /// crash at that boundary would. `None` runs the full horizon.
    pub stop_after: Option<u64>,
    /// Chaos-harness hook: sleep this long after each simulated slot so
    /// an external killer can land a SIGKILL at a chosen slot. Zero
    /// (the default) never sleeps. Replayed slots never sleep — a
    /// recovery should be fast no matter how slow the original run was.
    pub slot_delay_ms: u64,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            dir: None,
            checkpoint_every: 50,
            resume: false,
            stop_after: None,
            slot_delay_ms: 0,
        }
    }
}

/// Configuration for one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Operating mode (PowerCapped / SpotDC / MaxPerf).
    pub mode: Mode,
    /// Operator-side market configuration.
    pub operator: OperatorConfig,
    /// Fig. 16: run a pre-clearing pass and feed the resulting price to
    /// price-predicting strategies ("perfect knowledge of market
    /// price").
    pub price_oracle: bool,
    /// Ablation: clear each PDU independently at its own localized
    /// price instead of the paper's single uniform price.
    pub per_pdu_pricing: bool,
    /// Telemetry settings. Installed process-wide at the start of
    /// [`Simulation::run`] when `telemetry.enabled` is set *and* no
    /// earlier install happened, so the disabled default never clobbers
    /// a sink installed elsewhere (e.g. by a test or the repro binary)
    /// and concurrent simulations never race on the global sink.
    pub telemetry: spotdc_telemetry::TelemetryConfig,
    /// Fault-injection schedule, message loss in both directions
    /// included. Disabled by default; the stages consult it either way,
    /// and a disabled plan answers every query "no fault" without
    /// hashing, so there is one code path with or without faults.
    pub faults: FaultConfig,
    /// Graceful-degradation cap controller (spot-before-guaranteed
    /// shedding with hysteresis). Disabled by default.
    pub cap: CapConfig,
    /// Run the post-clearing invariant checker (Eqns. 1–4) every slot.
    /// Defaults to on in debug builds; in release it can be forced at
    /// runtime via [`crate::validate::set_forced`] (the repro binary's
    /// `--validate` flag).
    pub validate: bool,
    /// Width of the [`spotdc_par::ThreadPool`] the *within-slot*
    /// data-parallel sections (bid/gain collection, per-PDU sub-market
    /// clearing, tenant settlement) map through: inline at `1` (the
    /// default), merged in order at any width, so reports stay
    /// byte-identical. Orthogonal to the *across-run* `--jobs` fan-out
    /// in the experiment layer.
    pub inner_jobs: usize,
    /// Shard agents for the distributed clearing plane. `1` (the
    /// default) keeps clearing on the serial path; higher values start
    /// a [`spotdc_dist::ShardRuntime`] in a market mode and route every
    /// market clear stage's tasks through that many agent threads over
    /// framed pipes, with a serial in-order merge at the controller so
    /// reports stay byte-identical at any shard count. PowerCapped and
    /// MaxPerf have no market to distribute and ignore it. Orthogonal
    /// to `inner_jobs` (a sharded run never also fans clearing out on
    /// the inner pool).
    pub shards: usize,
    /// Read by nothing: shard agents always run as threads in this
    /// process. `benchmark/` sets it, which pins the field (and
    /// [`spotdc_dist::TransportKind`]) until ROADMAP 16(c) retires the
    /// sharded workload.
    pub shard_transport: spotdc_dist::TransportKind,
    /// Crash-safety settings (checkpoints + write-ahead journal).
    /// Disabled by default; see [`Simulation::run_durable`].
    pub durability: DurabilityConfig,
}

/// Why an [`EngineConfig`] (or a run request) was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A probability field is NaN, negative, or above one.
    InvalidRate {
        /// Which field was out of range.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A magnitude field is NaN, infinite, or negative.
    InvalidMagnitude {
        /// Which field was out of range.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A market-only setting was enabled in a mode with no market.
    MarketOnlySetting {
        /// Which setting requires a market.
        setting: &'static str,
        /// The marketless mode it was combined with.
        mode: Mode,
    },
    /// A simulation was asked to run for zero slots.
    ZeroHorizon,
    /// `inner_jobs` was zero: the within-slot pool needs a worker.
    ZeroInnerJobs,
    /// `shards` was zero: the distributed clearing width must be at
    /// least one (one means the in-process serial path).
    ZeroShards,
    /// Durability was enabled with a zero checkpoint interval: a run
    /// that never checkpoints journals forever and recovers nothing.
    ZeroCheckpointEvery,
    /// Resume was requested without a checkpoint directory to resume
    /// from.
    ResumeWithoutCheckpointDir,
    /// The checkpoint directory cannot be created or written, detected
    /// up front instead of failing mid-run at the first checkpoint.
    UnwritableCheckpointDir {
        /// The rejected directory.
        dir: PathBuf,
        /// The underlying I/O failure.
        reason: String,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::InvalidRate { field, value } => {
                write!(f, "{field} must be a probability in [0, 1], got {value}")
            }
            ConfigError::InvalidMagnitude { field, value } => {
                write!(f, "{field} must be finite and non-negative, got {value}")
            }
            ConfigError::MarketOnlySetting { setting, mode } => {
                write!(f, "{setting} requires a market mode, but mode is {mode}")
            }
            ConfigError::ZeroHorizon => write!(f, "simulation horizon must be at least one slot"),
            ConfigError::ZeroInnerJobs => {
                write!(f, "inner_jobs must be at least one (1 = serial)")
            }
            ConfigError::ZeroShards => {
                write!(f, "shards must be at least one (1 = in-process)")
            }
            ConfigError::ZeroCheckpointEvery => {
                write!(
                    f,
                    "durability.checkpoint_every must be at least one slot when a checkpoint dir is set"
                )
            }
            ConfigError::ResumeWithoutCheckpointDir => {
                write!(
                    f,
                    "durability.resume requires durability.dir (there is nothing to resume from)"
                )
            }
            ConfigError::UnwritableCheckpointDir { dir, reason } => {
                write!(
                    f,
                    "checkpoint dir {} is not writable: {reason}",
                    dir.display()
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl EngineConfig {
    /// Default configuration for the given mode: paper-default market
    /// settings, no faults, no price oracle.
    #[must_use]
    pub fn new(mode: Mode) -> Self {
        EngineConfig {
            mode,
            operator: OperatorConfig::default(),
            price_oracle: false,
            per_pdu_pricing: false,
            telemetry: spotdc_telemetry::TelemetryConfig::default(),
            faults: FaultConfig::disabled(),
            cap: CapConfig::disabled(),
            validate: cfg!(debug_assertions),
            inner_jobs: 1,
            shards: 1,
            shard_transport: spotdc_dist::TransportKind::InProc,
            durability: DurabilityConfig::default(),
        }
    }

    /// Checks the configuration for values that would silently corrupt
    /// a run: NaN/out-of-range probabilities, negative magnitudes, and
    /// market-only settings combined with a marketless mode.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.inner_jobs == 0 {
            return Err(ConfigError::ZeroInnerJobs);
        }
        if self.shards == 0 {
            return Err(ConfigError::ZeroShards);
        }
        if let Some(dir) = &self.durability.dir {
            if self.durability.checkpoint_every == 0 {
                return Err(ConfigError::ZeroCheckpointEvery);
            }
            if let Err(e) = probe_checkpoint_dir(dir) {
                return Err(ConfigError::UnwritableCheckpointDir {
                    dir: dir.clone(),
                    reason: e.to_string(),
                });
            }
        } else if self.durability.resume {
            return Err(ConfigError::ResumeWithoutCheckpointDir);
        }
        let rates = [
            ("faults.meter_dropout", self.faults.meter_dropout),
            ("faults.meter_freeze", self.faults.meter_freeze),
            ("faults.meter_noise", self.faults.meter_noise),
            ("faults.bid_loss", self.faults.bid_loss),
            ("faults.bid_delay", self.faults.bid_delay),
            ("faults.prediction_delay", self.faults.prediction_delay),
            ("faults.broadcast_loss", self.faults.broadcast_loss),
        ];
        for (field, value) in rates {
            // NaN fails the range check too: all comparisons are false.
            if !(0.0..=1.0).contains(&value) {
                return Err(ConfigError::InvalidRate { field, value });
            }
        }
        let magnitude = self.faults.noise_magnitude;
        if !magnitude.is_finite() || magnitude < 0.0 {
            return Err(ConfigError::InvalidMagnitude {
                field: "faults.noise_magnitude",
                value: magnitude,
            });
        }
        if self.cap.enabled {
            for (field, value) in [
                ("cap.margin", self.cap.margin),
                ("cap.release", self.cap.release),
            ] {
                if !(0.0..1.0).contains(&value) {
                    return Err(ConfigError::InvalidRate { field, value });
                }
            }
        }
        if !self.mode.has_market() {
            let market_only = [
                ("price_oracle", self.price_oracle),
                ("per_pdu_pricing", self.per_pdu_pricing),
            ];
            for (setting, set) in market_only {
                if set {
                    return Err(ConfigError::MarketOnlySetting {
                        setting,
                        mode: self.mode,
                    });
                }
            }
        }
        Ok(())
    }
}

/// Verifies `dir` can be created and written by creating it and
/// round-tripping a probe file.
fn probe_checkpoint_dir(dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let probe = dir.join(".spotdc-probe.tmp");
    std::fs::write(&probe, b"probe")?;
    std::fs::remove_file(&probe)
}

/// How a resumed run rebuilt its state (see
/// [`DurableOutcome::recovery`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// Slots covered by the checkpoint recovery loaded, or `None` when
    /// no valid checkpoint existed and replay started from slot 0.
    pub snapshot_slot: Option<u64>,
    /// Journaled slots deterministically re-simulated to reach the
    /// crash point.
    pub replayed_slots: u64,
    /// Journal-tail damage found (and truncated) during recovery.
    pub truncated: Option<JournalDamage>,
}

/// A damaged journal tail discovered during recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalDamage {
    /// `"torn"` (partial record from the crash — expected) or
    /// `"corrupt"` (CRC mismatch under a complete record — the storage
    /// lied).
    pub reason: &'static str,
    /// Bytes discarded from the journal tail.
    pub dropped_bytes: u64,
}

/// The result of a durable run: the report plus what the durability
/// layer did along the way.
#[derive(Debug)]
pub struct DurableOutcome {
    /// The simulation report. When [`DurableOutcome::stopped_after`] is
    /// set, it covers only the slots simulated before the stop.
    pub report: SimReport,
    /// Present when the run resumed from durable state.
    pub recovery: Option<RecoveryInfo>,
    /// Checkpoints cut during this run.
    pub checkpoints_written: u64,
    /// Set when the [`DurabilityConfig::stop_after`] test hook ended
    /// the run before the horizon.
    pub stopped_after: Option<u64>,
}

/// Why a durable run failed.
#[derive(Debug)]
pub enum DurableError {
    /// The configuration or horizon was invalid.
    Config(ConfigError),
    /// The durability layer hit an I/O error.
    Io(std::io::Error),
    /// A checkpoint or journal record was damaged beyond what recovery
    /// tolerates (the valid-prefix protocol handles torn and corrupt
    /// *tails*; this is structural damage like an undecodable snapshot
    /// from a mismatched run).
    Corrupt(String),
    /// Replaying the journal produced a different slot than the journal
    /// recorded — the determinism contract recovery rests on is broken,
    /// so the run aborts instead of silently rewriting history.
    Diverged {
        /// The slot whose replay disagreed with the journal.
        slot: u64,
    },
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Config(e) => write!(f, "invalid configuration: {e}"),
            DurableError::Io(e) => write!(f, "durability I/O error: {e}"),
            DurableError::Corrupt(msg) => write!(f, "durable state corrupt: {msg}"),
            DurableError::Diverged { slot } => write!(
                f,
                "replay of slot {slot} diverged from the journal; refusing to rewrite history"
            ),
        }
    }
}

impl std::error::Error for DurableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurableError::Config(e) => Some(e),
            DurableError::Io(e) => Some(e),
            DurableError::Corrupt(_) | DurableError::Diverged { .. } => None,
        }
    }
}

impl From<ConfigError> for DurableError {
    fn from(e: ConfigError) -> Self {
        DurableError::Config(e)
    }
}

impl From<std::io::Error> for DurableError {
    fn from(e: std::io::Error) -> Self {
        DurableError::Io(e)
    }
}

/// A runnable simulation: a scenario plus an engine configuration.
#[derive(Debug, Clone)]
pub struct Simulation {
    scenario: Scenario,
    config: EngineConfig,
}

impl Simulation {
    /// Creates a simulation.
    #[must_use]
    pub fn new(scenario: Scenario, config: EngineConfig) -> Self {
        Simulation { scenario, config }
    }

    /// Runs `slots` slots and returns the full report.
    ///
    /// The driver owns the clock and nothing else: it builds the
    /// cross-slot [`SimState`] (including the slot-0 meter warm-up) and
    /// the stage table ([`pipeline::build`]), and steps the stages once
    /// per slot. All market behaviour lives in the stages. The scenario
    /// goes once the state is built: the state holds what it reads.
    #[must_use]
    pub fn run(self, slots: u64) -> SimReport {
        let Simulation { scenario, config } = self;
        let mut run = Run::start(&scenario, &config, slots);
        drop(scenario);
        for t in 0..slots {
            run_one_slot(&mut run, t);
        }
        run.state.into_report()
    }

    /// Runs `slots` slots with crash-consistent durability: a bid
    /// journal between checkpoints, slot-boundary snapshots every
    /// [`DurabilityConfig::checkpoint_every`] slots, and (when
    /// [`DurabilityConfig::resume`] is set) recovery by loading the
    /// latest valid checkpoint and deterministically replaying the
    /// journaled slots.
    ///
    /// Reports from durable runs are byte-identical to [`Simulation::run`]
    /// with the same scenario and configuration — `tests/recovery.rs`
    /// and `scripts/crash_harness` pin this across SIGKILL, torn-tail,
    /// and corrupt-CRC injections.
    ///
    /// # Errors
    ///
    /// Returns [`DurableError::Config`] for an invalid configuration,
    /// `Io` for filesystem failures, `Corrupt` for structurally damaged
    /// durable state, and `Diverged` when journal replay disagrees with
    /// the recorded history.
    pub fn run_durable(self, slots: u64) -> Result<DurableOutcome, DurableError> {
        self.config.validate()?;
        if slots == 0 {
            return Err(DurableError::Config(ConfigError::ZeroHorizon));
        }
        let Some(dir) = self.config.durability.dir.clone() else {
            // No directory disables durability: the plain loop.
            return Ok(DurableOutcome {
                report: self.run(slots),
                recovery: None,
                checkpoints_written: 0,
                stopped_after: None,
            });
        };
        let Simulation { scenario, config } = self;
        let (mode, seed) = (config.mode, scenario.seed);
        let mut run = Run::start(&scenario, &config, slots);
        drop(scenario);
        let wal_path = dir.join("journal.wal");

        let mut start_slot: u64 = 0;
        let mut recovery = None;
        let mut wal;
        if config.durability.resume {
            let snapshot_slot = match spotdc_durable::load_latest(&dir)? {
                Some(loaded) => {
                    let snap = EngineSnapshot::decode(&loaded.payload).map_err(|e| {
                        DurableError::Corrupt(format!(
                            "checkpoint {} does not decode: {e}",
                            loaded.path.display()
                        ))
                    })?;
                    snap.apply(&mut run.state, &mut run.stages, mode, seed)
                        .map_err(|e| {
                            DurableError::Corrupt(format!(
                                "checkpoint {} does not apply: {e}",
                                loaded.path.display()
                            ))
                        })?;
                    start_slot = loaded.slots_done;
                    Some(loaded.slots_done)
                }
                None => None,
            };

            let contents = spotdc_durable::read_wal(&wal_path)?.unwrap_or_default();
            let truncated = match contents.tail {
                Tail::Clean => None,
                Tail::Torn { dropped } => Some(JournalDamage {
                    reason: "torn",
                    dropped_bytes: dropped,
                }),
                Tail::Corrupt { dropped } => Some(JournalDamage {
                    reason: "corrupt",
                    dropped_bytes: dropped,
                }),
            };

            // The journal is replaced, not patched: recreate it and
            // re-append each record as its slot replays, so the on-disk
            // journal always matches the in-memory history exactly.
            wal = WalWriter::create(&wal_path)?;
            let mut replayed = 0u64;
            for record in &contents.records {
                let slot = crate::durability::wal_record_slot(record).map_err(|e| {
                    DurableError::Corrupt(format!("journal record does not decode: {e}"))
                })?;
                if slot < start_slot {
                    // Leftover from before the checkpoint the journal
                    // outlived; the snapshot already covers it.
                    continue;
                }
                if slot >= slots {
                    break;
                }
                // A journal starting *ahead* of the snapshot means a
                // newer checkpoint was lost (its journal reset survived
                // but the snapshot did not) and recovery fell back to a
                // predecessor. Determinism covers the gap: re-simulate
                // the missing slots, re-journaling them so the new
                // journal again spans everything since the snapshot.
                while start_slot < slot {
                    run_one_slot(&mut run, start_slot);
                    wal.append(&crate::durability::encode_wal_record(&run.ctx))?;
                    start_slot += 1;
                    replayed += 1;
                }
                run_one_slot(&mut run, slot);
                let replay = crate::durability::encode_wal_record(&run.ctx);
                if replay != *record {
                    return Err(DurableError::Diverged { slot });
                }
                wal.append(&replay)?;
                start_slot = slot + 1;
                replayed += 1;
            }
            wal.sync()?;

            let at = MonotonicNanos::now();
            if let Some(damage) = &truncated {
                spotdc_telemetry::emit(spotdc_telemetry::Event::JournalTruncated {
                    slot: Slot::new(start_slot),
                    at,
                    reason: damage.reason.to_owned(),
                    dropped_bytes: damage.dropped_bytes,
                });
            }
            spotdc_telemetry::emit(spotdc_telemetry::Event::RecoveryPerformed {
                slot: Slot::new(start_slot),
                at,
                snapshot_slot: snapshot_slot.unwrap_or(0),
                replayed_slots: replayed,
            });
            recovery = Some(RecoveryInfo {
                snapshot_slot,
                replayed_slots: replayed,
                truncated,
            });
        } else {
            // A fresh durable run owns the directory: stale checkpoints
            // or journals from a previous run must not leak into this
            // history.
            spotdc_durable::clear_dir(&dir)?;
            wal = WalWriter::create(&wal_path)?;
        }

        let mut checkpoints_written = 0u64;
        let mut stopped_after = None;
        for t in start_slot..slots {
            run_one_slot(&mut run, t);
            wal.append(&crate::durability::encode_wal_record(&run.ctx))?;
            if (t + 1) % config.durability.checkpoint_every == 0 {
                let started = std::time::Instant::now();
                let snap = EngineSnapshot::capture(&run.state, &run.stages, mode, seed, t + 1);
                let bytes = spotdc_durable::write_checkpoint(&dir, t + 1, &snap.encode())?;
                // The checkpoint covers every journaled slot, so the
                // journal restarts empty; its predecessor needs no
                // fsync — the synced checkpoint supersedes it.
                wal = WalWriter::create(&wal_path)?;
                checkpoints_written += 1;
                spotdc_telemetry::emit(spotdc_telemetry::Event::CheckpointWritten {
                    slot: Slot::new(t),
                    at: MonotonicNanos::now(),
                    bytes,
                    nanos: u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
                });
            }
            if let Some(stop) = config.durability.stop_after {
                if t + 1 - start_slot >= stop && t + 1 < slots {
                    stopped_after = Some(t + 1);
                    break;
                }
            }
            if config.durability.slot_delay_ms > 0 {
                std::thread::sleep(std::time::Duration::from_millis(
                    config.durability.slot_delay_ms,
                ));
            }
        }
        wal.sync()?;
        Ok(DurableOutcome {
            report: run.state.into_report(),
            recovery,
            checkpoints_written,
            stopped_after,
        })
    }
}

/// One run in flight, as [`Simulation::run`] and [`Simulation::run_durable`]
/// both build it and step it ([`run_one_slot`]).
struct Run {
    state: SimState,
    ctx: SlotContext,
    stages: Vec<Box<dyn SlotStage>>,
}

impl Run {
    /// Installs telemetry as configured, then builds the cross-slot
    /// state, the slot scratch and the stages.
    fn start(scenario: &Scenario, config: &EngineConfig, slots: u64) -> Self {
        if config.telemetry.enabled {
            spotdc_telemetry::install_if_uninstalled(config.telemetry);
        }
        let state = SimState::new(scenario, config, slots as usize);
        Run {
            ctx: SlotContext::new(state.topology.rack_count(), state.agents.len()),
            state,
            stages: pipeline::build(config),
        }
    }
}

/// Steps every stage once for slot `t`: the single slot body shared by
/// [`Simulation::run`], the durable main loop, and journal replay —
/// sharing it is what makes replay bit-identical to the original
/// execution.
fn run_one_slot(run: &mut Run, t: u64) {
    let slot = Slot::new(t);
    let _slot_span = spotdc_telemetry::span!("engine.slot", slot = slot);
    run.ctx.begin(slot, t as usize);
    for stage in run.stages.iter_mut() {
        let _stage_span = spotdc_telemetry::span!(stage.name(), slot = slot);
        stage.run(&mut run.state, &mut run.ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accounting::Billing;

    fn run(mode: Mode, slots: u64) -> SimReport {
        Simulation::new(Scenario::testbed(11), EngineConfig::new(mode)).run(slots)
    }

    #[test]
    fn powercapped_never_sells_spot() {
        let r = run(Mode::PowerCapped, 200);
        assert!(r.records.iter().all(|rec| rec.spot_sold == 0.0));
        assert_eq!(r.spot_revenue_rate(), 0.0);
    }

    #[test]
    fn spotdc_sells_spot_and_earns_revenue() {
        let r = run(Mode::SpotDc, 400);
        assert!(r.avg_spot_sold() > 0.0, "no spot sold in 400 slots");
        assert!(r.spot_revenue_rate() > 0.0);
        let profit = r.profit(&Billing::paper_defaults());
        assert!(profit.extra_percent() > 0.0);
    }

    #[test]
    fn maxperf_allocates_without_revenue() {
        let r = run(Mode::MaxPerf, 400);
        assert!(r.avg_spot_sold() > 0.0);
        assert_eq!(r.spot_revenue_rate(), 0.0);
        assert!(r.records.iter().all(|rec| rec.price.is_none()));
    }

    #[test]
    fn spot_improves_wanting_tenants_performance() {
        let pc = run(Mode::PowerCapped, 400);
        let dc = run(Mode::SpotDc, 400);
        // Average over wanting slots, across all tenants that ever want.
        let mut improved = 0;
        let mut total = 0;
        for i in 0..pc.tenant_count() {
            let base = pc.tenant_avg_perf(i, true);
            let spot = dc.tenant_avg_perf(i, true);
            if base > 0.0 {
                total += 1;
                if spot > base * 1.01 {
                    improved += 1;
                }
            }
        }
        assert!(
            total >= 6,
            "expected most tenants to want spot at least once"
        );
        assert!(
            improved * 2 > total,
            "only {improved}/{total} tenants improved"
        );
    }

    #[test]
    fn maxperf_performance_at_least_spotdc() {
        let dc = run(Mode::SpotDc, 300);
        let mp = run(Mode::MaxPerf, 300);
        let perf = |r: &SimReport| -> f64 {
            (0..r.tenant_count())
                .map(|i| r.tenant_avg_perf(i, true))
                .sum::<f64>()
        };
        // MaxPerf ignores prices and should allocate at least as much.
        assert!(mp.avg_spot_sold() >= dc.avg_spot_sold() * 0.9);
        assert!(perf(&mp) >= perf(&dc) * 0.95);
    }

    #[test]
    fn grants_respect_headroom_always() {
        let r = run(Mode::SpotDc, 300);
        for rec in &r.records {
            for (i, t) in rec.tenants.iter().enumerate() {
                assert!(
                    t.grant <= r.headrooms[i].value() + 1e-6,
                    "grant {} exceeds headroom at slot {}",
                    t.grant,
                    rec.slot
                );
            }
        }
    }

    #[test]
    fn spot_never_adds_emergencies() {
        let pc = run(Mode::PowerCapped, 500);
        let dc = run(Mode::SpotDc, 500);
        assert!(
            dc.emergencies <= pc.emergencies + 1,
            "SpotDC {} vs PowerCapped {}",
            dc.emergencies,
            pc.emergencies
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(Mode::SpotDc, 100);
        let b = run(Mode::SpotDc, 100);
        assert_eq!(a, b);
    }

    #[test]
    fn comms_losses_reduce_sales() {
        let clean = run(Mode::SpotDc, 300);
        let lossy = Simulation::new(
            Scenario::testbed(11),
            EngineConfig {
                faults: FaultConfig {
                    bid_loss: 0.5,
                    broadcast_loss: 0.5,
                    ..FaultConfig::disabled()
                },
                ..EngineConfig::new(Mode::SpotDc)
            },
        )
        .run(300);
        assert!(lossy.avg_spot_sold() < clean.avg_spot_sold());
        assert!(lossy.faults_injected > 0, "losses must be accounted");
    }

    #[test]
    fn default_configs_validate_in_every_mode() {
        for mode in [Mode::PowerCapped, Mode::SpotDc, Mode::MaxPerf] {
            EngineConfig::new(mode).validate().unwrap();
        }
        EngineConfig {
            faults: FaultConfig::uniform(0.1, 7),
            cap: CapConfig::paper_default(),
            ..EngineConfig::new(Mode::SpotDc)
        }
        .validate()
        .unwrap();
    }

    #[test]
    fn nan_and_out_of_range_rates_are_rejected() {
        let nan = EngineConfig {
            faults: FaultConfig {
                meter_noise: f64::NAN,
                ..FaultConfig::disabled()
            },
            ..EngineConfig::new(Mode::SpotDc)
        };
        assert!(matches!(
            nan.validate(),
            Err(ConfigError::InvalidRate {
                field: "faults.meter_noise",
                ..
            })
        ));

        let negative = EngineConfig {
            faults: FaultConfig {
                broadcast_loss: -0.25,
                ..FaultConfig::disabled()
            },
            ..EngineConfig::new(Mode::SpotDc)
        };
        assert!(matches!(
            negative.validate(),
            Err(ConfigError::InvalidRate {
                field: "faults.broadcast_loss",
                value,
            }) if value == -0.25
        ));

        let above_one = EngineConfig {
            faults: FaultConfig {
                prediction_delay: 1.5,
                ..FaultConfig::disabled()
            },
            ..EngineConfig::new(Mode::SpotDc)
        };
        assert!(above_one.validate().is_err());

        let bad_noise = EngineConfig {
            faults: FaultConfig {
                noise_magnitude: -1.0,
                ..FaultConfig::disabled()
            },
            ..EngineConfig::new(Mode::SpotDc)
        };
        assert!(matches!(
            bad_noise.validate(),
            Err(ConfigError::InvalidMagnitude { .. })
        ));
    }

    #[test]
    fn market_settings_require_market_mode() {
        let oracle = EngineConfig {
            price_oracle: true,
            ..EngineConfig::new(Mode::PowerCapped)
        };
        assert!(matches!(
            oracle.validate(),
            Err(ConfigError::MarketOnlySetting {
                setting: "price_oracle",
                mode: Mode::PowerCapped,
            })
        ));

        let per_pdu_maxperf = EngineConfig {
            per_pdu_pricing: true,
            ..EngineConfig::new(Mode::MaxPerf)
        };
        assert!(per_pdu_maxperf.validate().is_err());

        // The same settings are fine with a market.
        EngineConfig {
            price_oracle: true,
            per_pdu_pricing: true,
            ..EngineConfig::new(Mode::SpotDc)
        }
        .validate()
        .unwrap();
    }

    #[test]
    fn validate_and_run_durable_reject_bad_inputs() {
        let bad = EngineConfig {
            faults: FaultConfig {
                bid_loss: f64::NAN,
                ..FaultConfig::disabled()
            },
            ..EngineConfig::new(Mode::SpotDc)
        };
        assert!(bad.validate().is_err());
        assert!(matches!(
            Simulation::new(Scenario::testbed(11), bad).run_durable(50),
            Err(DurableError::Config(_))
        ));

        let good = EngineConfig::new(Mode::SpotDc);
        good.validate().expect("default config is valid");
        let sim = Simulation::new(Scenario::testbed(11), good);
        assert!(matches!(
            sim.clone().run_durable(0),
            Err(DurableError::Config(ConfigError::ZeroHorizon))
        ));
        let outcome = sim.run_durable(50).expect("valid run succeeds");
        assert_eq!(outcome.report.records.len(), 50);
    }

    #[test]
    fn zero_inner_jobs_is_rejected() {
        let zero = EngineConfig {
            inner_jobs: 0,
            ..EngineConfig::new(Mode::SpotDc)
        };
        assert_eq!(zero.validate(), Err(ConfigError::ZeroInnerJobs));
        for inner_jobs in [1, 2, 4] {
            EngineConfig {
                inner_jobs,
                ..EngineConfig::new(Mode::SpotDc)
            }
            .validate()
            .unwrap();
        }
    }

    #[test]
    fn zero_shards_is_rejected() {
        let zero = EngineConfig {
            shards: 0,
            ..EngineConfig::new(Mode::SpotDc)
        };
        assert_eq!(zero.validate(), Err(ConfigError::ZeroShards));
        assert!(ConfigError::ZeroShards.to_string().contains("shards"));
        for shards in [1, 2, 4] {
            EngineConfig {
                shards,
                ..EngineConfig::new(Mode::SpotDc)
            }
            .validate()
            .unwrap();
        }
        // Sharding is mode-agnostic: a marketless mode simply never
        // consults the runtime.
        EngineConfig {
            shards: 4,
            ..EngineConfig::new(Mode::PowerCapped)
        }
        .validate()
        .unwrap();
    }

    #[test]
    fn shard_count_never_changes_the_report() {
        for mode in [Mode::PowerCapped, Mode::SpotDc, Mode::MaxPerf] {
            let serial = run(mode, 120);
            for shards in [2, 4] {
                let sharded = Simulation::new(
                    Scenario::testbed(11),
                    EngineConfig {
                        shards,
                        ..EngineConfig::new(mode)
                    },
                )
                .run(120);
                assert_eq!(sharded, serial, "mode {mode}, shards {shards}");
            }
        }
        // The per-PDU ablation is the real fan-out: one task per PDU
        // sub-market instead of a single uniform clear.
        let per_pdu = |shards: usize| {
            Simulation::new(
                Scenario::testbed(11),
                EngineConfig {
                    per_pdu_pricing: true,
                    shards,
                    ..EngineConfig::new(Mode::SpotDc)
                },
            )
            .run(120)
        };
        let serial = per_pdu(1);
        assert_eq!(per_pdu(2), serial);
        assert_eq!(per_pdu(4), serial);
    }

    #[test]
    fn inner_jobs_width_never_changes_the_report() {
        let serial = run(Mode::SpotDc, 150);
        for inner_jobs in [2, 4] {
            let wide = Simulation::new(
                Scenario::testbed(11),
                EngineConfig {
                    inner_jobs,
                    ..EngineConfig::new(Mode::SpotDc)
                },
            )
            .run(150);
            assert_eq!(wide, serial, "inner_jobs = {inner_jobs}");
        }
        // The per-PDU ablation exercises the parallel sub-market path.
        let per_pdu = |inner_jobs: usize| {
            Simulation::new(
                Scenario::testbed(11),
                EngineConfig {
                    per_pdu_pricing: true,
                    inner_jobs,
                    ..EngineConfig::new(Mode::SpotDc)
                },
            )
            .run(150)
        };
        assert_eq!(per_pdu(4), per_pdu(1));
    }

    #[test]
    fn config_errors_render_the_offending_field() {
        let err = ConfigError::InvalidRate {
            field: "faults.bid_delay",
            value: 2.0,
        };
        assert!(err.to_string().contains("faults.bid_delay"));
        assert!(ConfigError::ZeroHorizon.to_string().contains("one slot"));
    }

    fn temp_ckpt_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "spotdc-engine-durable-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn durable_config(mode: Mode, dir: &Path) -> EngineConfig {
        EngineConfig {
            durability: DurabilityConfig {
                dir: Some(dir.to_path_buf()),
                checkpoint_every: 10,
                ..DurabilityConfig::default()
            },
            ..EngineConfig::new(mode)
        }
    }

    #[test]
    fn zero_checkpoint_every_is_rejected() {
        let dir = temp_ckpt_dir("zero-every");
        let config = EngineConfig {
            durability: DurabilityConfig {
                dir: Some(dir),
                checkpoint_every: 0,
                ..DurabilityConfig::default()
            },
            ..EngineConfig::new(Mode::SpotDc)
        };
        assert_eq!(config.validate(), Err(ConfigError::ZeroCheckpointEvery));
        assert!(ConfigError::ZeroCheckpointEvery
            .to_string()
            .contains("checkpoint_every"));
    }

    #[test]
    fn resume_without_checkpoint_dir_is_rejected() {
        let config = EngineConfig {
            durability: DurabilityConfig {
                resume: true,
                ..DurabilityConfig::default()
            },
            ..EngineConfig::new(Mode::SpotDc)
        };
        assert_eq!(
            config.validate(),
            Err(ConfigError::ResumeWithoutCheckpointDir)
        );
    }

    #[test]
    fn run_durable_without_a_dir_is_the_plain_run() {
        let outcome = Simulation::new(Scenario::testbed(11), EngineConfig::new(Mode::SpotDc))
            .run_durable(45)
            .expect("`dir: None` disables durability, it is not an error");
        assert_eq!(outcome.report, run(Mode::SpotDc, 45));
        assert!(outcome.recovery.is_none());
        assert_eq!(outcome.checkpoints_written, 0);
        assert_eq!(outcome.stopped_after, None);
    }

    #[test]
    fn unwritable_checkpoint_dir_is_rejected_up_front() {
        // A path *under a regular file* can never be created as a dir.
        let base = temp_ckpt_dir("unwritable");
        std::fs::create_dir_all(&base).unwrap();
        let file = base.join("occupied");
        std::fs::write(&file, b"x").unwrap();
        let config = EngineConfig {
            durability: DurabilityConfig {
                dir: Some(file.join("sub")),
                ..DurabilityConfig::default()
            },
            ..EngineConfig::new(Mode::SpotDc)
        };
        match config.validate() {
            Err(ConfigError::UnwritableCheckpointDir { dir, .. }) => {
                assert_eq!(dir, file.join("sub"));
            }
            other => panic!("expected UnwritableCheckpointDir, got {other:?}"),
        }
    }

    #[test]
    fn durable_run_report_matches_plain_run() {
        let dir = temp_ckpt_dir("matches-plain");
        let plain = run(Mode::SpotDc, 45);
        let outcome = Simulation::new(Scenario::testbed(11), durable_config(Mode::SpotDc, &dir))
            .run_durable(45)
            .unwrap();
        assert_eq!(outcome.report, plain);
        assert!(outcome.recovery.is_none());
        // 45 slots at checkpoint_every=10 → boundaries after slots
        // 10, 20, 30, 40.
        assert_eq!(outcome.checkpoints_written, 4);
        assert_eq!(outcome.stopped_after, None);
    }

    #[test]
    fn stop_and_resume_reproduces_the_cold_report() {
        let dir = temp_ckpt_dir("stop-resume");
        let plain = run(Mode::SpotDc, 45);
        let mut config = durable_config(Mode::SpotDc, &dir);
        config.durability.stop_after = Some(23);
        let stopped = Simulation::new(Scenario::testbed(11), config)
            .run_durable(45)
            .unwrap();
        assert_eq!(stopped.stopped_after, Some(23));

        let mut config = durable_config(Mode::SpotDc, &dir);
        config.durability.resume = true;
        let resumed = Simulation::new(Scenario::testbed(11), config)
            .run_durable(45)
            .unwrap();
        let recovery = resumed.recovery.expect("resume must report recovery");
        // Stop at slot 23: snapshot at 20, slots 20..23 journaled.
        assert_eq!(recovery.snapshot_slot, Some(20));
        assert_eq!(recovery.replayed_slots, 3);
        assert_eq!(recovery.truncated, None);
        assert_eq!(resumed.report, plain);
    }

    #[test]
    fn resume_with_no_durable_state_cold_starts() {
        let dir = temp_ckpt_dir("resume-empty");
        std::fs::create_dir_all(&dir).unwrap();
        let plain = run(Mode::SpotDc, 25);
        let mut config = durable_config(Mode::SpotDc, &dir);
        config.durability.resume = true;
        let outcome = Simulation::new(Scenario::testbed(11), config)
            .run_durable(25)
            .unwrap();
        let recovery = outcome.recovery.expect("resume must report recovery");
        assert_eq!(recovery.snapshot_slot, None);
        assert_eq!(recovery.replayed_slots, 0);
        assert_eq!(outcome.report, plain);
    }

    #[test]
    fn fresh_durable_run_clears_stale_state() {
        let dir = temp_ckpt_dir("clears-stale");
        let mut config = durable_config(Mode::SpotDc, &dir);
        config.durability.stop_after = Some(17);
        Simulation::new(Scenario::testbed(11), config)
            .run_durable(45)
            .unwrap();
        // A second *fresh* run must not resume from the first's state.
        let plain = run(Mode::SpotDc, 45);
        let fresh = Simulation::new(Scenario::testbed(11), durable_config(Mode::SpotDc, &dir))
            .run_durable(45)
            .unwrap();
        assert!(fresh.recovery.is_none());
        assert_eq!(fresh.report, plain);
    }
}
