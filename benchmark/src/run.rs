//! One benchmark run: set-up, the timed region, the correctness checks,
//! and — on a traced run — the per-layer attribution.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use spotdc_core::{check_allocation, MarketClearing, MarketOutcome};
use spotdc_sim::engine::{EngineConfig, Simulation};
use spotdc_sim::SimReport;
use spotdc_telemetry::{EventSink, FileSink};
use spotdc_units::Slot;

use crate::host::{self, Digest, OutDir};
use crate::layers;
use crate::schema::{MetricSet, Workload};
use crate::slotloop::{self, DurableSteps, LoopOutput};
use crate::spans::{self, Recorder, Span, SpanId};
use crate::stats;
use crate::workloads::{self, Plan, Prepared, Repetition, Replay};

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// The workload.
    pub workload: Workload,
    /// Seed forwarded to the `Scenario` constructor.
    pub seed: u64,
    /// Seconds the timed region lasts at least (whole repetitions).
    pub seconds: f64,
    /// Traced run (per-layer metrics) or end-to-end run.
    pub trace: bool,
    /// The small `--smoke` size.
    pub smoke: bool,
}

/// What a run found.
#[derive(Debug)]
pub struct RunResult {
    /// Market slots (or replayed clears) attempted.
    pub attempted: u64,
    /// Slots that failed; every slot when a check failed.
    pub failed: u64,
    /// The measured metrics.
    pub metrics: MetricSet,
    /// Hash of the first repetition's reports / outcomes.
    pub digest: String,
    /// The checks run, with their verdicts.
    pub checks: Vec<(bool, String)>,
}

impl RunResult {
    /// Whether every check passed and no slot failed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(ok, _)| *ok)
    }
}

/// Accumulates check verdicts.
#[derive(Debug, Default)]
struct Checks(Vec<(bool, String)>);

impl Checks {
    fn require(&mut self, ok: bool, what: impl Into<String>) {
        self.0.push((ok, what.into()));
    }
}

/// Slots of `report` that count as failed: any carrying an invariant
/// violation, and any degraded while no fault is armed.
fn failed_slots(report: &SimReport, config: &EngineConfig) -> u64 {
    let unexplained = if config.faults.any() {
        0
    } else {
        report.degraded_slots
    };
    (report.invariant_violations + unexplained).min(report.records.len()) as u64
}

/// Installs the file sink `armed-3k` writes its event log to. Telemetry
/// stays disabled until the timed region flips it on.
fn install_file_sink(jsonl: &Path) -> Result<Arc<dyn EventSink>, String> {
    let sink: Arc<dyn EventSink> =
        Arc::new(FileSink::create(jsonl).map_err(|e| format!("telemetry sink: {e}"))?);
    spotdc_telemetry::install_with_sink(
        spotdc_telemetry::TelemetryConfig {
            enabled: false,
            ..workloads::armed_telemetry()
        },
        Arc::clone(&sink),
    );
    Ok(sink)
}

/// Runs one workload once.
///
/// # Errors
///
/// Returns a message when the run could not be carried out at all (I/O
/// failure, durable-layer error). Failed *checks* are not errors: they
/// come back in the result.
pub fn run(args: RunArgs) -> Result<RunResult, String> {
    // Hard-off unless the workload arms it: the install is process-
    // global and sticky, which is why every run is its own process.
    spotdc_telemetry::set_enabled(false);
    let plan = Plan::of(args.workload, args.smoke);
    let scratch = OutDir::create(args.workload.name()).map_err(|e| format!("scratch dir: {e}"))?;
    let result = match (args.workload, args.trace) {
        (Workload::ClearReplay, false) => replay_end_to_end(&args, &plan),
        (Workload::ClearReplay, true) => replay_traced(&args, &plan),
        (_, false) => pipeline_end_to_end(&args, &plan, scratch.path()),
        (_, true) => pipeline_traced(&args, &plan, scratch.path()),
    };
    spotdc_telemetry::set_enabled(false);
    spotdc_telemetry::flush();
    result
}

/// Sets up `times` times (at least once) and returns the last result
/// with every duration, for the `setup_s` median. Each result is dropped
/// before the next is built, so two scenarios never sit in memory
/// together and raise the peak.
fn repeat_setup<T>(
    times: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut secs = Vec::with_capacity(times.max(1));
    let mut last = None;
    for _ in 0..times.max(1) {
        drop(last.take());
        let started = Instant::now();
        last = Some(setup()?);
        secs.push(started.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up ran"), secs))
}

/// Times `Scenario::traces` on a fresh scenario (`sim.traces_ms`).
fn traces_row(seed: u64, plan: &Plan, slots: u64, m: &mut MetricSet) {
    let started = Instant::now();
    std::hint::black_box(workloads::scenario(seed, plan).traces(slots as usize));
    m.set("sim.traces_ms", started.elapsed().as_secs_f64() * 1e3);
}

fn finish(
    attempted: u64,
    failed: u64,
    metrics: MetricSet,
    digest: String,
    checks: Checks,
) -> RunResult {
    let any_check_failed = checks.0.iter().any(|(ok, _)| !ok);
    RunResult {
        attempted,
        failed: if any_check_failed { attempted } else { failed },
        metrics,
        digest,
        checks: checks.0,
    }
}

// ---------------------------------------------------------------- pipeline

fn pipeline_end_to_end(args: &RunArgs, plan: &Plan, scratch: &Path) -> Result<RunResult, String> {
    let workload = args.workload;
    let armed = workload == Workload::Armed3k;
    if armed {
        install_file_sink(&scratch.join("telemetry.jsonl"))?;
    }

    let (prepared, setup_secs) = repeat_setup(plan.setups, || {
        Ok(workloads::setup(workload, args.seed, plan))
    })?;

    spotdc_telemetry::set_enabled(armed);
    let started = Instant::now();
    let mut reps: Vec<Repetition> = Vec::new();
    loop {
        reps.push(workloads::repetition(workload, &prepared, plan, scratch)?);
        if started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    // Sampled before the cross-checks: a serial reference run must not
    // set the sharded workload's peak.
    let peak_rss_mb = host::peak_rss_mb();

    let mut m = MetricSet::default();
    let rates: Vec<f64> = reps.iter().map(|r| r.slots() as f64 / r.secs).collect();
    let first = &reps[0];
    // The market leg: SpotDc is the first (or only) configuration.
    let market = &first.reports[0];
    m.set("slots_per_sec", stats::median(&rates));
    m.set("setup_s", stats::median(&setup_secs));
    m.set("peak_rss_mb", peak_rss_mb);
    m.set("spot_sold_kw", market.avg_spot_sold() / 1e3);
    m.set("spot_revenue_usd_per_h", market.spot_revenue_rate());

    let mut checks = Checks::default();
    let digest = host::digest_reports(&first.reports);
    checks.require(
        reps.iter()
            .all(|r| host::digest_reports(&r.reports) == digest),
        format!("all {} repetitions produced the same reports", reps.len()),
    );
    let attempted: u64 = reps.iter().map(Repetition::slots).sum();
    let failed: u64 = reps
        .iter()
        .flat_map(|r| r.reports.iter().zip(&prepared.configs))
        .map(|(report, config)| failed_slots(report, config))
        .sum();
    checks.require(
        first
            .reports
            .iter()
            .all(|r| r.records.len() as u64 == plan.rep_slots),
        "every report covers the full horizon",
    );
    workload_checks(workload, plan, &prepared, first, &mut checks);
    Ok(finish(attempted, failed, m, digest, checks))
}

/// The cross-checks that need a reference run, untimed.
fn workload_checks(
    workload: Workload,
    plan: &Plan,
    prepared: &Prepared,
    first: &Repetition,
    checks: &mut Checks,
) {
    match workload {
        Workload::TestbedModes => {
            checks.require(
                first.reports[1].records.iter().all(|r| r.spot_sold == 0.0),
                "PowerCapped sells no spot capacity",
            );
            checks.require(
                first.reports[0].avg_spot_sold() > 0.0,
                "SpotDc sells spot capacity",
            );
        }
        Workload::Armed3k => {
            let straight = Simulation::new(prepared.scenario.clone(), prepared.configs[0].clone())
                .run(plan.rep_slots);
            checks.require(
                straight == first.reports[0],
                "interrupted + resumed report equals the uninterrupted run",
            );
        }
        Workload::Sharded15k => {
            let serial = workloads::configs(Workload::PerPdu15k, prepared.scenario.seed).remove(0);
            let reference =
                Simulation::new(prepared.scenario.clone(), serial).run(plan.check_slots);
            let n = reference.records.len();
            checks.require(
                first.reports[0].records.get(..n) == Some(&reference.records[..]),
                format!("sharded records equal serial per-PDU records on a {n}-slot prefix"),
            );
        }
        Workload::PerPdu15k | Workload::ClearReplay => {}
    }
}

/// The product comparator of a traced repetition: what the traced loop
/// must reproduce bit for bit and is timed against.
fn untraced(
    workload: Workload,
    prepared: &Prepared,
    plan: &Plan,
    scratch: &Path,
) -> Result<Repetition, String> {
    if workload == Workload::Armed3k {
        // Straight through: the traced loop journals and checkpoints
        // but does not crash, so the like-for-like product run is the
        // uninterrupted `run_durable`.
        workloads::armed_repetition(prepared, plan, scratch, false)
    } else {
        workloads::repetition(workload, prepared, plan, scratch)
    }
}

/// One traced repetition: every configuration through the
/// re-implemented loop.
struct Traced {
    secs: f64,
    recorder: Recorder,
    outputs: Vec<LoopOutput>,
    /// Process-wide wire counters before and after the repetition.
    wire: (spotdc_dist::WireStats, spotdc_dist::WireStats),
}

fn traced(
    workload: Workload,
    prepared: &Prepared,
    plan: &Plan,
    scratch: &Path,
) -> Result<Traced, String> {
    let ckpt = scratch.join("ckpt-traced");
    let durable = (workload == Workload::Armed3k).then_some(DurableSteps {
        dir: &ckpt,
        checkpoint_every: workloads::ARMED_CHECKPOINT_EVERY,
    });
    if durable.is_some() {
        std::fs::create_dir_all(&ckpt).map_err(|e| format!("checkpoint dir: {e}"))?;
    }
    let capture_from = plan.rep_slots.saturating_sub(plan.capture_slots);
    let before = spotdc_dist::wire_totals();
    let mut recorder = Recorder::new();
    let started = Instant::now();
    let mut outputs = Vec::with_capacity(prepared.configs.len());
    for config in &prepared.configs {
        outputs.push(
            slotloop::run(
                &prepared.scenario,
                config,
                plan.rep_slots,
                &mut recorder,
                Some(capture_from),
                durable.as_ref(),
            )
            .map_err(|e| format!("traced loop: {e}"))?,
        );
    }
    let secs = started.elapsed().as_secs_f64();
    Ok(Traced {
        secs,
        recorder,
        outputs,
        wire: (before, spotdc_dist::wire_totals()),
    })
}

fn pipeline_traced(args: &RunArgs, plan: &Plan, scratch: &Path) -> Result<RunResult, String> {
    let workload = args.workload;
    let armed = workload == Workload::Armed3k;
    let jsonl = scratch.join("telemetry.jsonl");
    let sink = if armed {
        Some(install_file_sink(&jsonl)?)
    } else {
        None
    };

    let mut m = MetricSet::default();
    traces_row(args.seed, plan, plan.rep_slots, &mut m);
    let prepared = workloads::setup(workload, args.seed, plan);

    // Untraced and traced repetitions alternate, so drift in the box's
    // speed lands on both sides of the overhead ratio.
    spotdc_telemetry::set_enabled(armed);
    let started = Instant::now();
    let (mut plain_rates, mut traced_rates) = (Vec::new(), Vec::new());
    let mut reference: Option<Repetition> = None;
    let (last, log_start) = loop {
        let rep = untraced(workload, &prepared, plan, scratch)?;
        plain_rates.push(rep.slots() as f64 / rep.secs);
        reference.get_or_insert(rep);
        // The run's own event log: everything the last traced
        // repetition wrote.
        spotdc_telemetry::flush();
        let log_start = std::fs::metadata(&jsonl).map_or(0, |meta| meta.len());
        let t = traced(workload, &prepared, plan, scratch)?;
        let slots: u64 = t
            .outputs
            .iter()
            .map(|o| o.report.records.len() as u64)
            .sum();
        traced_rates.push(slots as f64 / t.secs);
        if started.elapsed().as_secs_f64() >= args.seconds {
            break (t, log_start);
        }
    };
    let reference = reference.expect("at least one pair ran");
    spotdc_telemetry::flush();
    let log_end = std::fs::metadata(&jsonl).map_or(0, |meta| meta.len());
    m.set(
        "sim.trace_overhead_share",
        1.0 - stats::median(&traced_rates) / stats::median(&plain_rates),
    );

    let mut checks = Checks::default();
    let digest = host::digest_reports(&reference.reports);
    let traced_reports: Vec<&SimReport> = last.outputs.iter().map(|o| &o.report).collect();
    checks.require(
        host::digest_reports(traced_reports.iter().copied()) == digest,
        "traced loop's sim_digest equals the product entry point's",
    );
    let attempted: u64 = traced_reports.iter().map(|r| r.records.len() as u64).sum();
    let failed: u64 = traced_reports
        .iter()
        .zip(&prepared.configs)
        .map(|(report, config)| failed_slots(report, config))
        .sum();

    // Eqns. 1-4 over the same market with the checker forced on. Kept
    // out of the timed repetitions: validating a 15 000-tenant per-PDU
    // slot costs ~45 % of the slot and would pass for tracing overhead.
    let mut violations = 0usize;
    for config in &prepared.configs {
        if config.validate {
            continue;
        }
        let validating = EngineConfig {
            validate: true,
            ..config.clone()
        };
        let out = slotloop::run(
            &prepared.scenario,
            &validating,
            plan.check_slots.min(plan.rep_slots),
            &mut Recorder::new(),
            None,
            None,
        )
        .map_err(|e| format!("validation pass: {e}"))?;
        violations += out.report.invariant_violations;
    }
    violations += traced_reports
        .iter()
        .map(|r| r.invariant_violations)
        .sum::<usize>();
    checks.require(
        violations == 0,
        format!("validate: true reports {violations} invariant violations"),
    );

    let slots = attempted as f64;
    stage_metrics(last.recorder.spans(), &mut m);

    // Direct-call rows on the inputs this very run produced.
    let scenario = &prepared.scenario;
    let topology = &scenario.topology;
    let market_config = &prepared.configs[0];
    layers::tenants(scenario, plan.rep_slots, &mut m);
    layers::power(
        topology,
        market_config.cap.enabled.then_some(market_config.cap),
        &mut m,
    );
    layers::span_disabled(&mut m);
    let captures: Vec<_> = last
        .outputs
        .iter()
        .flat_map(|o| o.captures.iter().cloned())
        .collect();
    layers::prediction(topology, market_config.operator, &captures, &mut m);
    layers::maxperf(&captures, &mut m);
    let market_captures = &last.outputs[0].captures;
    match workload {
        Workload::PerPdu15k => {
            layers::clearing_per_pdu(market_config.operator.clearing, market_captures, &mut m);
        }
        // The shards clear; `dist.shard.*` below are this workload's
        // clearing tallies. The serial split would only measure the
        // path this workload exists to avoid.
        Workload::Sharded15k => {}
        _ => {
            layers::operator(topology, market_config.operator, market_captures, &mut m);
            let outcomes =
                layers::clearing_uniform(market_config.operator.clearing, market_captures, &mut m);
            let bad = layers::invariant(market_captures, &outcomes, &mut m);
            checks.require(bad == 0, "replayed captured books pass check_allocation");
            // How the pipeline's own engine resolved this run's slots.
            layers::clearing_tallies(last.outputs[0].operator_cache, &mut m);
        }
    }

    if workload == Workload::Sharded15k {
        let (before, after) = last.wire;
        let grew = |f: fn(&spotdc_dist::WireStats) -> u64| (f(&after) - f(&before)) as f64;
        m.set(
            "dist.frames_per_slot",
            grew(|w| w.frames_sent + w.frames_recv) / slots,
        );
        m.set(
            "dist.bytes_per_slot",
            grew(|w| w.bytes_sent + w.bytes_recv) / slots,
        );
        let shipped = grew(|w| w.delta_tasks + w.full_tasks);
        if shipped > 0.0 {
            m.set("dist.delta_task_share", grew(|w| w.delta_tasks) / shipped);
        }
        m.set("dist.setup_frames", grew(|w| w.setup_frames));
        m.set("dist.setup_bytes", grew(|w| w.setup_bytes));
        let shard = &last.outputs[0].shard_cache;
        let sum = |f: fn(&spotdc_core::ClearingCacheStats) -> u64| {
            shard.iter().map(f).sum::<u64>() as f64
        };
        m.set("dist.shard.full_sweeps", sum(|s| s.full_sweeps));
        m.set("dist.shard.cache_hits", sum(|s| s.cache_hits));
        m.set("dist.shard.delta_sweeps", sum(|s| s.delta_sweeps));
        m.set(
            "dist.degraded_slots",
            last.outputs[0].report.degraded_slots as f64,
        );
    }

    if armed {
        let tally = last.outputs[0].durable;
        m.set("durable.wal_bytes_per_slot", tally.wal_bytes as f64 / slots);
        m.set("durable.checkpoint_bytes", tally.checkpoint_bytes as f64);
        layers::durable_reads(&scratch.join("ckpt-traced"), &mut m)
            .map_err(|e| format!("durable reads: {e}"))?;
        // One interrupted + resumed product run: the recovery cost, and
        // the same digest once more.
        let resumed = workloads::armed_repetition(&prepared, plan, scratch, true)?;
        if let Some((resume_secs, replayed)) = resumed.resume {
            m.set("durable.resume.s", resume_secs);
            m.set("durable.resume.replayed_slots", replayed as f64);
        }
        checks.require(
            host::digest_reports(&resumed.reports) == digest,
            "interrupted + resumed report equals the uninterrupted run",
        );

        m.set(
            "faults.injected_per_slot",
            last.outputs[0].report.faults_injected as f64 / slots,
        );
        spotdc_telemetry::flush();
        let body = std::fs::read(&jsonl).map_err(|e| format!("read event log: {e}"))?;
        let window =
            &body[(log_start as usize).min(body.len())..(log_end as usize).min(body.len())];
        m.set(
            "telemetry.events_per_slot",
            window.iter().filter(|&&b| b == b'\n').count() as f64 / slots,
        );
        m.set("telemetry.bytes_per_slot", window.len() as f64 / slots);
        let sink = sink.expect("armed runs install a sink");
        layers::telemetry(&sink, &jsonl, market_config.faults, topology, &mut m)
            .map_err(|e| format!("telemetry rows: {e}"))?;
    }

    write_trace(workload, last.recorder.spans())?;
    Ok(finish(attempted, failed, m, digest, checks))
}

/// Maps a stage span name to its `sim.*` metric.
fn stage_metric(name: &str) -> Option<&'static str> {
    Some(match name {
        "stage.sense" => "sim.sense.ms_per_slot",
        "stage.collect_bids" => "sim.collect_bids.ms_per_slot",
        "stage.collect_gains" => "sim.collect_gains.ms_per_slot",
        "stage.predict" => "sim.predict.ms_per_slot",
        "stage.clear_market" | "stage.clear_per_pdu" | "stage.clear_maxperf" => {
            "sim.clear.ms_per_slot"
        }
        "stage.enforce" => "sim.enforce.ms_per_slot",
        "stage.settle" => "sim.settle.ms_per_slot",
        _ => return None,
    })
}

/// The `sim` (and span-derived `durable`) rows from one traced loop's
/// spans. Input capture is benchmark work: it is subtracted from its
/// slot before anything is computed.
fn stage_metrics(all: &[Span], m: &mut MetricSet) {
    let own = spans::self_times_ns(all);
    let ms = |ns: u64| ns as f64 / 1e6;

    let mut capture_ns: BTreeMap<SpanId, u64> = BTreeMap::new();
    let mut decision_ns: BTreeMap<SpanId, u64> = BTreeMap::new();
    let mut stage_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut named: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for span in all {
        match (span.parent, stage_metric(span.name)) {
            (Some(slot), Some(metric)) => {
                *stage_ns.entry(metric).or_default() += span.duration_ns();
                if matches!(metric, "sim.predict.ms_per_slot" | "sim.clear.ms_per_slot") {
                    *decision_ns.entry(slot).or_default() += span.duration_ns();
                }
            }
            (Some(slot), None) if span.name == slotloop::SPAN_CAPTURE => {
                *capture_ns.entry(slot).or_default() += span.duration_ns();
            }
            _ => named
                .entry(span.name)
                .or_default()
                .push(span.duration_ns() as f64),
        }
    }

    let slots: Vec<&Span> = all
        .iter()
        .filter(|s| s.name == slotloop::SPAN_SLOT)
        .collect();
    if slots.is_empty() {
        return;
    }
    let slot_ms: Vec<f64> = slots
        .iter()
        .map(|s| {
            ms(s.duration_ns()
                .saturating_sub(capture_ns.get(&s.id).copied().unwrap_or(0)))
        })
        .collect();
    let total_ms: f64 = slot_ms.iter().sum();
    let count = slots.len() as f64;
    for (metric, ns) in stage_ns {
        m.set(metric, ms(ns) / count);
    }
    let unattributed_ms: f64 = slots.iter().map(|s| ms(own[s.id as usize])).sum();
    m.set("sim.unattributed_share", unattributed_ms / total_ms);
    m.set("sim.slot.p50_ms", stats::median(&slot_ms));
    let (tail_pct, tail_ms) = stats::tail(&slot_ms);
    m.set("sim.slot.tail_ms", tail_ms);
    m.set("sim.slot.tail_pct", tail_pct);
    m.set("sim.slot.samples", count);
    let decisions: Vec<f64> = decision_ns.values().map(|&ns| ms(ns)).collect();
    m.set("sim.decision.p50_ms", stats::median(&decisions));
    let cold: Vec<f64> = slots
        .iter()
        .zip(&slot_ms)
        .filter(|(s, _)| s.slot == 0)
        .map(|(_, &v)| v)
        .collect();
    m.set(
        "sim.cold_slot_ms",
        cold.iter().sum::<f64>() / cold.len().max(1) as f64,
    );

    let mean_of = |name: &str| {
        named
            .get(name)
            .map(|v| v.iter().sum::<f64>() / v.len() as f64)
    };
    if let Some(ns) = mean_of(slotloop::SPAN_STATE_NEW) {
        m.set("sim.state_new_ms", ns / 1e6);
    }
    if let Some(ns) = mean_of(slotloop::SPAN_WAL_ENCODE) {
        m.set("durable.wal_encode.us_per_slot", ns / 1e3);
    }
    if let Some(ns) = mean_of(slotloop::SPAN_WAL_APPEND) {
        m.set("durable.wal_append.us_per_record", ns / 1e3);
    }
    if let Some(ns) = mean_of(slotloop::SPAN_CHECKPOINT) {
        m.set("durable.checkpoint_write.ms", ns / 1e6);
    }
}

fn write_trace(workload: Workload, all: &[Span]) -> Result<(), String> {
    let path = host::out_root().join(format!("{}.trace.jsonl", workload.name()));
    spans::write_jsonl(&path, all).map_err(|e| format!("write {}: {e}", path.display()))
}

// ------------------------------------------------------------ clear-replay

/// Cycle pairs (untraced + traced) after which `clear-replay` reads the
/// engine's sweep-mode tallies: 2 × 10 × 14 clears plus the warm-up.
const REPLAY_TALLY_PAIRS: usize = 10;

/// The first visit's outcome per book, with the slot it was stamped with.
type FirstOutcomes = Vec<Option<(Slot, MarketOutcome)>>;

fn replay_checks(replay: &Replay, first: &FirstOutcomes, checks: &mut Checks) {
    let (mut violations, mut mismatches, mut seen) = (0usize, 0usize, 0usize);
    for (book, entry) in replay.books.iter().zip(first) {
        let Some((slot, warm)) = entry else { continue };
        seen += 1;
        violations +=
            check_allocation(&book.constraints, warm.allocation(), &book.rack_bids, true).len();
        let cold =
            MarketClearing::new(replay.clearing).clear(*slot, &book.rack_bids, &book.constraints);
        mismatches += usize::from(cold != *warm);
    }
    checks.require(
        seen == replay.books.len(),
        "every recorded book was replayed",
    );
    checks.require(
        violations == 0,
        format!("replayed outcomes carry {violations} invariant violations"),
    );
    checks.require(
        mismatches == 0,
        format!("{mismatches} warm outcomes differ from a cold engine's"),
    );
    checks.require(
        first
            .iter()
            .flatten()
            .any(|(_, outcome)| outcome.sold().value() > 0.0),
        "the replayed market sells spot capacity",
    );
}

/// One pass over the replay order; returns the seconds it took. With
/// a recorder, the cycle and each of its clears become spans.
fn replay_cycle(
    replay: &Replay,
    op: &mut u64,
    mut trace: Option<&mut Recorder>,
    first: &mut FirstOutcomes,
) -> f64 {
    let started = Instant::now();
    let parent = trace
        .as_deref_mut()
        .map(|rec| rec.open(workloads::SPAN_CYCLE, None, *op));
    let traced = trace.as_deref_mut().zip(parent);
    replay.cycle(op, traced, |book, slot, outcome| {
        if first[book].is_none() {
            first[book] = Some((slot, outcome));
        } else {
            std::hint::black_box(outcome);
        }
    });
    if let (Some(rec), Some(parent)) = (trace, parent) {
        rec.close(parent);
    }
    started.elapsed().as_secs_f64()
}

fn replay_digest(first: &FirstOutcomes) -> String {
    let mut digest = Digest::default();
    for (_, outcome) in first.iter().flatten() {
        digest.outcome(outcome);
    }
    digest.hex()
}

fn replay_end_to_end(args: &RunArgs, plan: &Plan) -> Result<RunResult, String> {
    let (replay, setup_secs) = repeat_setup(plan.setups, || {
        workloads::replay_setup(args.seed, plan, &mut Recorder::new())
            .map_err(|e| format!("recording pipeline: {e}"))
    })?;

    let mut op = 0u64;
    let mut first: FirstOutcomes = vec![None; replay.books.len()];
    let started = Instant::now();
    let mut cycle_secs = Vec::new();
    while cycle_secs.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
        cycle_secs.push(replay_cycle(&replay, &mut op, None, &mut first));
    }
    let peak_rss_mb = host::peak_rss_mb();

    let rates: Vec<f64> = cycle_secs
        .iter()
        .map(|secs| replay.order.len() as f64 / secs)
        .collect();
    let sold: Vec<f64> = first
        .iter()
        .flatten()
        .map(|(_, o)| o.sold().value())
        .collect();
    let revenue: Vec<f64> = first
        .iter()
        .flatten()
        .map(|(_, o)| o.revenue_rate())
        .collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let mut m = MetricSet::default();
    m.set("slots_per_sec", stats::median(&rates));
    m.set("setup_s", stats::median(&setup_secs));
    m.set("peak_rss_mb", peak_rss_mb);
    m.set("spot_sold_kw", mean(&sold) / 1e3);
    m.set("spot_revenue_usd_per_h", mean(&revenue));

    let mut checks = Checks::default();
    replay_checks(&replay, &first, &mut checks);
    Ok(finish(op, 0, m, replay_digest(&first), checks))
}

fn replay_traced(args: &RunArgs, plan: &Plan) -> Result<RunResult, String> {
    let mut m = MetricSet::default();
    traces_row(args.seed, plan, plan.prime_slots + plan.rep_slots, &mut m);

    // The recording pipeline is this workload's set-up; its spans are
    // the `sim` rows (they move `setup_s` here, not `slots_per_sec`).
    let mut recording = Recorder::new();
    let replay = workloads::replay_setup(args.seed, plan, &mut recording)
        .map_err(|e| format!("recording pipeline: {e}"))?;
    stage_metrics(recording.spans(), &mut m);

    let mut op = 0u64;
    let mut first: FirstOutcomes = vec![None; replay.books.len()];
    // Untraced and traced cycles alternate, so drift in the box's
    // speed lands on both sides of the overhead ratio.
    let mut recorder = Recorder::new();
    let started = Instant::now();
    let (mut plain_secs, mut traced_secs) = (Vec::new(), Vec::new());
    let mut tallies = None;
    while tallies.is_none() || started.elapsed().as_secs_f64() < args.seconds {
        plain_secs.push(replay_cycle(&replay, &mut op, None, &mut first));
        traced_secs.push(replay_cycle(
            &replay,
            &mut op,
            Some(&mut recorder),
            &mut first,
        ));
        // Counts must repeat exactly, so they are read after a fixed
        // number of clears, not after however many the clock allowed.
        if plain_secs.len() == REPLAY_TALLY_PAIRS {
            tallies = Some(replay.engine.cache_stats());
        }
    }
    m.set(
        "sim.trace_overhead_share",
        1.0 - stats::median(&plain_secs) / stats::median(&traced_secs),
    );
    let clear_ms: Vec<f64> = recorder
        .spans()
        .iter()
        .filter(|s| s.name == workloads::SPAN_CLEAR)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect();
    layers::clear_latency(&clear_ms, &mut m);
    // How the warm engine resolved its first clears — reported as
    // counted, whatever mode fired.
    layers::clearing_tallies(tallies.expect("the loop runs until tallied"), &mut m);

    let mut checks = Checks::default();
    replay_checks(&replay, &first, &mut checks);

    let topology = &replay.scenario.topology;
    let operator = workloads::configs(Workload::ClearReplay, args.seed)[0].operator;
    layers::tenants(&replay.scenario, plan.prime_slots + plan.rep_slots, &mut m);
    layers::power(topology, None, &mut m);
    layers::span_disabled(&mut m);
    layers::operator(topology, operator, &replay.books, &mut m);
    layers::prediction(topology, operator, &replay.books, &mut m);
    let outcomes: Vec<MarketOutcome> = first
        .iter()
        .flatten()
        .map(|(_, outcome)| outcome.clone())
        .collect();
    layers::invariant(&replay.books, &outcomes, &mut m);
    layers::clearing_synthetic(replay.scenario.agents.len(), args.seed, &mut m);

    // One file: the recording pipeline's spans, then the replay's with
    // their ids shifted past them so ids stay unique.
    let shift = SpanId::try_from(recording.spans().len()).expect("span count fits an id");
    let mut all = recording.spans().to_vec();
    all.extend(recorder.spans().iter().map(|s| Span {
        id: s.id + shift,
        parent: s.parent.map(|p| p + shift),
        ..s.clone()
    }));
    write_trace(Workload::ClearReplay, &all)?;

    Ok(finish(op, 0, m, replay_digest(&first), checks))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: SpanId,
        parent: Option<SpanId>,
        name: &'static str,
        slot: u64,
        start_ms: u64,
        end_ms: u64,
    ) -> Span {
        Span {
            id,
            parent,
            name,
            slot,
            start_ns: start_ms * 1_000_000,
            end_ns: end_ms * 1_000_000,
        }
    }

    #[test]
    fn stage_rows_add_up_to_the_slot_and_exclude_capture() {
        // Two slots. Slot 0: 100 ms with 10 ms of input capture, so 90 ms
        // count: sense 10 + predict 20 + clear 30 + settle 25 = 85 in
        // stages, 5 unattributed. Slot 1: 50 ms, all of it in settle.
        let spans = [
            span(0, None, slotloop::SPAN_STATE_NEW, 0, 0, 8),
            span(1, None, slotloop::SPAN_SLOT, 0, 10, 110),
            span(2, Some(1), "stage.sense", 0, 10, 20),
            span(3, Some(1), "stage.predict", 0, 20, 40),
            span(4, Some(1), slotloop::SPAN_CAPTURE, 0, 40, 50),
            span(5, Some(1), "stage.clear_per_pdu", 0, 50, 80),
            span(6, Some(1), "stage.settle", 0, 80, 105),
            span(7, None, slotloop::SPAN_WAL_APPEND, 0, 110, 112),
            span(8, None, slotloop::SPAN_SLOT, 1, 120, 170),
            span(9, Some(8), "stage.settle", 1, 120, 170),
        ];
        let mut m = MetricSet::default();
        stage_metrics(&spans, &mut m);
        let get = |name: &str| m.get(name).unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(get("sim.sense.ms_per_slot"), 5.0);
        assert_eq!(get("sim.clear.ms_per_slot"), 15.0);
        assert_eq!(get("sim.settle.ms_per_slot"), 37.5);
        assert_eq!(get("sim.slot.samples"), 2.0);
        assert_eq!(get("sim.slot.p50_ms"), 70.0); // (90 + 50) / 2
        assert_eq!(get("sim.decision.p50_ms"), 50.0); // predict + clear of slot 0
        assert_eq!(get("sim.cold_slot_ms"), 90.0);
        assert_eq!(get("sim.state_new_ms"), 8.0);
        assert_eq!(get("durable.wal_append.us_per_record"), 2000.0);
        assert!((get("sim.unattributed_share") - 5.0 / 140.0).abs() < 1e-12);
        assert_eq!(m.get("sim.collect_bids.ms_per_slot"), None);
    }

    #[test]
    fn a_failed_check_fails_every_slot() {
        let mut checks = Checks::default();
        checks.require(true, "fine");
        let ok = finish(10, 0, MetricSet::default(), String::new(), checks);
        assert!(ok.correct() && ok.failed == 0);
        let mut checks = Checks::default();
        checks.require(false, "digest mismatch");
        let bad = finish(10, 0, MetricSet::default(), String::new(), checks);
        assert!(!bad.correct());
        assert_eq!(bad.failed, 10);
    }
}
