//! Post-hoc analysis of SpotDC JSONL event logs.
//!
//! The engine behind the `spotdc-trace` binary. Input is any event
//! log this workspace produces — the `FileSink` artifact
//! (`telemetry.jsonl`) — and output is an [`Analysis`]: per-stage
//! latency breakdowns reconstructed from `SpanClosed` events, market
//! time-series statistics from `SlotCleared`/`PredictionIssued` pairs, degradation
//! tallies, and an anomaly summary (emergency slots, invariant
//! violations, cap actions, fault clusters).
//!
//! Everything is **deterministic**: ordered maps, exact nearest-rank
//! quantiles over the full sample (no reservoir, no randomness), and
//! stable rendering — the same log analyzes to byte-identical output
//! on every run, so `spotdc-trace` output can be diffed and committed.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use spotdc_telemetry::{json_str, Event, EventParseError};

/// The nine pipeline stages, in execution order.
///
/// Duplicated from `spotdc-sim` (which depends on this crate, so the
/// analyzer cannot import the pipeline) and pinned by a cross-crate
/// test in the workspace root. The analyzer always reports all nine,
/// even with zero samples, so a missing stage is visible as `count 0`
/// rather than silently absent.
pub const PIPELINE_STAGES: [&str; 9] = [
    "stage.sense",
    "stage.collect_bids",
    "stage.collect_gains",
    "stage.predict",
    "stage.clear_market",
    "stage.clear_per_pdu",
    "stage.clear_maxperf",
    "stage.enforce",
    "stage.settle",
];

/// Latency distribution of one span name, from its `SpanClosed` events.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StageStats {
    /// Number of closed spans observed.
    pub count: u64,
    /// Exact nearest-rank percentiles and moments, nanoseconds.
    pub p50_ns: u64,
    /// 90th percentile, nanoseconds.
    pub p90_ns: u64,
    /// 99th percentile, nanoseconds.
    pub p99_ns: u64,
    /// Arithmetic mean, nanoseconds.
    pub mean_ns: u64,
    /// Maximum observed, nanoseconds.
    pub max_ns: u64,
}

impl StageStats {
    fn from_samples(mut samples: Vec<u64>) -> StageStats {
        if samples.is_empty() {
            return StageStats::default();
        }
        samples.sort_unstable();
        let count = samples.len() as u64;
        let sum: u128 = samples.iter().map(|&n| u128::from(n)).sum();
        StageStats {
            count,
            p50_ns: nearest_rank(&samples, 50),
            p90_ns: nearest_rank(&samples, 90),
            p99_ns: nearest_rank(&samples, 99),
            mean_ns: (sum / u128::from(count)) as u64,
            max_ns: *samples.last().expect("non-empty"),
        }
    }
}

/// Exact nearest-rank percentile of an ascending-sorted sample.
fn nearest_rank(sorted: &[u64], pct: u64) -> u64 {
    debug_assert!(!sorted.is_empty() && (1..=100).contains(&pct));
    let rank = (pct * sorted.len() as u64).div_ceil(100).max(1);
    sorted[(rank - 1) as usize]
}

/// Min/mean/max of one market series (price, sold watts, ...).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SeriesStats {
    /// Number of samples.
    pub count: u64,
    /// Minimum sample.
    pub min: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Maximum sample.
    pub max: f64,
}

impl SeriesStats {
    fn from_samples(samples: &[f64]) -> SeriesStats {
        if samples.is_empty() {
            return SeriesStats::default();
        }
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0;
        for &x in samples {
            min = min.min(x);
            max = max.max(x);
            sum += x;
        }
        SeriesStats {
            count: samples.len() as u64,
            min,
            mean: sum / samples.len() as f64,
            max,
        }
    }
}

/// Count and affected watts of one degradation kind.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DegradationStats {
    /// Number of decisions of this kind.
    pub count: u64,
    /// Total watts affected across them.
    pub watts: f64,
}

/// Slot-log tail damage of one reason ("torn" or "corrupt").
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TruncationStats {
    /// Number of truncations with this reason.
    pub count: u64,
    /// Total bytes of the log dropped across them.
    pub dropped_bytes: u64,
}

/// Durability activity reconstructed from `CheckpointWritten`,
/// `RecoveryPerformed`, and `JournalTruncated` events.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DurabilityStats {
    /// Checkpoints cut.
    pub checkpoints: u64,
    /// Total checkpoint bytes written.
    pub checkpoint_bytes: u64,
    /// Total nanoseconds spent capturing + writing checkpoints.
    pub checkpoint_nanos: u64,
    /// Recoveries performed (resumed runs).
    pub recoveries: u64,
    /// Logged slots deterministically replayed across recoveries.
    pub replayed_slots: u64,
    /// Slot-log tail truncations by reason ("torn", "corrupt").
    pub truncations: BTreeMap<String, TruncationStats>,
}

impl DurabilityStats {
    fn is_empty(&self) -> bool {
        *self == DurabilityStats::default()
    }
}

/// Clearing-latency distribution of one shard, from `ShardCleared`
/// events (controller-observed: dispatch to merged reply).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardClearStats {
    /// Number of cleared batches observed.
    pub count: u64,
    /// Total market outcomes returned across them.
    pub outcomes: u64,
    /// Median clear latency, nanoseconds (exact nearest-rank).
    pub p50_ns: u64,
    /// 99th-percentile clear latency, nanoseconds.
    pub p99_ns: u64,
}

/// Controller/agent traffic reconstructed from `ShardRpc` and
/// `ShardCleared` events (distributed runs only).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DistributedStats {
    /// Slot-phase frames moved in either direction.
    pub frames: u64,
    /// Total slot-phase wire bytes (frame headers included).
    pub bytes: u64,
    /// Setup-phase (`AssignShard` handshake / respawn) frames.
    pub setup_frames: u64,
    /// Setup-phase wire bytes.
    pub setup_bytes: u64,
    /// Distinct `(run, slot)` pairs that produced slot-phase traffic —
    /// the denominator for frames/slot and bytes/slot.
    pub slots: u64,
    /// Tasks shipped to shards (each travels whole, every slot).
    pub tasks: u64,
    /// Per-shard clearing latency, keyed by shard index.
    pub clears: BTreeMap<u64, ShardClearStats>,
    /// Every shard the controller marked dead, from `ShardDown` events,
    /// sorted.
    pub shard_down: Vec<DeadShard>,
}

/// One shard death: where it happened and what the controller saw.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct DeadShard {
    /// The run tag the event carried, or `"-"` for untagged logs.
    pub run: String,
    /// The slot whose exchange failed.
    pub slot: u64,
    /// The shard marked dead.
    pub shard: u64,
    /// The controller's reason (send or receive error, wrong slot,
    /// wrong outcome count).
    pub reason: String,
}

impl DistributedStats {
    fn is_empty(&self) -> bool {
        *self == DistributedStats::default()
    }
}

/// One anomaly site: the run/slot where an emergency-class event fired.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct AnomalySlot {
    /// The run tag the event carried, or `"-"` for untagged logs.
    pub run: String,
    /// The slot index.
    pub slot: u64,
    /// What fired there: the overloaded level with its overload as a
    /// share of capacity ("ups +0.40 %", "pdu-2 +6.10 %"), or the
    /// violation text.
    pub what: String,
}

/// A maximal run of consecutive-slot fault injections within one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultCluster {
    /// The run tag, or `"-"`.
    pub run: String,
    /// First slot of the cluster.
    pub first_slot: u64,
    /// Last slot of the cluster.
    pub last_slot: u64,
    /// Number of fault events inside it.
    pub count: u64,
    /// Distinct fault kinds observed, sorted.
    pub kinds: Vec<String>,
}

/// The full result of analyzing one event log.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Analysis {
    /// Lines that parsed into events (after any `--run` filter).
    pub events: u64,
    /// Lines skipped by the run filter.
    pub filtered_out: u64,
    /// Well-formed lines carrying an event tag this analyzer does not
    /// know — a newer log read by an older tool. Counted, never fatal.
    pub unknown_events: u64,
    /// `(line_number, error)` for unparseable non-empty lines.
    pub malformed: Vec<(u64, String)>,
    /// Distinct run tags seen (post-filter).
    pub runs: BTreeSet<String>,
    /// Inclusive slot range covered, if any event parsed.
    pub slot_range: Option<(u64, u64)>,
    /// Per-span latency stats from `SpanClosed`; always contains every
    /// [`PIPELINE_STAGES`] entry plus any other span names seen.
    pub stages: BTreeMap<String, StageStats>,
    /// Clearing-price series, $/kW/h.
    pub price: SeriesStats,
    /// Spot capacity sold per clearing, watts.
    pub sold_watts: SeriesStats,
    /// Sold / predicted UPS spot capacity: one sample per prediction
    /// that some clearing of its run and slot sold against.
    pub utilization: SeriesStats,
    /// `ConstraintBound` events by level (`"ups"`, `"pdu"`): how often
    /// the winning grants exhausted a spot capacity of that level.
    pub binding: BTreeMap<String, u64>,
    /// Distinct `(run, slot)` pairs with any bound constraint.
    pub binding_slots: u64,
    /// Degradation tallies by kind.
    pub degradations: BTreeMap<String, DegradationStats>,
    /// Slots where an overload emergency fired.
    pub emergency_slots: Vec<AnomalySlot>,
    /// Slots where the invariant checker found a violation.
    pub invariant_slots: Vec<AnomalySlot>,
    /// Cap-controller actions: count and total spot watts shed.
    pub cap_events: u64,
    /// Total spot watts shed by the cap controller.
    pub cap_shed_watts: f64,
    /// Bids rejected by admission control.
    pub bid_rejections: u64,
    /// Consecutive-slot fault-injection clusters.
    pub fault_clusters: Vec<FaultCluster>,
    /// Checkpoint/recovery/slot-log-truncation activity.
    pub durability: DurabilityStats,
    /// Controller/agent shard traffic and per-shard clear latency.
    pub distributed: DistributedStats,
}

impl Analysis {
    /// Analyzes a JSONL log, optionally keeping only lines whose
    /// `"run"` tag is `run_filter` or one of its sub-runs
    /// (`<run_filter>/…`, as `fan_out` tags its jobs). Untagged lines
    /// match only when no filter is given.
    #[must_use]
    pub fn from_jsonl(body: &str, run_filter: Option<&str>) -> Analysis {
        let mut a = Analysis::default();
        let mut span_samples: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        let mut prices = Vec::new();
        let mut sold = Vec::new();
        // One (predicted ups watts, sold watts, cleared) per prediction,
        // and each run's latest one with its slot: a clearing sells
        // against the prediction just before it.
        let mut predictions: Vec<(f64, f64, bool)> = Vec::new();
        let mut latest_prediction: BTreeMap<String, (u64, usize)> = BTreeMap::new();
        let mut faults: BTreeMap<String, Vec<(u64, String)>> = BTreeMap::new();
        // shard -> controller-observed clear latencies
        let mut shard_clears: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        // (run, slot) pairs that carried slot-phase shard traffic
        let mut rpc_slots: BTreeSet<(String, u64)> = BTreeSet::new();
        // (run, slot) pairs where some clear ran into a spot capacity
        let mut bound_slots: BTreeSet<(String, u64)> = BTreeSet::new();

        for (idx, line) in body.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let (run, event) = match Event::from_jsonl_tagged(line) {
                Ok(parsed) => parsed,
                Err(EventParseError::UnknownTag(_)) => {
                    // A newer writer's event: count it so the report
                    // shows the log carried more than we understood.
                    a.unknown_events += 1;
                    continue;
                }
                Err(EventParseError::Malformed(why)) => {
                    a.malformed.push((idx as u64 + 1, why));
                    continue;
                }
            };
            if let Some(want) = run_filter {
                if !run
                    .as_deref()
                    .is_some_and(|run| is_run_or_sub_run(run, want))
                {
                    a.filtered_out += 1;
                    continue;
                }
            }
            a.events += 1;
            let run_label = run.unwrap_or_default();
            if !run_label.is_empty() {
                a.runs.insert(run_label.clone());
            }
            let run_key = if run_label.is_empty() {
                "-".to_owned()
            } else {
                run_label
            };
            let slot = event.slot().index();
            a.slot_range = Some(match a.slot_range {
                None => (slot, slot),
                Some((lo, hi)) => (lo.min(slot), hi.max(slot)),
            });
            match &event {
                Event::SpanClosed { span, nanos, .. } => {
                    span_samples.entry(span.clone()).or_default().push(*nanos);
                }
                Event::SlotCleared {
                    price_per_kw_hour,
                    sold_watts,
                    ..
                } => {
                    prices.push(*price_per_kw_hour);
                    sold.push(*sold_watts);
                    // Per-PDU clearing emits one event per sub-market;
                    // they sum into the one prediction they share.
                    if let Some(&(at, i)) = latest_prediction.get(&run_key) {
                        if at == slot {
                            predictions[i].1 += *sold_watts;
                            predictions[i].2 = true;
                        }
                    }
                }
                Event::PredictionIssued { ups_watts, .. } => {
                    latest_prediction.insert(run_key, (slot, predictions.len()));
                    predictions.push((*ups_watts, 0.0, false));
                }
                Event::DegradedDecision { kind, watts, .. } => {
                    let entry = a.degradations.entry(kind.clone()).or_default();
                    entry.count += 1;
                    entry.watts += *watts;
                }
                Event::EmergencyTriggered {
                    level,
                    load_watts,
                    capacity_watts,
                    ..
                } => {
                    // How far the overload went, from the event itself,
                    // so an overshoot inside the breaker band reads as one.
                    let what = match load_watts / capacity_watts - 1.0 {
                        over if over.is_finite() => format!("{level} {:+.2} %", over * 100.0),
                        _ => level.clone(),
                    };
                    a.emergency_slots.push(AnomalySlot {
                        run: run_key,
                        slot,
                        what,
                    });
                }
                Event::InvariantViolated { violation, .. } => {
                    a.invariant_slots.push(AnomalySlot {
                        run: run_key,
                        slot,
                        what: violation.clone(),
                    });
                }
                Event::CapApplied { shed_watts, .. } => {
                    a.cap_events += 1;
                    a.cap_shed_watts += *shed_watts;
                }
                Event::BidRejected { .. } => {
                    a.bid_rejections += 1;
                }
                Event::FaultInjected { kind, .. } => {
                    faults
                        .entry(run_key)
                        .or_default()
                        .push((slot, kind.clone()));
                }
                Event::CheckpointWritten { bytes, nanos, .. } => {
                    a.durability.checkpoints += 1;
                    a.durability.checkpoint_bytes += *bytes;
                    a.durability.checkpoint_nanos += *nanos;
                }
                Event::RecoveryPerformed { replayed_slots, .. } => {
                    a.durability.recoveries += 1;
                    a.durability.replayed_slots += *replayed_slots;
                }
                Event::JournalTruncated {
                    reason,
                    dropped_bytes,
                    ..
                } => {
                    let entry = a.durability.truncations.entry(reason.clone()).or_default();
                    entry.count += 1;
                    entry.dropped_bytes += *dropped_bytes;
                }
                Event::ShardRpc {
                    phase,
                    frames_sent,
                    frames_recv,
                    bytes_sent,
                    bytes_recv,
                    tasks,
                    ..
                } => {
                    let d = &mut a.distributed;
                    if phase == "setup" {
                        d.setup_frames += frames_sent + frames_recv;
                        d.setup_bytes += bytes_sent + bytes_recv;
                    } else {
                        d.frames += frames_sent + frames_recv;
                        d.bytes += bytes_sent + bytes_recv;
                        d.tasks += tasks;
                        rpc_slots.insert((run_key.clone(), slot));
                    }
                }
                Event::ShardCleared {
                    shard,
                    outcomes,
                    nanos,
                    ..
                } => {
                    shard_clears.entry(*shard).or_default().push(*nanos);
                    a.distributed.clears.entry(*shard).or_default().outcomes += *outcomes;
                }
                Event::ShardDown { shard, reason, .. } => {
                    a.distributed.shard_down.push(DeadShard {
                        run: run_key,
                        slot,
                        shard: *shard,
                        reason: reason.clone(),
                    });
                }
                Event::ConstraintBound { constraint, .. } => {
                    // "ups" or "pdu-<i>": tally by level, not by PDU.
                    let level = constraint.split('-').next().unwrap_or_default();
                    *a.binding.entry(level.to_owned()).or_default() += 1;
                    bound_slots.insert((run_key, slot));
                }
            }
        }

        for stage in PIPELINE_STAGES {
            span_samples.entry(stage.to_owned()).or_default();
        }
        a.stages = span_samples
            .into_iter()
            .map(|(name, samples)| (name, StageStats::from_samples(samples)))
            .collect();
        a.price = SeriesStats::from_samples(&prices);
        a.sold_watts = SeriesStats::from_samples(&sold);
        let utilization: Vec<f64> = predictions
            .iter()
            .filter(|&&(predicted, _, cleared)| cleared && predicted > 0.0)
            .map(|&(predicted, sold, _)| sold / predicted)
            .collect();
        a.utilization = SeriesStats::from_samples(&utilization);
        for (shard, mut samples) in shard_clears {
            samples.sort_unstable();
            let stats = a.distributed.clears.entry(shard).or_default();
            stats.count = samples.len() as u64;
            stats.p50_ns = nearest_rank(&samples, 50);
            stats.p99_ns = nearest_rank(&samples, 99);
        }
        a.distributed.slots = rpc_slots.len() as u64;
        a.distributed.shard_down.sort();
        a.binding_slots = bound_slots.len() as u64;
        a.emergency_slots.sort();
        a.emergency_slots.dedup();
        a.invariant_slots.sort();
        a.invariant_slots.dedup();
        a.fault_clusters = cluster_faults(faults);
        a
    }

    /// Whether the log contains any emergency-class anomaly.
    #[must_use]
    pub fn has_anomalies(&self) -> bool {
        !self.emergency_slots.is_empty() || !self.invariant_slots.is_empty() || self.cap_events > 0
    }

    /// The stage rows both renderers list: the canonical stages first,
    /// in pipeline order, then any other spans alphabetically.
    fn ordered_stages(&self) -> impl Iterator<Item = (&str, &StageStats)> {
        let others = self
            .stages
            .iter()
            .filter(|(name, _)| !PIPELINE_STAGES.contains(&name.as_str()))
            .map(|(name, stats)| (name.as_str(), stats));
        PIPELINE_STAGES
            .iter()
            .map(|stage| (*stage, &self.stages[*stage]))
            .chain(others)
    }

    /// Renders the per-span latency table (count and exact nearest-rank
    /// p50/p90/p99, mean and max in µs): the nine pipeline stages in
    /// order, then every other span seen. The first section of
    /// [`Self::render_text`].
    #[must_use]
    pub fn render_latency(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "-- per-stage latency (µs) --");
        let _ = writeln!(
            out,
            "{:<22} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9}",
            "stage", "count", "p50", "p90", "p99", "mean", "max"
        );
        for (name, stats) in self.ordered_stages() {
            let _ = writeln!(
                out,
                "{:<22} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9}",
                name,
                stats.count,
                micros(stats.p50_ns),
                micros(stats.p90_ns),
                micros(stats.p99_ns),
                micros(stats.mean_ns),
                micros(stats.max_ns)
            );
        }
        out
    }

    /// Renders the human-readable report.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== spotdc-trace ==");
        let _ = writeln!(
            out,
            "events: {} parsed, {} filtered out, {} unknown, {} malformed",
            self.events,
            self.filtered_out,
            self.unknown_events,
            self.malformed.len()
        );
        if let Some((lo, hi)) = self.slot_range {
            let _ = writeln!(out, "slots:  {lo}..={hi}");
        }
        if !self.runs.is_empty() {
            let runs: Vec<&str> = self.runs.iter().map(String::as_str).collect();
            let _ = writeln!(out, "runs:   {}", runs.join(", "));
        }

        out.push('\n');
        out.push_str(&self.render_latency());

        let _ = writeln!(out, "\n-- market --");
        let _ = writeln!(out, "price $/kW/h: {}", self.price.render());
        let _ = writeln!(out, "sold watts:   {}", self.sold_watts.render());
        let _ = writeln!(out, "utilization:  {}", self.utilization.render());
        let levels: Vec<String> = self
            .binding
            .iter()
            .map(|(level, count)| format!("{level} {count}"))
            .collect();
        let _ = writeln!(
            out,
            "binding:      {} slots ({})",
            self.binding_slots,
            if levels.is_empty() {
                "none".to_owned()
            } else {
                levels.join(", ")
            }
        );

        let _ = writeln!(out, "\n-- degradations --");
        if self.degradations.is_empty() {
            let _ = writeln!(out, "(none)");
        }
        for (kind, stats) in &self.degradations {
            let _ = writeln!(
                out,
                "{:<14} count {:>6}  watts {}",
                kind,
                stats.count,
                fmt_f64(stats.watts)
            );
        }

        let _ = writeln!(out, "\n-- durability --");
        if self.durability.is_empty() {
            let _ = writeln!(out, "(no durability telemetry)");
        } else {
            let d = &self.durability;
            let _ = writeln!(
                out,
                "checkpoints: {} ({} bytes, {} ms total)",
                d.checkpoints,
                d.checkpoint_bytes,
                d.checkpoint_nanos / 1_000_000
            );
            let _ = writeln!(
                out,
                "recoveries:  {} ({} slots replayed)",
                d.recoveries, d.replayed_slots
            );
            for (reason, t) in &d.truncations {
                let _ = writeln!(
                    out,
                    "  TRUNCATED slot log ({reason}): {} times, {} bytes dropped",
                    t.count, t.dropped_bytes
                );
            }
        }

        let _ = writeln!(out, "\n-- distributed --");
        if self.distributed.is_empty() {
            let _ = writeln!(out, "(no shard telemetry)");
        } else {
            let d = &self.distributed;
            let _ = writeln!(
                out,
                "rpc: {} frames, {} bytes across {} slots (setup: {} frames, {} bytes)",
                d.frames, d.bytes, d.slots, d.setup_frames, d.setup_bytes
            );
            if d.slots > 0 {
                let _ = writeln!(
                    out,
                    "  frames/slot: {}  bytes/slot: {}",
                    fmt_f64(d.frames as f64 / d.slots as f64),
                    fmt_f64(d.bytes as f64 / d.slots as f64)
                );
            }
            if d.tasks > 0 {
                let _ = writeln!(out, "  tasks: {}", d.tasks);
            }
            for (shard, s) in &d.clears {
                let _ = writeln!(
                    out,
                    "shard {shard}: {} clears, {} outcomes, p50 {} µs, p99 {} µs",
                    s.count,
                    s.outcomes,
                    micros(s.p50_ns),
                    micros(s.p99_ns)
                );
            }
            for dead in &d.shard_down {
                let _ = writeln!(
                    out,
                    "  DOWN shard {} (run {}, slot {}): {}",
                    dead.shard, dead.run, dead.slot, dead.reason
                );
            }
        }

        let _ = writeln!(out, "\n-- anomalies --");
        let _ = writeln!(
            out,
            "emergencies: {}  invariant violations: {}  cap actions: {} (shed {} W)  \
             bid rejections: {}",
            self.emergency_slots.len(),
            self.invariant_slots.len(),
            self.cap_events,
            fmt_f64(self.cap_shed_watts),
            self.bid_rejections
        );
        for site in &self.emergency_slots {
            let _ = writeln!(
                out,
                "  EMERGENCY run {} slot {} ({})",
                site.run, site.slot, site.what
            );
        }
        for site in &self.invariant_slots {
            let _ = writeln!(
                out,
                "  INVARIANT run {} slot {}: {}",
                site.run, site.slot, site.what
            );
        }
        for cluster in &self.fault_clusters {
            let _ = writeln!(
                out,
                "  FAULTS run {} slots {}..={} ({} events: {})",
                cluster.run,
                cluster.first_slot,
                cluster.last_slot,
                cluster.count,
                cluster.kinds.join(", ")
            );
        }
        if !self.malformed.is_empty() {
            let _ = writeln!(out, "\n-- malformed lines --");
            for (line_no, err) in self.malformed.iter().take(10) {
                let _ = writeln!(out, "  line {line_no}: {err}");
            }
            if self.malformed.len() > 10 {
                let _ = writeln!(out, "  ... and {} more", self.malformed.len() - 10);
            }
        }
        out
    }

    /// Renders the machine-readable report as one JSON object.
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"events\":{},\"filtered_out\":{},\"unknown_events\":{},\"malformed\":{}",
            self.events,
            self.filtered_out,
            self.unknown_events,
            self.malformed.len()
        );
        if let Some((lo, hi)) = self.slot_range {
            let _ = write!(out, ",\"slot_range\":[{lo},{hi}]");
        }
        let runs: Vec<String> = self.runs.iter().map(|r| json_str(r)).collect();
        let _ = write!(out, ",\"runs\":[{}]", runs.join(","));

        out.push_str(",\"stages\":[");
        for (i, (name, s)) in self.ordered_stages().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"span\":{},\"count\":{},\"p50_ns\":{},\"p90_ns\":{},\
                 \"p99_ns\":{},\"mean_ns\":{},\"max_ns\":{}}}",
                json_str(name),
                s.count,
                s.p50_ns,
                s.p90_ns,
                s.p99_ns,
                s.mean_ns,
                s.max_ns
            );
        }
        out.push(']');

        let _ = write!(out, ",\"price\":{}", self.price.render_json());
        let _ = write!(out, ",\"sold_watts\":{}", self.sold_watts.render_json());
        let _ = write!(out, ",\"utilization\":{}", self.utilization.render_json());
        let levels: Vec<String> = self
            .binding
            .iter()
            .map(|(level, count)| format!("{}:{count}", json_str(level)))
            .collect();
        let _ = write!(
            out,
            ",\"binding\":{{\"slots\":{},\"levels\":{{{}}}}}",
            self.binding_slots,
            levels.join(",")
        );

        out.push_str(",\"degradations\":{");
        for (i, (kind, stats)) in self.degradations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"count\":{},\"watts\":{}}}",
                json_str(kind),
                stats.count,
                fmt_f64(stats.watts)
            );
        }
        out.push('}');

        out.push_str(",\"durability\":{");
        let d = &self.durability;
        let _ = write!(
            out,
            "\"checkpoints\":{},\"checkpoint_bytes\":{},\"checkpoint_nanos\":{},\
             \"recoveries\":{},\"replayed_slots\":{}",
            d.checkpoints, d.checkpoint_bytes, d.checkpoint_nanos, d.recoveries, d.replayed_slots
        );
        out.push_str(",\"truncations\":{");
        for (i, (reason, t)) in d.truncations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"count\":{},\"dropped_bytes\":{}}}",
                json_str(reason),
                t.count,
                t.dropped_bytes
            );
        }
        out.push_str("}}");

        out.push_str(",\"distributed\":{");
        let dist = &self.distributed;
        let _ = write!(
            out,
            "\"frames\":{},\"bytes\":{},\"setup_frames\":{},\"setup_bytes\":{},\
             \"slots\":{},\"tasks\":{}",
            dist.frames, dist.bytes, dist.setup_frames, dist.setup_bytes, dist.slots, dist.tasks
        );
        out.push_str(",\"shards\":{");
        for (i, (shard, s)) in dist.clears.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{shard}\":{{\"clears\":{},\"outcomes\":{},\"p50_ns\":{},\"p99_ns\":{}}}",
                s.count, s.outcomes, s.p50_ns, s.p99_ns
            );
        }
        out.push_str("},\"shard_down\":[");
        for (i, dead) in dist.shard_down.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"run\":{},\"slot\":{},\"shard\":{},\"reason\":{}}}",
                json_str(&dead.run),
                dead.slot,
                dead.shard,
                json_str(&dead.reason)
            );
        }
        out.push_str("]}");

        out.push_str(",\"anomalies\":{");
        let _ = write!(
            out,
            "\"cap_events\":{},\"cap_shed_watts\":{},\"bid_rejections\":{}",
            self.cap_events,
            fmt_f64(self.cap_shed_watts),
            self.bid_rejections
        );
        out.push_str(",\"emergency_slots\":[");
        for (i, site) in self.emergency_slots.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}", site.render_json());
        }
        out.push_str("],\"invariant_slots\":[");
        for (i, site) in self.invariant_slots.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}", site.render_json());
        }
        out.push_str("],\"fault_clusters\":[");
        for (i, c) in self.fault_clusters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let kinds: Vec<String> = c.kinds.iter().map(|k| json_str(k)).collect();
            let _ = write!(
                out,
                "{{\"run\":{},\"first_slot\":{},\"last_slot\":{},\"count\":{},\"kinds\":[{}]}}",
                json_str(&c.run),
                c.first_slot,
                c.last_slot,
                c.count,
                kinds.join(",")
            );
        }
        out.push_str("]}}");
        out
    }
}

impl AnomalySlot {
    fn render_json(&self) -> String {
        format!(
            "{{\"run\":{},\"slot\":{},\"what\":{}}}",
            json_str(&self.run),
            self.slot,
            json_str(&self.what)
        )
    }
}

impl SeriesStats {
    fn render(&self) -> String {
        if self.count == 0 {
            return "(no samples)".to_owned();
        }
        format!(
            "count {:>6}  min {}  mean {}  max {}",
            self.count,
            fmt_f64(self.min),
            fmt_f64(self.mean),
            fmt_f64(self.max)
        )
    }

    fn render_json(&self) -> String {
        format!(
            "{{\"count\":{},\"min\":{},\"mean\":{},\"max\":{}}}",
            self.count,
            fmt_f64(self.min),
            fmt_f64(self.mean),
            fmt_f64(self.max)
        )
    }
}

/// Whether `run` is `want` or one of its sub-runs (`want/…`): `fig1`
/// keeps `fig1/0` but not `fig14`.
fn is_run_or_sub_run(run: &str, want: &str) -> bool {
    run.strip_prefix(want)
        .is_some_and(|rest| rest.is_empty() || rest.starts_with('/'))
}

/// Groups per-run fault events into maximal consecutive-slot clusters.
fn cluster_faults(faults: BTreeMap<String, Vec<(u64, String)>>) -> Vec<FaultCluster> {
    let mut clusters = Vec::new();
    for (run, mut events) in faults {
        events.sort();
        let mut current: Option<FaultCluster> = None;
        for (slot, kind) in events {
            match current.as_mut() {
                Some(c) if slot <= c.last_slot + 1 => {
                    c.last_slot = slot;
                    c.count += 1;
                    if !c.kinds.contains(&kind) {
                        c.kinds.push(kind);
                    }
                }
                _ => {
                    if let Some(done) = current.take() {
                        clusters.push(done);
                    }
                    current = Some(FaultCluster {
                        run: run.clone(),
                        first_slot: slot,
                        last_slot: slot,
                        count: 1,
                        kinds: vec![kind],
                    });
                }
            }
        }
        if let Some(done) = current {
            clusters.push(done);
        }
    }
    for c in &mut clusters {
        c.kinds.sort();
    }
    clusters
}

/// Nanoseconds rendered as microseconds with 0.1 µs resolution.
fn micros(nanos: u64) -> String {
    format!("{:.1}", nanos as f64 / 1_000.0)
}

/// Deterministic float formatting: fixed 4-decimal precision, so the
/// rendering never depends on shortest-representation quirks.
fn fmt_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.4}")
    } else {
        "0.0000".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use spotdc_units::{MonotonicNanos, Slot};

    use super::*;

    fn line(run: Option<&str>, event: &Event) -> String {
        event.to_jsonl_tagged(run)
    }

    fn span(slot: u64, name: &str, nanos: u64) -> Event {
        Event::SpanClosed {
            slot: Slot::new(slot),
            at: MonotonicNanos::from_raw(slot * 1_000),
            span: name.to_owned(),
            nanos,
        }
    }

    fn cleared(slot: u64, price: f64, sold: f64) -> Event {
        Event::SlotCleared {
            slot: Slot::new(slot),
            at: MonotonicNanos::from_raw(slot * 1_000 + 1),
            price_per_kw_hour: price,
            sold_watts: sold,
            revenue_rate_per_hour: price * sold / 1_000.0,
            candidates_evaluated: 5,
        }
    }

    fn predicted(slot: u64, ups: f64) -> Event {
        Event::PredictionIssued {
            slot: Slot::new(slot),
            at: MonotonicNanos::from_raw(slot * 1_000),
            ups_watts: ups,
            pdu_total_watts: ups * 1.2,
            pdus: 4,
        }
    }

    fn emergency(slot: u64) -> Event {
        Event::EmergencyTriggered {
            slot: Slot::new(slot),
            at: MonotonicNanos::from_raw(slot * 1_000 + 2),
            level: "pdu-1".to_owned(),
            load_watts: 900.0,
            capacity_watts: 800.0,
        }
    }

    fn fault(slot: u64, kind: &str) -> Event {
        Event::FaultInjected {
            slot: Slot::new(slot),
            at: MonotonicNanos::from_raw(slot * 1_000),
            kind: kind.to_owned(),
            target: "rack-1".to_owned(),
        }
    }

    #[test]
    fn every_canonical_stage_is_always_reported() {
        let a = Analysis::from_jsonl("", None);
        assert_eq!(a.events, 0);
        for stage in PIPELINE_STAGES {
            assert_eq!(a.stages[stage], StageStats::default(), "{stage}");
        }
        let text = a.render_text();
        for stage in PIPELINE_STAGES {
            assert!(text.contains(stage), "text must list {stage}");
        }
        let json = a.render_json();
        for stage in PIPELINE_STAGES {
            assert!(json.contains(&format!("\"span\":\"{stage}\"")), "{stage}");
        }
    }

    #[test]
    fn stage_quantiles_are_exact_nearest_rank() {
        let body: String = (1..=100)
            .map(|i| line(None, &span(i, "stage.sense", i * 1_000)) + "\n")
            .collect();
        let a = Analysis::from_jsonl(&body, None);
        let s = &a.stages["stage.sense"];
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_ns, 50_000);
        assert_eq!(s.p90_ns, 90_000);
        assert_eq!(s.p99_ns, 99_000);
        assert_eq!(s.max_ns, 100_000);
        assert_eq!(s.mean_ns, 50_500);
    }

    #[test]
    fn latency_table_lists_stages_then_other_spans_inside_the_report() {
        let body = [
            line(Some("r"), &span(1, "engine.slot", 9_000)),
            line(Some("r"), &span(1, "stage.settle", 2_000)),
            line(Some("r"), &span(1, "clearing", 1_000)),
        ]
        .join("\n");
        let a = Analysis::from_jsonl(&body, None);
        let table = a.render_latency();
        let rows: Vec<Vec<&str>> = table
            .lines()
            .skip(2)
            .map(|row| row.split_whitespace().collect())
            .collect();
        let names: Vec<&str> = rows.iter().map(|row| row[0]).collect();
        let mut want: Vec<&str> = PIPELINE_STAGES.to_vec();
        want.extend(["clearing", "engine.slot"]);
        assert_eq!(names, want);
        assert_eq!(
            rows.last().unwrap()[1..],
            ["1", "9.0", "9.0", "9.0", "9.0", "9.0"]
        );
        assert!(a.render_text().contains(&table));
    }

    #[test]
    fn single_sample_quantiles_collapse_to_it() {
        let body = line(None, &span(1, "stage.settle", 777));
        let a = Analysis::from_jsonl(&body, None);
        let s = &a.stages["stage.settle"];
        assert_eq!(
            (s.p50_ns, s.p90_ns, s.p99_ns, s.max_ns),
            (777, 777, 777, 777)
        );
    }

    #[test]
    fn utilization_joins_clearing_and_prediction_per_slot() {
        let body = [
            line(Some("a"), &predicted(1, 1_000.0)),
            line(Some("a"), &cleared(1, 0.2, 600.0)),
            // Per-PDU clearing: two sub-market events in one slot sum.
            line(Some("a"), &predicted(2, 1_000.0)),
            line(Some("a"), &cleared(2, 0.2, 300.0)),
            line(Some("a"), &cleared(2, 0.2, 500.0)),
            // Prediction without clearing: no utilization sample.
            line(Some("a"), &predicted(3, 1_000.0)),
            // Same slot in another run joins separately.
            line(Some("b"), &predicted(1, 2_000.0)),
            line(Some("b"), &cleared(1, 0.1, 400.0)),
        ]
        .join("\n");
        let a = Analysis::from_jsonl(&body, None);
        assert_eq!(a.utilization.count, 3);
        assert!((a.utilization.min - 0.2).abs() < 1e-12, "run b: 400/2000");
        assert!(
            (a.utilization.max - 0.8).abs() < 1e-12,
            "run a slot 2: 800/1000"
        );
        assert_eq!(a.price.count, 4);
        assert_eq!(a.runs.len(), 2);
    }

    #[test]
    fn sub_runs_at_the_same_slot_read_apart() {
        let body = [
            line(Some("x/0"), &predicted(5, 100.0)),
            line(Some("x/1"), &predicted(5, 100.0)),
            line(Some("x/0"), &cleared(5, 0.2, 60.0)),
            line(Some("x/1"), &cleared(5, 0.2, 60.0)),
        ]
        .join("\n");
        let a = Analysis::from_jsonl(&body, Some("x"));
        assert_eq!(a.utilization.count, 2);
        assert!((a.utilization.max - 0.6).abs() < 1e-12, "not 120/100");
    }

    #[test]
    fn each_clearing_pairs_with_its_own_prediction() {
        // A price-oracle pre-pass predicts and clears twice in a slot.
        let body = [
            line(Some("o"), &predicted(3, 1_000.0)),
            line(Some("o"), &cleared(3, 0.2, 500.0)),
            line(Some("o"), &predicted(3, 1_000.0)),
            line(Some("o"), &cleared(3, 0.2, 400.0)),
            // A clearing with no prediction of its slot reads nothing.
            line(Some("o"), &cleared(4, 0.2, 400.0)),
        ]
        .join("\n");
        let a = Analysis::from_jsonl(&body, None);
        assert_eq!(a.utilization.count, 2);
        assert!((a.utilization.min - 0.4).abs() < 1e-12);
        assert!((a.utilization.max - 0.5).abs() < 1e-12);
    }

    #[test]
    fn run_filter_keeps_only_the_requested_run() {
        let body = [
            line(Some("fig12"), &cleared(1, 0.2, 100.0)),
            line(Some("fig14"), &cleared(2, 0.3, 200.0)),
            line(None, &cleared(3, 0.4, 300.0)),
        ]
        .join("\n");
        let a = Analysis::from_jsonl(&body, Some("fig12"));
        assert_eq!(a.events, 1);
        assert_eq!(a.filtered_out, 2);
        assert_eq!(a.slot_range, Some((1, 1)));
    }

    #[test]
    fn run_filter_keeps_sub_runs_on_the_slash_boundary() {
        let body = [
            line(Some("x"), &cleared(1, 0.2, 100.0)),
            line(Some("x/1"), &cleared(2, 0.2, 100.0)),
            line(Some("x1"), &cleared(3, 0.2, 100.0)),
        ]
        .join("\n");
        let a = Analysis::from_jsonl(&body, Some("x"));
        assert_eq!(a.events, 2);
        assert_eq!(a.filtered_out, 1);
        assert_eq!(a.runs.iter().collect::<Vec<_>>(), ["x", "x/1"]);
    }

    #[test]
    fn anomalies_are_flagged_and_deduped() {
        let body = [
            line(Some("r"), &emergency(7)),
            line(Some("r"), &emergency(7)), // duplicate: deduped
            line(
                Some("r"),
                &Event::InvariantViolated {
                    slot: Slot::new(9),
                    at: MonotonicNanos::from_raw(9_000),
                    violation: "pdu-0 over".to_owned(),
                },
            ),
            line(
                None,
                &Event::CapApplied {
                    slot: Slot::new(8),
                    at: MonotonicNanos::from_raw(8_000),
                    level: "ups".to_owned(),
                    shed_watts: 42.0,
                    capped_watts: 0.0,
                },
            ),
        ]
        .join("\n");
        let a = Analysis::from_jsonl(&body, None);
        assert!(a.has_anomalies());
        assert_eq!(a.emergency_slots.len(), 1);
        assert_eq!(a.emergency_slots[0].slot, 7);
        assert_eq!(a.invariant_slots.len(), 1);
        assert_eq!(a.cap_events, 1);
        assert!((a.cap_shed_watts - 42.0).abs() < 1e-12);
        let text = a.render_text();
        assert!(text.contains("EMERGENCY run r slot 7 (pdu-1 +12.50 %)"));
        assert!(text.contains("INVARIANT run r slot 9"));
    }

    #[test]
    fn fault_clusters_merge_consecutive_slots_per_run() {
        let body = [
            line(Some("r"), &fault(5, "meter-dropout")),
            line(Some("r"), &fault(6, "bid-late")),
            line(Some("r"), &fault(6, "meter-dropout")),
            line(Some("r"), &fault(10, "meter-dropout")),
            line(Some("s"), &fault(6, "predictor-down")),
        ]
        .join("\n");
        let a = Analysis::from_jsonl(&body, None);
        assert_eq!(a.fault_clusters.len(), 3);
        let c0 = &a.fault_clusters[0];
        assert_eq!((c0.first_slot, c0.last_slot, c0.count), (5, 6, 3));
        assert_eq!(c0.kinds, vec!["bid-late", "meter-dropout"]);
        assert_eq!(a.fault_clusters[1].first_slot, 10);
        assert_eq!(a.fault_clusters[2].run, "s");
    }

    #[test]
    fn durability_events_are_tallied_and_rendered() {
        let body = [
            line(
                Some("r"),
                &Event::CheckpointWritten {
                    slot: Slot::new(49),
                    at: MonotonicNanos::from_raw(49_000),
                    bytes: 10_000,
                    nanos: 2_000_000,
                },
            ),
            line(
                Some("r"),
                &Event::CheckpointWritten {
                    slot: Slot::new(99),
                    at: MonotonicNanos::from_raw(99_000),
                    bytes: 12_000,
                    nanos: 3_000_000,
                },
            ),
            line(
                Some("r"),
                &Event::JournalTruncated {
                    slot: Slot::new(73),
                    at: MonotonicNanos::from_raw(73_000),
                    reason: "torn".to_owned(),
                    dropped_bytes: 41,
                },
            ),
            line(
                Some("r"),
                &Event::RecoveryPerformed {
                    slot: Slot::new(73),
                    at: MonotonicNanos::from_raw(73_001),
                    snapshot_slot: 50,
                    replayed_slots: 23,
                },
            ),
        ]
        .join("\n");
        let a = Analysis::from_jsonl(&body, None);
        assert_eq!(a.durability.checkpoints, 2);
        assert_eq!(a.durability.checkpoint_bytes, 22_000);
        assert_eq!(a.durability.recoveries, 1);
        assert_eq!(a.durability.replayed_slots, 23);
        assert_eq!(a.durability.truncations["torn"].dropped_bytes, 41);
        let text = a.render_text();
        assert!(
            text.contains("checkpoints: 2 (22000 bytes, 5 ms total)"),
            "{text}"
        );
        assert!(
            text.contains("recoveries:  1 (23 slots replayed)"),
            "{text}"
        );
        assert!(
            text.contains("TRUNCATED slot log (torn): 1 times, 41 bytes dropped"),
            "{text}"
        );
        let json = a.render_json();
        assert!(
            json.contains(
                "\"durability\":{\"checkpoints\":2,\"checkpoint_bytes\":22000,\
                 \"checkpoint_nanos\":5000000,\"recoveries\":1,\"replayed_slots\":23,\
                 \"truncations\":{\"torn\":{\"count\":1,\"dropped_bytes\":41}}}"
            ),
            "{json}"
        );
        // Logs without durability telemetry still render the header.
        let empty = Analysis::from_jsonl("", None).render_text();
        assert!(empty.contains("(no durability telemetry)"), "{empty}");
    }

    #[test]
    fn malformed_lines_are_counted_not_fatal() {
        let body = format!(
            "not json\n{}\n\n{{\"slot\":4,\"t_ns\":1,\"event\":\"Nope\"}}",
            line(None, &cleared(1, 0.1, 1.0))
        );
        let a = Analysis::from_jsonl(&body, None);
        assert_eq!(a.events, 1);
        // An unknown tag is a *newer* log, not a broken one: counted
        // separately from truly malformed lines.
        assert_eq!(a.unknown_events, 1);
        assert_eq!(a.malformed.len(), 1);
        assert_eq!(a.malformed[0].0, 1);
        let text = a.render_text();
        assert!(
            text.contains("events: 1 parsed, 0 filtered out, 1 unknown, 1 malformed"),
            "{text}"
        );
        assert!(
            a.render_json().contains("\"unknown_events\":1"),
            "{}",
            a.render_json()
        );
    }

    #[test]
    fn a_malformed_line_that_mimics_the_unknown_tag_message_stays_malformed() {
        // The unknown/malformed split is made on the parse error's
        // type, so no wording of a damaged line — or of the description
        // the parser gives it — can promote it to "a newer writer's
        // event".
        let body = "unknown event tag \"Nope\"\n{\"unknown event tag\"}";
        let a = Analysis::from_jsonl(body, None);
        assert_eq!(a.unknown_events, 0);
        assert_eq!(a.malformed.len(), 2, "{:?}", a.malformed);
    }

    #[test]
    fn shard_rpc_traffic_and_clears_are_tallied() {
        let rpc = |slot: u64, phase: &str, frames: u64, bytes: u64, tasks: u64| Event::ShardRpc {
            slot: Slot::new(slot),
            at: MonotonicNanos::from_raw(slot * 1_000 + 4),
            phase: phase.to_owned(),
            frames_sent: frames,
            frames_recv: frames,
            bytes_sent: bytes,
            bytes_recv: bytes / 2,
            tasks,
        };
        let cleared = |slot: u64, shard: u64, outcomes: u64, nanos: u64| Event::ShardCleared {
            slot: Slot::new(slot),
            at: MonotonicNanos::from_raw(slot * 1_000 + 5),
            shard,
            outcomes,
            nanos,
        };
        let body = [
            line(Some("r"), &rpc(0, "setup", 2, 300, 0)),
            line(Some("r"), &rpc(1, "slot", 2, 600, 3)),
            line(Some("r"), &rpc(2, "slot", 2, 400, 3)),
            line(Some("r"), &cleared(1, 0, 2, 40_000)),
            line(Some("r"), &cleared(2, 0, 2, 60_000)),
            line(Some("r"), &cleared(1, 1, 1, 90_000)),
            line(
                Some("r"),
                &Event::ShardDown {
                    slot: Slot::new(2),
                    at: MonotonicNanos::from_raw(2_006),
                    shard: 1,
                    reason: "slot frame send failed: broken pipe".to_owned(),
                },
            ),
        ]
        .join("\n");
        let a = Analysis::from_jsonl(&body, None);
        let d = &a.distributed;
        assert_eq!(d.frames, 8);
        assert_eq!(d.bytes, 1_500);
        assert_eq!(d.setup_frames, 4);
        assert_eq!(d.setup_bytes, 450);
        assert_eq!(d.slots, 2);
        assert_eq!(d.tasks, 6);
        assert_eq!(d.clears[&0].count, 2);
        assert_eq!(d.clears[&0].outcomes, 4);
        assert_eq!(d.clears[&0].p50_ns, 40_000);
        assert_eq!(d.clears[&0].p99_ns, 60_000);
        assert_eq!(d.clears[&1].count, 1);
        assert_eq!(d.clears[&1].p50_ns, 90_000);
        assert_eq!(
            d.shard_down,
            vec![DeadShard {
                run: "r".to_owned(),
                slot: 2,
                shard: 1,
                reason: "slot frame send failed: broken pipe".to_owned(),
            }]
        );
        let text = a.render_text();
        assert!(
            text.contains("rpc: 8 frames, 1500 bytes across 2 slots (setup: 4 frames, 450 bytes)"),
            "{text}"
        );
        assert!(
            text.contains("frames/slot: 4.0000  bytes/slot: 750.0000"),
            "{text}"
        );
        assert!(text.contains("\n  tasks: 6\n"), "{text}");
        assert!(
            text.contains("shard 0: 2 clears, 4 outcomes, p50 40.0 µs, p99 60.0 µs"),
            "{text}"
        );
        assert!(
            text.contains("  DOWN shard 1 (run r, slot 2): slot frame send failed: broken pipe\n"),
            "{text}"
        );
        let json = a.render_json();
        assert!(
            json.contains(
                "\"distributed\":{\"frames\":8,\"bytes\":1500,\
                 \"setup_frames\":4,\"setup_bytes\":450,\
                 \"slots\":2,\"tasks\":6,\
                 \"shards\":{\"0\":{\"clears\":2,\"outcomes\":4,\"p50_ns\":40000,\"p99_ns\":60000},\
                 \"1\":{\"clears\":1,\"outcomes\":1,\"p50_ns\":90000,\"p99_ns\":90000}},\
                 \"shard_down\":[{\"run\":\"r\",\"slot\":2,\"shard\":1,\
                 \"reason\":\"slot frame send failed: broken pipe\"}]}"
            ),
            "{json}"
        );
        // Serial logs still render the section header.
        let empty = Analysis::from_jsonl("", None).render_text();
        assert!(empty.contains("(no shard telemetry)"), "{empty}");
    }

    #[test]
    fn bound_constraints_are_tallied_by_level() {
        let bound = |slot: u64, constraint: &str| Event::ConstraintBound {
            slot: Slot::new(slot),
            at: MonotonicNanos::from_raw(slot * 1_000 + 6),
            constraint: constraint.to_owned(),
            limit_watts: 1_000.0,
        };
        let body = [
            line(Some("r"), &bound(1, "pdu-0")),
            line(Some("r"), &bound(1, "pdu-12")),
            line(Some("r"), &bound(1, "ups")),
            line(Some("r"), &bound(2, "pdu-3")),
            // Same slot index, another run: its own (run, slot) pair.
            line(Some("q"), &bound(2, "ups")),
            line(Some("r"), &cleared(3, 0.2, 100.0)),
        ]
        .join("\n");
        let a = Analysis::from_jsonl(&body, None);
        assert_eq!(a.binding["pdu"], 3);
        assert_eq!(a.binding["ups"], 2);
        assert_eq!(a.binding.len(), 2);
        assert_eq!(a.binding_slots, 3);
        let text = a.render_text();
        assert!(
            text.contains("\nbinding:      3 slots (pdu 3, ups 2)\n"),
            "{text}"
        );
        let json = a.render_json();
        assert!(
            json.contains("\"binding\":{\"slots\":3,\"levels\":{\"pdu\":3,\"ups\":2}}"),
            "{json}"
        );
        // The run filter applies to the tally like to everything else.
        let q = Analysis::from_jsonl(&body, Some("q"));
        assert_eq!((q.binding.get("pdu"), q.binding["ups"]), (None, 1));
        assert_eq!(q.binding_slots, 1);
        // A log with no bound constraint still prints the line.
        let empty = Analysis::from_jsonl("", None);
        assert!(
            empty.render_text().contains("binding:      0 slots (none)"),
            "{}",
            empty.render_text()
        );
        assert!(
            empty
                .render_json()
                .contains("\"binding\":{\"slots\":0,\"levels\":{}}"),
            "{}",
            empty.render_json()
        );
    }

    #[test]
    fn rendering_is_deterministic() {
        let body = [
            line(Some("r"), &span(1, "stage.sense", 1_000)),
            line(Some("r"), &cleared(1, 0.2, 100.0)),
            line(Some("r"), &emergency(2)),
            line(Some("r"), &fault(3, "meter-dropout")),
        ]
        .join("\n");
        let a1 = Analysis::from_jsonl(&body, None);
        let a2 = Analysis::from_jsonl(&body, None);
        assert_eq!(a1, a2);
        assert_eq!(a1.render_text(), a2.render_text());
        assert_eq!(a1.render_json(), a2.render_json());
    }

    #[test]
    fn json_report_parses_as_flat_fields() {
        // Not a full JSON validator (the workspace has none); spot-check
        // the envelope and a couple of fields.
        let body = line(None, &cleared(1, 0.25, 500.0));
        let json = Analysis::from_jsonl(&body, None).render_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"events\":1"), "{json}");
        assert!(
            json.contains("\"price\":{\"count\":1,\"min\":0.2500"),
            "{json}"
        );
        assert!(json.contains("\"emergency_slots\":[]"), "{json}");
    }
}
