//! Direct-call layer rows: each function times public calls into one
//! crate/module on inputs taken from the run itself (scenario agents
//! and load traces, bid books captured after `Predict`) and writes the
//! layer's metrics. No crate is edited; everything is measured from
//! outside.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use spotdc_core::demand::{DemandBid, LinearBid};
use spotdc_core::{
    check_allocation, max_perf_allocate, ClearingCacheStats, ClearingConfig, MarketClearing,
    MarketOutcome, Operator, OperatorConfig, PredictionScratch, RackBid,
};
use spotdc_faults::{FaultConfig, FaultPlan};
use spotdc_power::topology::PowerTopology;
use spotdc_power::{CapConfig, CapController, PowerMeter, RackPduBank};
use spotdc_sim::experiments::fig7b;
use spotdc_sim::pipeline::METER_HISTORY_LEN;
use spotdc_sim::Scenario;
use spotdc_telemetry::{Event, EventSink, TelemetryConfig};
use spotdc_units::{MonotonicNanos, Slot, Watts};

use crate::schema::MetricSet;
use crate::slotloop::Capture;
use crate::stats;

/// Calls each microbenchmark row aims for, so a row costs milliseconds
/// on the testbed and stays under a second at 15 000 tenants.
const TARGET_CALLS: usize = 40_000;

fn secs(f: impl FnOnce()) -> f64 {
    let started = Instant::now();
    f();
    started.elapsed().as_secs_f64()
}

/// `tenants`: agent and model calls over clones of the scenario's
/// agents, each slot observing its intensity from the load trace first
/// (as `Sense` does), so valuation caches miss exactly as in a run.
pub fn tenants(scenario: &Scenario, slots: u64, m: &mut MetricSet) {
    let traces = scenario.traces(slots as usize);
    let n = scenario.agents.len();
    if n == 0 {
        return;
    }
    let passes = (TARGET_CALLS / n).clamp(1, slots as usize);
    let calls = (passes * n) as f64;
    let observe = |agents: &mut [spotdc_tenants::TenantAgent], t: usize| {
        for (i, agent) in agents.iter_mut().enumerate() {
            agent.observe(traces.loads[i][t]);
        }
    };

    let mut agents = scenario.agents.clone();
    let (mut bid_secs, mut bids) = (0.0, 0usize);
    for t in 0..passes {
        observe(&mut agents, t);
        bid_secs += secs(|| {
            bids += agents
                .iter_mut()
                .filter_map(spotdc_tenants::TenantAgent::make_bid)
                .count();
        });
    }
    m.set("tenants.make_bid.us_per_agent", bid_secs * 1e6 / calls);
    m.set("tenants.make_bid.bid_share", bids as f64 / calls);

    let mut agents = scenario.agents.clone();
    let mut gain_secs = 0.0;
    for t in 0..passes {
        observe(&mut agents, t);
        gain_secs += secs(|| {
            for agent in &mut agents {
                if agent.wants_spot() {
                    black_box(agent.gain_curve());
                }
            }
        });
    }
    m.set("tenants.gain_curve.us_per_agent", gain_secs * 1e6 / calls);

    let (mut run_secs, mut model_gain_secs, mut model_draw_secs) = (0.0, 0.0, 0.0);
    for t in 0..passes {
        observe(&mut agents, t);
        run_secs += secs(|| {
            for agent in &agents {
                black_box(agent.run_slot(agent.reserved()));
            }
        });
        model_gain_secs += secs(|| {
            for a in &agents {
                black_box(
                    a.model()
                        .gain_curve(a.reserved(), a.headroom(), a.intensity()),
                );
            }
        });
        model_draw_secs += secs(|| {
            for a in &agents {
                black_box(a.model().power_draw(a.reserved(), a.intensity()));
            }
        });
    }
    m.set("tenants.run_slot.us_per_agent", run_secs * 1e6 / calls);
    m.set(
        "tenants.model.gain_curve.us_per_call",
        model_gain_secs * 1e6 / calls,
    );
    m.set(
        "tenants.model.power_draw.us_per_call",
        model_draw_secs * 1e6 / calls,
    );
}

/// `power`: the meter's record / per-PDU read-back, and (when the
/// workload arms it) the cap controller's per-slot enforcement pass.
pub fn power(topology: &PowerTopology, cap: Option<CapConfig>, m: &mut MetricSet) {
    let racks = topology.rack_count();
    let passes = (TARGET_CALLS / racks.max(1)).max(2);
    let mut meter =
        PowerMeter::new(topology, METER_HISTORY_LEN).expect("history length is positive");
    let record_secs = secs(|| {
        for pass in 0..passes {
            let slot = Slot::new(pass as u64);
            for rack in topology.racks() {
                meter.record(slot, rack.id(), rack.guaranteed() * 0.8);
            }
        }
    });
    m.set(
        "power.meter.record.ns_per_rack",
        record_secs * 1e9 / (passes * racks) as f64,
    );
    let mut out = Vec::new();
    let read_secs = secs(|| {
        for _ in 0..passes {
            meter.pdu_powers_into(&mut out);
            black_box(&out);
        }
    });
    m.set(
        "power.meter.pdu_powers_into.us",
        read_secs * 1e6 / passes as f64,
    );

    if let Some(config) = cap {
        let mut controller = CapController::new(topology, config);
        let mut bank = RackPduBank::new(topology);
        meter.pdu_powers_into(&mut out);
        let enforce_secs = secs(|| {
            for pass in 0..passes {
                black_box(controller.enforce(Slot::new(pass as u64), &out, &mut bank));
            }
        });
        m.set(
            "power.cap.enforce.us_per_slot",
            enforce_secs * 1e6 / passes as f64,
        );
    }
}

/// `core.operator`: admission and the one-call Algorithm 1 round on the
/// recorded `TenantBid` books.
pub fn operator(
    topology: &PowerTopology,
    config: OperatorConfig,
    captures: &[Capture],
    m: &mut MetricSet,
) {
    if captures.is_empty() {
        return;
    }
    let operator = Operator::new(topology.clone(), config);
    let (mut admitted, mut requested) = (0usize, 0usize);
    let mut rack_bids = Vec::new();
    let mut rejected = Vec::new();
    let admit_secs = secs(|| {
        for c in captures {
            rack_bids.clear();
            rejected.clear();
            operator.admit_bids_into(c.slot, &c.bids, &mut rack_bids, &mut rejected);
            admitted += rack_bids.len();
            requested += rack_bids.len() + rejected.len();
        }
    });
    let slots = captures.len() as f64;
    m.set("core.operator.admit.ms_per_slot", admit_secs * 1e3 / slots);
    if requested > 0 {
        m.set(
            "core.operator.admitted_share",
            admitted as f64 / requested as f64,
        );
    }
    let round_secs = secs(|| {
        for c in captures {
            black_box(operator.run_slot(c.slot, &c.bids, &c.meter));
        }
    });
    m.set("core.operator.run_slot.ms", round_secs * 1e3 / slots);
}

/// `core.prediction`: Eqns. 1–4 from the captured meter, uncached and
/// through a scratch that is warm from the previous captured slot.
pub fn prediction(
    topology: &PowerTopology,
    config: OperatorConfig,
    captures: &[Capture],
    m: &mut MetricSet,
) {
    if captures.is_empty() {
        return;
    }
    let predictor = config.predictor;
    let slots = captures.len() as f64;
    let plain_secs = secs(|| {
        for c in captures {
            black_box(predictor.predict(topology, &c.meter, c.requesting.iter().copied()));
        }
    });
    m.set(
        "core.prediction.predict.ms_per_slot",
        plain_secs * 1e3 / slots,
    );
    let mut scratch = PredictionScratch::new();
    let first = &captures[0];
    black_box(predictor.predict_cached(
        topology,
        &first.meter,
        first.requesting.iter().copied(),
        &mut scratch,
    ));
    let cached_secs = secs(|| {
        for c in captures {
            black_box(predictor.predict_cached(
                topology,
                &c.meter,
                c.requesting.iter().copied(),
                &mut scratch,
            ));
        }
    });
    m.set(
        "core.prediction.predict_cached.ms_per_slot",
        cached_secs * 1e3 / slots,
    );
}

/// Writes the sweep-mode tallies of one engine.
pub fn clearing_tallies(stats: ClearingCacheStats, m: &mut MetricSet) {
    m.set("core.clearing.full_sweeps", stats.full_sweeps as f64);
    m.set("core.clearing.cache_hits", stats.cache_hits as f64);
    m.set("core.clearing.delta_sweeps", stats.delta_sweeps as f64);
    m.set("core.clearing.legacy_scans", stats.legacy_scans as f64);
    if stats.candidates_total > 0 {
        m.set(
            "core.clearing.swept_share",
            stats.candidates_swept as f64 / stats.candidates_total as f64,
        );
    }
}

/// Writes the clear-latency percentiles from per-clear milliseconds.
pub fn clear_latency(clear_ms: &[f64], m: &mut MetricSet) {
    m.set("core.clearing.clear.p50_ms", stats::median(clear_ms));
    m.set("core.clearing.clear.tail_ms", stats::tail(clear_ms).1);
}

/// `core.clearing`, uniform market: the captured books through one
/// warm engine, in slot order. Returns the outcomes for the invariant
/// row.
pub fn clearing_uniform(
    config: ClearingConfig,
    captures: &[Capture],
    m: &mut MetricSet,
) -> Vec<MarketOutcome> {
    let engine = MarketClearing::new(config);
    let mut clear_ms = Vec::with_capacity(captures.len());
    let outcomes = captures
        .iter()
        .map(|c| {
            let started = Instant::now();
            let outcome = engine.clear(c.slot, &c.rack_bids, &c.constraints);
            clear_ms.push(started.elapsed().as_secs_f64() * 1e3);
            outcome
        })
        .collect();
    clear_latency(&clear_ms, m);
    outcomes
}

/// `core.clearing`, per-PDU pricing: the split alone (the constraint-set
/// clones), the one-call `clear_per_pdu`, and every sub-market clear
/// timed on its own. Tallies come from the one-call engine, which sees
/// exactly the sequence the serial `ClearPerPdu` stage sees.
pub fn clearing_per_pdu(config: ClearingConfig, captures: &[Capture], m: &mut MetricSet) {
    if captures.is_empty() {
        return;
    }
    let slots = captures.len() as f64;
    let one_call = MarketClearing::new(config);
    let mut submarkets = 0usize;
    let one_call_secs = secs(|| {
        for c in captures {
            submarkets += one_call
                .clear_per_pdu(c.slot, &c.rack_bids, &c.constraints)
                .len();
        }
    });
    m.set(
        "core.clearing.per_pdu.ms_per_slot",
        one_call_secs * 1e3 / slots,
    );
    m.set(
        "core.clearing.per_pdu.submarkets_per_slot",
        submarkets as f64 / slots,
    );
    clearing_tallies(one_call.cache_stats(), m);

    let each = MarketClearing::new(config);
    let mut split_secs = 0.0;
    let mut clear_ms = Vec::with_capacity(submarkets);
    for c in captures {
        let started = Instant::now();
        let split = each.per_pdu_submarkets(&c.rack_bids, &c.constraints);
        split_secs += started.elapsed().as_secs_f64();
        for (group, local) in &split {
            let started = Instant::now();
            black_box(each.clear(c.slot, group, local));
            clear_ms.push(started.elapsed().as_secs_f64() * 1e3);
        }
    }
    m.set(
        "core.clearing.per_pdu_split.ms_per_slot",
        split_secs * 1e3 / slots,
    );
    clear_latency(&clear_ms, m);
}

/// `core.clearing` continuity rows on `fig7b::synthetic_market`: what
/// each resolution mode costs *when* it fires, beside how often it
/// fires on real books. Same recipe as `bench_slots`' clearing section.
pub fn clearing_synthetic(racks: usize, seed: u64, m: &mut MetricSet) {
    const ITERS: usize = 6;
    let (_, bids, cs) = fig7b::synthetic_market(racks, seed);
    let (_, other, _) = fig7b::synthetic_market(racks, seed.wrapping_add(1));
    let config = ClearingConfig::default();
    let per_clear_ms = |total_secs: f64| total_secs * 1e3 / ITERS as f64;

    let engine = MarketClearing::new(config);
    black_box(engine.clear(Slot::ZERO, &bids, &cs));
    let full_secs = secs(|| {
        for i in 0..ITERS {
            let book = if i % 2 == 0 { &other } else { &bids };
            black_box(engine.clear(Slot::new(i as u64 + 1), book, &cs));
        }
    });
    m.set("core.clearing.synth15k.full_ms", per_clear_ms(full_secs));

    let engine = MarketClearing::new(config);
    black_box(engine.clear(Slot::ZERO, &bids, &cs));
    let hit_secs = secs(|| {
        for i in 0..ITERS {
            black_box(engine.clear(Slot::new(i as u64 + 1), &bids, &cs));
        }
    });
    m.set("core.clearing.synth15k.hit_ms", per_clear_ms(hit_secs));

    let engine = MarketClearing::new(config);
    let mut drifting = bids.clone();
    black_box(engine.clear(Slot::ZERO, &drifting, &cs));
    let mut delta_secs = 0.0;
    for i in 0..ITERS {
        let v = (i * 7919) % drifting.len();
        if let DemandBid::Linear(b) = drifting[v].demand() {
            let nudged =
                LinearBid::new(b.d_max() + Watts::new(0.5), b.q_min(), b.d_min(), b.q_max())
                    .expect("growing d_max keeps the bid ordered");
            drifting[v] = RackBid::new(drifting[v].rack(), nudged.into());
        }
        delta_secs += secs(|| {
            black_box(engine.clear(Slot::new(i as u64 + 1), &drifting, &cs));
        });
    }
    m.set("core.clearing.synth15k.delta_ms", per_clear_ms(delta_secs));

    // A zone no grant set can reach: it never binds, it only forces the
    // legacy per-candidate scan.
    let zoned = cs.clone().with_zone(
        "bench",
        bids.iter().take(64).map(RackBid::rack).collect(),
        Watts::new(1e12),
    );
    // The legacy scan costs ~0.7 s a clear, next to which a cold
    // scratch pool is nothing: one unwarmed clear of each book is the
    // whole row.
    let engine = MarketClearing::new(config);
    let zoned_secs = secs(|| {
        for (i, book) in [&other, &bids].into_iter().enumerate() {
            black_box(engine.clear(Slot::new(i as u64), book, &zoned));
        }
    });
    m.set("core.clearing.synth15k.zoned_ms", zoned_secs * 1e3 / 2.0);
}

/// `core.maxperf`: water-filling on the captured gain envelopes.
pub fn maxperf(captures: &[Capture], m: &mut MetricSet) {
    let with_gains: Vec<&Capture> = captures.iter().filter(|c| !c.gains.is_empty()).collect();
    if with_gains.is_empty() {
        return;
    }
    let total = secs(|| {
        for c in &with_gains {
            black_box(max_perf_allocate(&c.gains, &c.constraints));
        }
    });
    m.set(
        "core.maxperf.allocate.ms_per_slot",
        total * 1e3 / with_gains.len() as f64,
    );
}

/// `core.invariant`: the Eqn. 1–4 checker on each captured book's
/// outcome. Returns the violations found (the caller fails on any).
pub fn invariant(captures: &[Capture], outcomes: &[MarketOutcome], m: &mut MetricSet) -> usize {
    if captures.is_empty() {
        return 0;
    }
    let mut violations = 0usize;
    let total = secs(|| {
        for (c, outcome) in captures.iter().zip(outcomes) {
            violations +=
                check_allocation(&c.constraints, outcome.allocation(), &c.rack_bids, true).len();
        }
    });
    m.set(
        "core.invariant.check.ms_per_slot",
        total * 1e3 / captures.len() as f64,
    );
    violations
}

/// `durable` read side: journal and newest-checkpoint reads over the
/// directory the traced loop just wrote.
pub fn durable_reads(dir: &Path, m: &mut MetricSet) -> std::io::Result<()> {
    const READS: usize = 5;
    let wal_path = dir.join("journal.wal");
    let started = Instant::now();
    for _ in 0..READS {
        black_box(spotdc_durable::read_wal(&wal_path)?);
    }
    m.set(
        "durable.read_wal.ms",
        started.elapsed().as_secs_f64() * 1e3 / READS as f64,
    );
    let started = Instant::now();
    for _ in 0..READS {
        black_box(spotdc_durable::load_latest(dir)?);
    }
    m.set(
        "durable.load_latest.ms",
        started.elapsed().as_secs_f64() * 1e3 / READS as f64,
    );
    Ok(())
}

/// The span fast path every hot loop pays even with telemetry off.
pub fn span_disabled(m: &mut MetricSet) {
    const SPANS: usize = 1_000_000;
    let was = spotdc_telemetry::is_enabled();
    spotdc_telemetry::set_enabled(false);
    let total = secs(|| {
        for _ in 0..SPANS {
            drop(black_box(spotdc_telemetry::span!("bench.span")));
        }
    });
    spotdc_telemetry::set_enabled(was);
    m.set("telemetry.span.ns_disabled", total * 1e9 / SPANS as f64);
}

fn bench_event(i: u64) -> Event {
    Event::SpanClosed {
        slot: Slot::new(i),
        at: MonotonicNanos::now(),
        span: "stage.settle".to_owned(),
        nanos: i,
    }
}

/// `telemetry` / `obs` / `faults` micro rows. Re-installs `file_sink`
/// before returning, so the process leaves as it entered: enabled, to
/// the file.
pub fn telemetry(
    file_sink: &Arc<dyn EventSink>,
    jsonl: &Path,
    fault_config: FaultConfig,
    topology: &PowerTopology,
    m: &mut MetricSet,
) -> std::io::Result<()> {
    const EVENTS: u64 = 100_000;
    const SPANS: usize = 200_000;
    let armed = crate::workloads::armed_telemetry();

    spotdc_telemetry::install(TelemetryConfig {
        sink: spotdc_telemetry::SinkKind::Null,
        ..armed
    });
    let null_secs = secs(|| {
        for i in 0..EVENTS {
            spotdc_telemetry::emit(bench_event(i));
        }
    });
    m.set(
        "telemetry.emit.ns_per_event",
        null_secs * 1e9 / EVENTS as f64,
    );
    let span_secs = secs(|| {
        for _ in 0..SPANS {
            drop(black_box(spotdc_telemetry::span!("bench.span")));
        }
    });
    m.set("telemetry.span.ns_enabled", span_secs * 1e9 / SPANS as f64);

    // The analyzer reads the run's own log as it stood before the
    // synthetic file-emit events below are appended to it.
    spotdc_telemetry::install_with_sink(armed, Arc::clone(file_sink));
    spotdc_telemetry::flush();
    let body = std::fs::read_to_string(jsonl)?;
    let started = Instant::now();
    let analysis = spotdc_obs::Analysis::from_jsonl(&body, None);
    let analyze_secs = started.elapsed().as_secs_f64();
    if analysis.events > 0 {
        m.set(
            "obs.analyze.events_per_sec",
            analysis.events as f64 / analyze_secs,
        );
    }

    let file_secs = secs(|| {
        for i in 0..EVENTS {
            spotdc_telemetry::emit(bench_event(i));
        }
        spotdc_telemetry::flush();
    });
    m.set(
        "telemetry.file_emit.ns_per_event",
        file_secs * 1e9 / EVENTS as f64,
    );

    let plan = FaultPlan::new(fault_config);
    let racks = topology.rack_count();
    let passes = (TARGET_CALLS / racks.max(1)).max(2);
    let draw_secs = secs(|| {
        for pass in 0..passes {
            let slot = Slot::new(pass as u64);
            for rack in topology.racks() {
                black_box(plan.meter_fault(slot, rack.id()));
            }
        }
    });
    m.set(
        "faults.draw.ns_per_call",
        draw_secs * 1e9 / (passes * racks) as f64,
    );
    Ok(())
}
