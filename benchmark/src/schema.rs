//! The benchmark's contract in one place: workload names, metric names
//! with unit / direction / bound, and the two JSON shapes built from
//! them — `BENCHMARK.json` (`manifest`) and the per-run result line.
//!
//! `BENCHMARK.json` at the repo root is `manifest()` verbatim; a unit
//! test fails when the two drift apart.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

/// The five workloads, in manifest order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 8-tenant testbed, three modes back to back.
    TestbedModes,
    /// 3 000-tenant uniform market in production posture.
    Armed3k,
    /// 15 000-tenant per-PDU pricing, serial clearing.
    PerPdu15k,
    /// Same market through two in-process shard agents.
    Sharded15k,
    /// Recorded 15 000-tenant bid books replayed through one engine.
    ClearReplay,
}

impl Workload {
    /// Every workload, in manifest order.
    pub const ALL: [Workload; 5] = [
        Workload::TestbedModes,
        Workload::Armed3k,
        Workload::PerPdu15k,
        Workload::Sharded15k,
        Workload::ClearReplay,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::TestbedModes => "testbed-modes",
            Workload::Armed3k => "armed-3k",
            Workload::PerPdu15k => "perpdu-15k",
            Workload::Sharded15k => "sharded-15k",
            Workload::ClearReplay => "clear-replay",
        }
    }

    /// One line on why the workload exists (the manifest's `why`).
    #[must_use]
    pub fn why(self) -> &'static str {
        match self {
            Workload::TestbedModes => {
                "8-tenant testbed in SpotDc, PowerCapped and MaxPerf: the repro harness's real traffic; per-slot fixed overhead, Settle and tenant models dominate, clearing/dist/durable are idle"
            }
            Workload::Armed3k => {
                "3000-tenant uniform market as an operator runs it: faults, cap, staleness, validate, file telemetry, journal writes and a mid-run recovery; only workload on telemetry/durable/faults/cap/invariant"
            }
            Workload::PerPdu15k => {
                "15000 tenants, per-PDU pricing, serial: ~3750 tiny clears per slot, so per-clear fixed cost and constraint-set clones matter and sweep width does not; sets peak RSS"
            }
            Workload::Sharded15k => {
                "same per-PDU market through two in-process shard agents: the only workload on dist and core::wire; must match perpdu-15k slot for slot"
            }
            Workload::ClearReplay => {
                "8 recorded consecutive-slot 15000-tenant bid books replayed ping-pong through one warm engine: clearing is ~100% of the work, one wide sweep per op on real churn"
            }
        }
    }

    /// Parses a command-line workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The manifest spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's static description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Metric name (`[A-Za-z0-9_.-]`, unique across both tables).
    pub name: &'static str,
    /// Unit (`[A-Za-z0-9_/%.-]`).
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Regression bound as a share of the parent's median; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// What a user of the system sees, measured with tracing off. A bound
/// is three times the widest spread seen over ten seeds on the metric's
/// noisiest workload (README, "Noise floor"), capped at the contract's
/// 0.25: the gate's spread test runs across seeds, and across seeds the
/// market itself differs.
pub const END_TO_END: &[MetricDef] = &[
    e2e("slots_per_sec", "slots/s", Better::Higher, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25),
    e2e("spot_sold_kw", "kW", Better::Higher, 0.25),
    e2e("spot_revenue_usd_per_h", "USD/h", Better::Higher, 0.20),
];

/// Single-layer numbers from the traced run; layers are crate/module
/// names. A layer a workload never enters reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    // sim: the staged slot pipeline, from spans around SlotStage::run.
    lo("sim.sense.ms_per_slot", "ms"),
    lo("sim.collect_bids.ms_per_slot", "ms"),
    lo("sim.collect_gains.ms_per_slot", "ms"),
    lo("sim.predict.ms_per_slot", "ms"),
    lo("sim.clear.ms_per_slot", "ms"),
    lo("sim.enforce.ms_per_slot", "ms"),
    lo("sim.settle.ms_per_slot", "ms"),
    lo("sim.unattributed_share", "ratio"),
    lo("sim.slot.p50_ms", "ms"),
    lo("sim.slot.tail_ms", "ms"),
    hi("sim.slot.tail_pct", "%"),
    hi("sim.slot.samples", "count"),
    lo("sim.decision.p50_ms", "ms"),
    lo("sim.cold_slot_ms", "ms"),
    lo("sim.state_new_ms", "ms"),
    lo("sim.traces_ms", "ms"),
    lo("sim.trace_overhead_share", "ratio"),
    // tenants: agent and model calls over scenario.agents clones.
    lo("tenants.make_bid.us_per_agent", "us"),
    hi("tenants.make_bid.bid_share", "ratio"),
    lo("tenants.gain_curve.us_per_agent", "us"),
    lo("tenants.run_slot.us_per_agent", "us"),
    lo("tenants.model.gain_curve.us_per_call", "us"),
    lo("tenants.model.power_draw.us_per_call", "us"),
    // power
    lo("power.meter.record.ns_per_rack", "ns"),
    lo("power.meter.pdu_powers_into.us", "us"),
    lo("power.cap.enforce.us_per_slot", "us"),
    // core.operator: Algorithm 1 on recorded TenantBid books.
    lo("core.operator.admit.ms_per_slot", "ms"),
    hi("core.operator.admitted_share", "ratio"),
    lo("core.operator.run_slot.ms", "ms"),
    // core.prediction
    lo("core.prediction.predict.ms_per_slot", "ms"),
    lo("core.prediction.predict_cached.ms_per_slot", "ms"),
    // core.clearing
    lo("core.clearing.clear.p50_ms", "ms"),
    lo("core.clearing.clear.tail_ms", "ms"),
    lo("core.clearing.full_sweeps", "count"),
    hi("core.clearing.cache_hits", "count"),
    hi("core.clearing.delta_sweeps", "count"),
    lo("core.clearing.legacy_scans", "count"),
    lo("core.clearing.swept_share", "ratio"),
    lo("core.clearing.per_pdu.ms_per_slot", "ms"),
    lo("core.clearing.per_pdu.submarkets_per_slot", "count"),
    lo("core.clearing.per_pdu_split.ms_per_slot", "ms"),
    lo("core.clearing.synth15k.full_ms", "ms"),
    lo("core.clearing.synth15k.hit_ms", "ms"),
    lo("core.clearing.synth15k.delta_ms", "ms"),
    lo("core.clearing.synth15k.zoned_ms", "ms"),
    // core.maxperf / core.invariant
    lo("core.maxperf.allocate.ms_per_slot", "ms"),
    lo("core.invariant.check.ms_per_slot", "ms"),
    // dist (incl. core::wire)
    lo("dist.frames_per_slot", "count"),
    lo("dist.bytes_per_slot", "B"),
    hi("dist.delta_task_share", "ratio"),
    lo("dist.setup_frames", "count"),
    lo("dist.setup_bytes", "B"),
    lo("dist.shard.full_sweeps", "count"),
    hi("dist.shard.cache_hits", "count"),
    hi("dist.shard.delta_sweeps", "count"),
    lo("dist.degraded_slots", "count"),
    // durable
    lo("durable.wal_encode.us_per_slot", "us"),
    lo("durable.wal_append.us_per_record", "us"),
    lo("durable.wal_bytes_per_slot", "B"),
    lo("durable.checkpoint_write.ms", "ms"),
    lo("durable.checkpoint_bytes", "B"),
    lo("durable.read_wal.ms", "ms"),
    lo("durable.load_latest.ms", "ms"),
    lo("durable.resume.s", "s"),
    lo("durable.resume.replayed_slots", "count"),
    // telemetry / obs / faults
    lo("telemetry.emit.ns_per_event", "ns"),
    lo("telemetry.file_emit.ns_per_event", "ns"),
    lo("telemetry.span.ns_enabled", "ns"),
    lo("telemetry.span.ns_disabled", "ns"),
    lo("telemetry.events_per_slot", "count"),
    lo("telemetry.bytes_per_slot", "B"),
    hi("obs.analyze.events_per_sec", "1/s"),
    lo("faults.draw.ns_per_call", "ns"),
    lo("faults.injected_per_slot", "count"),
];

/// Looks a metric up in either table.
#[must_use]
pub fn metric_def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// The `BENCHMARK.json` contents.
#[must_use]
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            )
        })
        .collect();
    out.push_str(&workloads.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound.expect("end-to-end metrics carry a bound")
            )
        })
        .collect();
    out.push_str(&e2e.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    out.push_str(&layers.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

/// Metric values gathered during one run, keyed by name.
#[derive(Debug, Default, Clone)]
pub struct MetricSet(BTreeMap<&'static str, f64>);

impl MetricSet {
    /// Records `value` for `name`.
    ///
    /// # Panics
    ///
    /// Panics when `name` is in neither table or `value` is not finite:
    /// both are bugs in the benchmark, not in the program under test.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(metric_def(name).is_some(), "undeclared metric {name}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.insert(name, value);
    }

    /// The recorded value, if any.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Every metric of `table` with its value; a per-layer metric the
    /// workload never touched reads 0.
    ///
    /// # Panics
    ///
    /// Panics when an end-to-end metric was never set.
    #[must_use]
    pub fn rows(&self, table: &'static [MetricDef]) -> Vec<(&'static MetricDef, f64)> {
        table
            .iter()
            .map(|def| {
                let value = match (self.get(def.name), def.bound) {
                    (Some(v), _) => v,
                    (None, None) => 0.0,
                    (None, Some(_)) => panic!("end-to-end metric {} was never measured", def.name),
                };
                (def, value)
            })
            .collect()
    }
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`, values with all their digits.
#[must_use]
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    rows: &[(&'static MetricDef, f64)],
) -> String {
    let metrics: Vec<String> = rows
        .iter()
        .map(|(def, value)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.name, value, def.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract_charset_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for w in Workload::ALL {
            assert!(name_ok(w.name()), "{}", w.name());
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
            assert!(seen.insert(w.name()));
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{} unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for m in END_TO_END {
            let bound = m.bound.expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        let setup = metric_def("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    #[test]
    fn checked_in_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with `spotdc-benchmark manifest > BENCHMARK.json`"
        );
        assert!(on_disk.len() <= 64 * 1024);
    }

    #[test]
    fn manifest_names_exactly_what_a_run_emits() {
        let doc = Json::parse(&manifest()).expect("manifest is JSON");
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_owned())
                .collect()
        };
        let emitted = |table: &'static [MetricDef]| -> Vec<String> {
            let mut set = MetricSet::default();
            for m in table {
                set.set(m.name, 1.5);
            }
            let line = result_line(true, 3, 0, &set.rows(table));
            let parsed = Json::parse(&line).expect("result line is JSON");
            parsed
                .get("metrics")
                .and_then(Json::as_object)
                .unwrap()
                .iter()
                .map(|(k, _)| k.clone())
                .collect()
        };
        assert_eq!(names("end_to_end"), emitted(END_TO_END));
        assert_eq!(names("per_layer"), emitted(PER_LAYER));
        assert_eq!(
            names("workloads"),
            Workload::ALL.map(|w| w.name().to_owned())
        );
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_full_digits() {
        let mut set = MetricSet::default();
        for m in END_TO_END {
            set.set(m.name, 1.203_456_789_012_3);
        }
        let line = result_line(true, 1000, 0, &set.rows(END_TO_END));
        assert!(!line.contains('\n'));
        let doc = Json::parse(&line).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(1000.0));
        let m = doc.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(
            m.get("value").and_then(Json::as_f64),
            Some(1.203_456_789_012_3)
        );
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("s"));
        let keys: Vec<&str> = m
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["value", "unit"]);
    }

    #[test]
    fn untouched_layers_read_zero_but_end_to_end_must_be_measured() {
        let set = MetricSet::default();
        assert!(set.rows(PER_LAYER).iter().all(|(_, v)| *v == 0.0));
        assert!(std::panic::catch_unwind(|| MetricSet::default().rows(END_TO_END)).is_err());
    }
}
