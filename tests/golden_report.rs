//! Golden-report refactor guard.
//!
//! Runs all three operating modes at seed 42 over a short horizon and
//! compares every field of the resulting [`SimReport`] against checked-in
//! snapshots, byte for byte. The snapshots were generated from the
//! pre-pipeline monolithic slot loop, so any refactor of the engine that
//! changes behaviour — float accumulation order, RNG draw order, fault
//! scheduling — fails here before it can silently shift experiment
//! numbers.
//!
//! Regenerate (only when a behaviour change is intended and understood):
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test golden_report
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use spotdc_sim::engine::{EngineConfig, Simulation};
use spotdc_sim::{Mode, Scenario};

const SEED: u64 = 42;
const SLOTS: u64 = 120;

fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file)
}

/// Renders every field of the report in a stable line-oriented form:
/// one `Debug` line per slot record, then the scalar summary fields.
/// Rust's `Debug` for `f64` is shortest-roundtrip formatting, so equal
/// bytes ⇔ equal values.
fn render(mode: Mode, inner_jobs: usize) -> String {
    render_sharded(mode, inner_jobs, 1)
}

fn render_sharded(mode: Mode, inner_jobs: usize, shards: usize) -> String {
    let engine = EngineConfig {
        inner_jobs,
        shards,
        ..EngineConfig::new(mode)
    };
    let report = Simulation::new(Scenario::testbed(SEED), engine).run(SLOTS);
    let mut s = String::new();
    writeln!(
        s,
        "# SimReport golden — mode {mode}, seed {SEED}, {SLOTS} slots"
    )
    .unwrap();
    for r in &report.records {
        writeln!(s, "{r:?}").unwrap();
    }
    writeln!(s, "slot={:?}", report.slot).unwrap();
    writeln!(s, "subscriptions={:?}", report.subscriptions).unwrap();
    writeln!(s, "headrooms={:?}", report.headrooms).unwrap();
    writeln!(
        s,
        "total_subscribed={:?} ups_capacity={:?}",
        report.total_subscribed, report.ups_capacity
    )
    .unwrap();
    writeln!(
        s,
        "emergencies={} transient_overshoots={} degraded_slots={} \
         invariant_violations={} faults_injected={}",
        report.emergencies,
        report.transient_overshoots,
        report.degraded_slots,
        report.invariant_violations,
        report.faults_injected
    )
    .unwrap();
    s
}

#[test]
fn sim_reports_match_golden_snapshots() {
    let cases = [
        (Mode::PowerCapped, "powercapped.txt"),
        (Mode::SpotDc, "spotdc.txt"),
        (Mode::MaxPerf, "maxperf.txt"),
    ];
    for (mode, file) in cases {
        let path = golden_path(file);
        let rendered = render(mode, 1);
        // The within-slot parallel path must reproduce the serial
        // snapshot byte for byte — same floats, same RNG order.
        assert_eq!(
            rendered,
            render(mode, 4),
            "{mode} report at inner_jobs=4 diverged from the serial render"
        );
        // The distributed clearing plane must too, for every shard
        // count (the controller merges serially, so the grid collapses
        // to one report).
        for shards in [2, 4] {
            assert_eq!(
                rendered,
                render_sharded(mode, 1, shards),
                "{mode} report at shards={shards} diverged from the serial render"
            );
        }
        if std::env::var_os("GOLDEN_REGEN").is_some() {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &rendered).unwrap();
            continue;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden snapshot {} ({e}); regenerate with \
                 GOLDEN_REGEN=1 cargo test --test golden_report",
                path.display()
            )
        });
        if expected != rendered {
            // Point at the first diverging line rather than dumping both
            // multi-thousand-line bodies.
            let line = expected
                .lines()
                .zip(rendered.lines())
                .position(|(a, b)| a != b)
                .map_or_else(
                    || expected.lines().count().min(rendered.lines().count()),
                    |i| i + 1,
                );
            panic!(
                "{mode} report diverged from golden snapshot {} at line {line}\n\
                 golden  : {}\n\
                 current : {}",
                path.display(),
                expected.lines().nth(line - 1).unwrap_or("<eof>"),
                rendered.lines().nth(line - 1).unwrap_or("<eof>"),
            );
        }
    }
}
