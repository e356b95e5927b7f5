//! `bench_slots` — slot throughput of the market pipeline versus the
//! within-slot parallelism width.
//!
//! ```text
//! bench_slots                        # print the table
//! bench_slots --out BENCH_slots.json # also write the JSON reference
//! bench_slots --slots 90 --samples 5 # longer / steadier measurement
//! ```
//!
//! Runs a fig14-class scenario — the hyper-scale topology at 304
//! tenants under SpotDC with per-PDU pricing, the configuration whose
//! slots are wide enough (many agents, many sub-markets) for the inner
//! pool to matter — at `inner_jobs` ∈ {1, 2, 4} and reports slots per
//! second plus speedup over the serial width. Every run is fully
//! seeded, so the three widths simulate byte-identical markets; only
//! the wall-clock differs.
//!
//! A final measurement re-runs the serial width with telemetry enabled
//! on a null sink, so the JSON reference records how much the
//! observability layer costs when armed — and, by comparison with the
//! plain serial row, confirms it costs nothing when off.
//!
//! A separate *hyperscale clearing* section measures the pure clearing
//! engine (no pipeline around it) on fig7b synthetic markets at 15k
//! and 100k racks.
//!
//! A *distributed clearing* section runs the sharded pipeline on a
//! 15k-participant hyperscale scenario (per-PDU SpotDC, so the PDU
//! sub-markets actually fan out round-robin over the shards) at
//! shards {1, 2, 4} on both transports. Every grid point simulates
//! the byte-identical market — only the wall-clock differs — so the
//! rows isolate the cost of the wire protocol and process boundary.
//! Each point is measured twice (a short cold run and a long one);
//! the subtraction isolates *warm* throughput, where shard sessions
//! hold the statics and only the slot's bids travel, and wire counters
//! report frames and bytes per slot.
//! `--dist-only` runs just this section (the `make bench-dist` path).

use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use spotdc_core::{ClearingConfig, MarketClearing};
use spotdc_dist::TransportKind;
use spotdc_sim::engine::{DurabilityConfig, EngineConfig, Simulation};
use spotdc_sim::experiments::fig7b;
use spotdc_sim::{Mode, Scenario};
use spotdc_units::{Price, Slot};

const SEED: u64 = 42;
const TENANTS: usize = 304;
const WIDTHS: [usize; 3] = [1, 2, 4];
/// Rack counts for the pure-clearing section: the paper's scale claim
/// and ROADMAP item 1's orders-of-magnitude target.
const CLEARING_RACKS: [usize; 2] = [15_000, 100_000];
/// Participant count for the distributed section — one rack per
/// participant, so this is the 15k-rack scale of the clearing section
/// with the full pipeline (and the shard runtime) around it.
const DIST_TENANTS: usize = 15_000;
/// Warm slots per distributed measurement: the slots the long run adds
/// on top of [`DIST_COLD_SLOTS`], all riding warm shard sessions.
const DIST_SLOTS: u64 = 4;
/// Slots in the short "cold" run — engine setup, the statics-bearing
/// sync slot, and the first warm slot. Subtracting its wall-clock
/// from the long run's isolates steady-state throughput.
const DIST_COLD_SLOTS: u64 = 2;

/// One measured width.
struct Row {
    inner_jobs: usize,
    slots_per_sec: f64,
}

fn engine(inner_jobs: usize) -> EngineConfig {
    EngineConfig {
        per_pdu_pricing: true,
        inner_jobs,
        ..EngineConfig::new(Mode::SpotDc)
    }
}

/// Median wall-clock over `samples` runs of `slots` slots, as
/// slots per second. The scenario is rebuilt per run so every sample
/// pays the same setup; setup time is excluded from the timed region.
fn measure(inner_jobs: usize, slots: u64, samples: usize) -> f64 {
    let mut secs: Vec<f64> = (0..samples)
        .map(|_| {
            let sim = Simulation::new(Scenario::hyperscale(SEED, TENANTS), engine(inner_jobs));
            let started = Instant::now();
            let report = sim.run(slots);
            let elapsed = started.elapsed().as_secs_f64();
            assert_eq!(report.records.len() as u64, slots);
            std::hint::black_box(report.avg_spot_sold());
            elapsed
        })
        .collect();
    secs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    slots as f64 / secs[secs.len() / 2]
}

/// Median serial slots/sec with the durability layer armed
/// (`checkpoint_every = 50`, journal appended every slot) — the cost of
/// crash consistency on the same scenario the plain serial row runs.
fn measure_durable(slots: u64, samples: usize) -> f64 {
    let dir = std::env::temp_dir().join(format!("spotdc-bench-ckpt-{}", std::process::id()));
    let mut secs: Vec<f64> = (0..samples)
        .map(|_| {
            let mut config = engine(1);
            config.durability = DurabilityConfig {
                dir: Some(dir.clone()),
                checkpoint_every: 50,
                ..DurabilityConfig::default()
            };
            let sim = Simulation::new(Scenario::hyperscale(SEED, TENANTS), config);
            let started = Instant::now();
            let outcome = sim.run_durable(slots).expect("durable bench run");
            let elapsed = started.elapsed().as_secs_f64();
            assert_eq!(outcome.report.records.len() as u64, slots);
            std::hint::black_box(outcome.report.avg_spot_sold());
            elapsed
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    secs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    slots as f64 / secs[secs.len() / 2]
}

/// One measured rack count of the pure-clearing section.
struct ClearingRow {
    racks: usize,
    full_per_sec: f64,
}

/// Clearing throughput at `racks` on the paper-default 0.1¢ grid.
/// Market construction and the warm-up clear are outside the timed
/// region.
fn measure_clearing(racks: usize, iters: usize) -> ClearingRow {
    let (_, bids, cs) = fig7b::synthetic_market(racks, SEED);
    let (_, other, _) = fig7b::synthetic_market(racks, SEED + 1);
    let config = ClearingConfig::grid(Price::cents_per_kw_hour(0.1));

    // Two unrelated bid books alternate, the recipe the checked-in
    // reference rates used.
    let engine = MarketClearing::new(config);
    std::hint::black_box(engine.clear(Slot::ZERO, &bids, &cs));
    let started = Instant::now();
    for i in 0..iters {
        let book = if i % 2 == 0 { &other } else { &bids };
        std::hint::black_box(engine.clear(Slot::new(i as u64 + 1), book, &cs));
    }
    let full_per_sec = iters as f64 / started.elapsed().as_secs_f64();

    ClearingRow {
        racks,
        full_per_sec,
    }
}

/// One measured point of the distributed section. `transport` is
/// `"serial"` for the shards=1 baseline (no runtime is built, so the
/// transport choice is moot there).
struct DistRow {
    shards: usize,
    transport: &'static str,
    /// Whole-run throughput, cold slots included.
    slots_per_sec: f64,
    /// Steady-state throughput once the shard sessions are warm, by
    /// two-run subtraction: `(long − cold) slots / (t_long − t_cold)`.
    warm_slots_per_sec: f64,
    /// Wire frames per slot (both directions, handshakes excluded),
    /// over the long run. O(shards), not O(sub-markets), by design.
    frames_per_slot: f64,
    /// Wire bytes per slot (both directions), over the long run.
    bytes_per_slot: f64,
}

/// Runs one shard/transport grid point for `slots` slots and returns
/// the elapsed seconds. Cloning the scenario shares its memoized trace
/// cache, so setup beyond the first build is cheap and outside the
/// timed region.
fn dist_run(scenario: &Scenario, shards: usize, transport: TransportKind, slots: u64) -> f64 {
    let config = EngineConfig {
        per_pdu_pricing: true,
        shards,
        shard_transport: transport,
        ..EngineConfig::new(Mode::SpotDc)
    };
    let sim = Simulation::new(scenario.clone(), config);
    let started = Instant::now();
    let report = sim.run(slots);
    let elapsed = started.elapsed().as_secs_f64();
    assert_eq!(report.records.len() as u64, slots);
    assert_eq!(
        report.degraded_slots, 0,
        "a healthy benchmark run must not degrade (shards={shards}, {transport})"
    );
    std::hint::black_box(report.avg_spot_sold());
    elapsed
}

/// One grid point, warm-aware: a short cold run (setup plus the
/// sync slots) and a long run (`DIST_COLD_SLOTS + DIST_SLOTS`); the
/// difference isolates the steady state, where sessions are warm and
/// only the slot's bids travel. Wire counters are snapshotted around
/// the long run so the row also reports frames and bytes per slot.
fn measure_dist(scenario: &Scenario, shards: usize, transport: TransportKind) -> DistRow {
    let t_cold = dist_run(scenario, shards, transport, DIST_COLD_SLOTS);
    let before = spotdc_dist::wire_totals();
    let long_slots = DIST_COLD_SLOTS + DIST_SLOTS;
    let t_long = dist_run(scenario, shards, transport, long_slots);
    let after = spotdc_dist::wire_totals();
    let frames =
        (after.frames_sent + after.frames_recv) - (before.frames_sent + before.frames_recv);
    let bytes = (after.bytes_sent + after.bytes_recv) - (before.bytes_sent + before.bytes_recv);
    DistRow {
        shards,
        transport: if shards == 1 {
            "serial"
        } else {
            transport_name(transport)
        },
        slots_per_sec: long_slots as f64 / t_long,
        warm_slots_per_sec: DIST_SLOTS as f64 / (t_long - t_cold).max(1e-9),
        frames_per_slot: frames as f64 / long_slots as f64,
        bytes_per_slot: bytes as f64 / long_slots as f64,
    }
}

fn transport_name(transport: TransportKind) -> &'static str {
    match transport {
        TransportKind::InProc => "inproc",
        TransportKind::Subprocess => "subprocess",
    }
}

/// The distributed grid: serial baseline, then shards {2, 4} on each
/// available transport. The subprocess legs need the `spotdc-agent`
/// binary next to this one (a workspace build provides it); without it
/// they are skipped rather than failed, so `cargo run --bin
/// bench_slots` alone still produces the in-process rows.
fn measure_dist_grid() -> Vec<DistRow> {
    let scenario = Scenario::hyperscale(SEED, DIST_TENANTS);
    // Warm the scenario's memoized tenant traces (and the allocator)
    // over the whole measured horizon first, so the one-time costs land
    // outside every timed region instead of inside the first row's —
    // the warm-rate subtraction assumes cold and long runs differ only
    // by their warm slots.
    std::hint::black_box(dist_run(
        &scenario,
        1,
        TransportKind::InProc,
        DIST_COLD_SLOTS + DIST_SLOTS,
    ));
    let mut rows = vec![measure_dist(&scenario, 1, TransportKind::InProc)];
    let have_agent = spotdc_dist::agent_binary().is_some();
    if !have_agent {
        eprintln!("# skipping subprocess rows: spotdc-agent not built");
    }
    for shards in [2, 4] {
        rows.push(measure_dist(&scenario, shards, TransportKind::InProc));
        if have_agent {
            rows.push(measure_dist(&scenario, shards, TransportKind::Subprocess));
        }
    }
    rows
}

/// Prints the distributed section's table.
fn print_dist_table(dist_rows: &[DistRow]) {
    println!(
        "\n# distributed clearing — hyperscale({DIST_TENANTS}) spotdc per-pdu, \
         {DIST_COLD_SLOTS}+{DIST_SLOTS} slots (cold+warm)"
    );
    println!(
        "{:>6}  {:>10}  {:>9}  {:>9}  {:>9}  {:>11}  {:>10}",
        "shards", "transport", "slots/sec", "warm/sec", "vs serial", "frames/slot", "kB/slot"
    );
    let dist_serial = dist_rows[0].warm_slots_per_sec;
    for r in dist_rows {
        println!(
            "{:>6}  {:>10}  {:>9.2}  {:>9.2}  {:>8.2}x  {:>11.1}  {:>10.1}",
            r.shards,
            r.transport,
            r.slots_per_sec,
            r.warm_slots_per_sec,
            r.warm_slots_per_sec / dist_serial,
            r.frames_per_slot,
            r.bytes_per_slot / 1024.0
        );
    }
}

fn main() -> ExitCode {
    let mut out: Option<std::path::PathBuf> = None;
    let mut slots: u64 = 60;
    let mut samples: usize = 3;
    let mut dist_only = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => match args.next() {
                Some(path) => out = Some(path.into()),
                None => return usage("--out needs a file path"),
            },
            "--dist-only" => dist_only = true,
            "--slots" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => slots = n,
                _ => return usage("--slots needs a positive integer"),
            },
            "--samples" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => samples = n,
                _ => return usage("--samples needs a positive integer"),
            },
            "--help" | "-h" => return usage(""),
            other => return usage(&format!("unknown argument: {other}")),
        }
    }
    if dist_only && out.is_some() {
        return usage("--dist-only produces a partial table; it cannot write the JSON reference");
    }

    if dist_only {
        // Just the distributed grid — the `make bench-dist` fast path.
        spotdc_telemetry::set_enabled(false);
        print_dist_table(&measure_dist_grid());
        return ExitCode::SUCCESS;
    }

    // Warm once (trace memoization, allocator) outside the timed region.
    std::hint::black_box(
        Simulation::new(Scenario::hyperscale(SEED, TENANTS), engine(1)).run(slots.min(10)),
    );

    // Main rows run with telemetry hard-off: this is the hot path the
    // committed reference gates.
    spotdc_telemetry::set_enabled(false);
    let rows: Vec<Row> = WIDTHS
        .iter()
        .map(|&w| Row {
            inner_jobs: w,
            slots_per_sec: measure(w, slots, samples),
        })
        .collect();
    let serial = rows[0].slots_per_sec;

    // Durability row, telemetry still hard-off: serial width with slot
    // journaling plus a checkpoint every 50 slots.
    let durable = measure_durable(slots, samples);
    let durable_overhead_percent = (serial / durable - 1.0) * 100.0;

    // Pure-clearing hyperscale section, telemetry still hard-off. The
    // iteration counts keep the 100k-rack loop to a few seconds.
    let clearing_rows: Vec<ClearingRow> = CLEARING_RACKS
        .iter()
        .map(|&racks| measure_clearing(racks, if racks > 50_000 { 8 } else { 24 }))
        .collect();

    // Distributed clearing grid, telemetry still hard-off.
    let dist_rows = measure_dist_grid();

    // Measured last because the install is process-global and sticky:
    // telemetry enabled, events dropped in a null sink — the cost of
    // arming the observability layer without an artifact.
    spotdc_telemetry::install(spotdc_telemetry::TelemetryConfig {
        enabled: true,
        sink: spotdc_telemetry::SinkKind::Null,
        sample_every: 1,
    });
    let telemetry_on = measure(1, slots, samples);
    spotdc_telemetry::set_enabled(false);
    let overhead_percent = (serial / telemetry_on - 1.0) * 100.0;

    println!(
        "# slot throughput — hyperscale({TENANTS}) SpotDC per-PDU, seed {SEED}, \
         {slots} slots, median of {samples}"
    );
    println!("inner_jobs  slots/sec  speedup");
    for r in &rows {
        println!(
            "{:>10}  {:>9.2}  {:>6.2}x",
            r.inner_jobs,
            r.slots_per_sec,
            r.slots_per_sec / serial
        );
    }
    println!(
        "telemetry on (null sink, serial): {telemetry_on:.2} slots/sec \
         ({overhead_percent:+.1}% overhead)"
    );
    println!(
        "durability on (checkpoint every 50, serial): {durable:.2} slots/sec \
         ({durable_overhead_percent:+.1}% overhead)"
    );
    println!("\n# pure clearing — fig7b synthetic market, 0.1¢ grid");
    println!("{:>8}  {:>10}", "racks", "full/sec");
    for r in &clearing_rows {
        println!("{:>8}  {:>10.2}", r.racks, r.full_per_sec);
    }
    print_dist_table(&dist_rows);

    if let Some(path) = &out {
        if let Err(e) = write_json(
            path,
            slots,
            samples,
            &rows,
            &clearing_rows,
            &dist_rows,
            serial,
            telemetry_on,
            overhead_percent,
            durable,
            durable_overhead_percent,
        ) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Writes the measured table as a small line-oriented JSON file (the
/// committed reference `scripts/bench_check` compares against).
#[allow(clippy::too_many_arguments)]
fn write_json(
    path: &std::path::Path,
    slots: u64,
    samples: usize,
    rows: &[Row],
    clearing_rows: &[ClearingRow],
    dist_rows: &[DistRow],
    serial: f64,
    telemetry_on: f64,
    overhead_percent: f64,
    durable: f64,
    durable_overhead_percent: f64,
) -> std::io::Result<()> {
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(file, "{{")?;
    writeln!(
        file,
        "  \"scenario\": \"hyperscale-{TENANTS} spotdc per-pdu\","
    )?;
    writeln!(file, "  \"seed\": {SEED},")?;
    writeln!(file, "  \"slots\": {slots},")?;
    writeln!(file, "  \"samples\": {samples},")?;
    writeln!(
        file,
        "  \"telemetry\": {{ \"off_slots_per_sec\": {serial:.2}, \
         \"null_sink_slots_per_sec\": {telemetry_on:.2}, \
         \"enabled_overhead_percent\": {overhead_percent:.1} }},"
    )?;
    writeln!(
        file,
        "  \"durability\": {{ \"off_slots_per_sec\": {serial:.2}, \
         \"checkpointed_slots_per_sec\": {durable:.2}, \
         \"overhead_percent\": {durable_overhead_percent:.1} }},"
    )?;
    writeln!(file, "  \"hyperscale\": [")?;
    let clearing_body: Vec<String> = clearing_rows
        .iter()
        .map(|r| {
            format!(
                "    {{ \"racks\": {}, \"full_clears_per_sec\": {:.2} }}",
                r.racks, r.full_per_sec
            )
        })
        .collect();
    writeln!(file, "{}", clearing_body.join(",\n"))?;
    writeln!(file, "  ],")?;
    writeln!(file, "  \"distributed\": [")?;
    let dist_body: Vec<String> = dist_rows
        .iter()
        .map(|r| {
            format!(
                "    {{ \"shards\": {}, \"transport\": \"{}\", \"slots_per_sec\": {:.2}, \
                 \"warm_slots_per_sec\": {:.2}, \"frames_per_slot\": {:.1}, \
                 \"bytes_per_slot\": {:.0} }}",
                r.shards,
                r.transport,
                r.slots_per_sec,
                r.warm_slots_per_sec,
                r.frames_per_slot,
                r.bytes_per_slot
            )
        })
        .collect();
    writeln!(file, "{}", dist_body.join(",\n"))?;
    writeln!(file, "  ],")?;
    writeln!(file, "  \"results\": [")?;
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{ \"inner_jobs\": {}, \"slots_per_sec\": {:.2}, \"speedup\": {:.2} }}",
                r.inner_jobs,
                r.slots_per_sec,
                r.slots_per_sec / serial
            )
        })
        .collect();
    writeln!(file, "{}", body.join(",\n"))?;
    writeln!(file, "  ]")?;
    writeln!(file, "}}")?;
    file.flush()
}

fn usage(error: &str) -> ExitCode {
    if !error.is_empty() {
        eprintln!("error: {error}\n");
    }
    eprintln!("usage: bench_slots [--out <file>] [--slots <n>] [--samples <n>] [--dist-only]");
    if error.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
