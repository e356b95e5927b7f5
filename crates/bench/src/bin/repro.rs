//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro                      # run everything at the default horizon
//! repro --exp fig12          # one experiment
//! repro --days 30 --seed 7   # longer horizon, different seed
//! repro --quick              # fast smoke pass
//! repro --jobs 4             # experiment-level parallelism (default: cores)
//! repro --inner-jobs 4       # within-slot parallelism (default: 1, serial)
//! repro --list-exps          # available experiment ids (alias: --list)
//! repro --out results/       # also write one .txt file per experiment
//! repro --telemetry t.jsonl  # record market events to a JSONL file
//! repro --validate           # per-slot invariant checks; violations fail the run
//! repro --quiet              # suppress progress output (errors remain)
//! ```
//!
//! Single durable run (the crash-harness entry point):
//!
//! ```text
//! repro --mode spotdc --slots 300 --checkpoint-dir ckpt/ --checkpoint-every 25
//! repro --mode spotdc --slots 300 --checkpoint-dir ckpt/ --resume
//! repro --mode spotdc --per-pdu --shards 4
//! repro --mode spotdc --per-pdu --tenants 15000 --slots 8
//! ```
//!
//! `--mode` switches from the experiment suite to one simulation whose
//! full report streams to stdout in its one text form
//! (`SimReport::write_text`, which `tests/golden/` pins): a record line
//! as each slot ends, then the summary. Recovery notes go to stderr
//! only, so a resumed run's stdout is byte-identical to an
//! uninterrupted one. `--slot-delay-ms` slows the slot loop so an
//! external killer (`scripts/crash_harness`) can SIGKILL at a chosen
//! slot. `--tenants N` swaps the Table I testbed for Fig. 18's
//! hyper-scale scenario at about N tenants (`Scenario::hyperscale`).
//! With `--telemetry`, the run's per-span latency table goes to stderr,
//! so one command times a layer (`stage.predict`, `stage.clear_maxperf`,
//! `engine.slot`, ...) at any tenant count, pricing and `--inner-jobs`
//! width:
//!
//! ```text
//! repro --mode maxperf --tenants 15000 --slots 4 --telemetry t.jsonl
//! repro --mode spotdc --per-pdu --tenants 304 --slots 30 --inner-jobs 2 --telemetry t.jsonl
//! ```
//!
//! `--shards N` runs SpotDC's clearing stage on N shard agent threads,
//! each behind a framed pipe pair, with the controller merging
//! serially, so stdout stays byte-identical to `--shards 1` for every
//! shard count (`scripts/smoke_dist` enforces this). `--per-pdu`
//! switches SpotDC to per-PDU sub-market pricing, which is where
//! sharding actually fans out. PowerCapped and MaxPerf have no market,
//! so `--shards` changes nothing for them.
//!
//! Experiments fan out across `--jobs` worker threads, and the
//! multi-simulation experiments fan out further internally. Every
//! simulation is fully seeded, so the experiment bodies are
//! byte-identical for any job count — only the wall-clock changes.
//!
//! Exit status: 0 on success, 2 on a usage error (a bad flag or value),
//! 1 on any other failure.

use std::io::{BufWriter, ErrorKind, Write};
use std::path::Path;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use spotdc_obs::Analysis;
use spotdc_sim::engine::{DurabilityConfig, DurableError, EngineConfig, Simulation};
use spotdc_sim::experiments::{all_ids, run_selected, ExpConfig};
use spotdc_sim::{Mode, Scenario};
use spotdc_telemetry::{FileSink, SinkKind, TelemetryConfig};

/// The longest horizon `--days` accepts: ten years of 2-minute slots,
/// a slot count every per-slot buffer of a run can hold.
const MAX_DAYS: f64 = 3660.0;

/// The longest run `--slots` accepts: `--days`' horizon in the
/// scenarios' 2-minute slots (720 a day).
const MAX_SLOTS: u64 = MAX_DAYS as u64 * 720;

/// The most threads `--jobs`, `--inner-jobs` or `--shards` may ask for:
/// a value from outside must not reach thousands of thread spawns.
const MAX_THREADS: usize = 256;

/// The most tenants `--tenants` accepts: Fig. 7(b)'s largest size. A
/// value from outside must not size the scenario's allocations.
const MAX_TENANTS: usize = 100_000;

/// Routes progress output through one place so `--quiet` silences
/// everything except errors. A lock serializes whole lines, so
/// messages from concurrent experiments never interleave mid-line.
struct Reporter {
    quiet: bool,
    lock: Mutex<()>,
}

impl Reporter {
    fn new(quiet: bool) -> Self {
        Reporter {
            quiet,
            lock: Mutex::new(()),
        }
    }

    fn progress(&self, text: &str) {
        if !self.quiet {
            let _held = self.lock.lock().unwrap_or_else(|e| e.into_inner());
            print_stdout(format_args!("{text}"));
        }
    }

    fn status(&self, text: &str) {
        if !self.quiet {
            let _held = self.lock.lock().unwrap_or_else(|e| e.into_inner());
            eprintln!("{text}");
        }
    }

    fn error(&self, text: &str) {
        let _held = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        eprintln!("{text}");
    }
}

/// Writes `args` and a newline to stdout ([`with_stdout`]); any failure
/// but a closed pipe ends the run with exit 1.
fn print_stdout(args: std::fmt::Arguments<'_>) {
    if let Err(e) = with_stdout(|out| Ok(writeln!(out, "{args}")?)) {
        spotdc_telemetry::flush();
        eprintln!("error: cannot write to stdout: {e}");
        std::process::exit(1);
    }
}

/// Hands `write` stdout through one locked, buffered handle — the only
/// way this binary writes there. The text streams through the buffer
/// as it is formatted, so a report is never held whole in memory (the
/// locked handle alone would issue one write per line). A reader that
/// closed the pipe (`repro --list | head -1`) has what it came for:
/// exit 0 silently where `println!` would panic with a backtrace. Any
/// other error is the caller's.
fn with_stdout(
    write: impl FnOnce(&mut dyn Write) -> Result<(), DurableError>,
) -> Result<(), DurableError> {
    let mut out = BufWriter::new(std::io::stdout().lock());
    let written = write(&mut out).and_then(|()| Ok(out.flush()?));
    if matches!(&written, Err(DurableError::Io(e)) if e.kind() == ErrorKind::BrokenPipe) {
        spotdc_telemetry::flush();
        std::process::exit(0);
    }
    if written.is_err() {
        // Unflushed output goes unprinted: a run refused up front prints nothing.
        drop(out.into_parts());
    }
    written
}

fn main() -> ExitCode {
    let mut cfg = ExpConfig::default();
    let mut selected: Vec<String> = Vec::new();
    let mut out_dir: Option<std::path::PathBuf> = None;
    let mut telemetry_path: Option<std::path::PathBuf> = None;
    let mut jobs: usize = spotdc_par::available();
    let mut quiet = false;
    // Set by a flag that only shapes the experiment suite.
    let mut suite_flag = false;
    let mut single_mode: Option<Mode> = None;
    let mut single_slots: u64 = 300;
    let mut single_per_pdu = false;
    let mut single_tenants: Option<usize> = None;
    let mut shards: usize = 1;
    let mut durability = DurabilityConfig::default();
    // Set by a flag that only shapes a run with a checkpoint directory.
    let mut checkpoint_flag: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if ["--checkpoint-every", "--resume", "--slot-delay-ms"].contains(&arg.as_str()) {
            checkpoint_flag = Some(arg.clone());
        }
        match arg.as_str() {
            "--list" | "--list-exps" => {
                print_stdout(format_args!("{}", all_ids().join("\n")));
                return ExitCode::SUCCESS;
            }
            "--quick" => {
                cfg.days = 1.0;
                cfg.quick = true;
                suite_flag = true;
            }
            "--exp" => match args.next() {
                Some(id) => selected.push(id),
                None => return usage("--exp needs an experiment id"),
            },
            "--days" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(days) if days > 0.0 && days <= MAX_DAYS => {
                    cfg.days = days;
                    suite_flag = true;
                }
                _ => {
                    return usage(&format!(
                        "--days needs a finite number of days > 0, at most {MAX_DAYS}"
                    ))
                }
            },
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(seed) => cfg.seed = seed,
                None => return usage("--seed needs an integer"),
            },
            "--jobs" | "-j" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if (1..=MAX_THREADS).contains(&n) => {
                    jobs = n;
                    suite_flag = true;
                }
                _ => return usage(&threads_needed("--jobs")),
            },
            "--inner-jobs" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if (1..=MAX_THREADS).contains(&n) => cfg.inner_jobs = n,
                _ => return usage(&threads_needed("--inner-jobs")),
            },
            "--out" => match args.next() {
                Some(dir) => out_dir = Some(dir.into()),
                None => return usage("--out needs a directory"),
            },
            "--telemetry" => match args.next() {
                Some(path) => telemetry_path = Some(path.into()),
                None => return usage("--telemetry needs a file path"),
            },
            "--mode" => match args.next().as_deref() {
                Some("powercapped") => single_mode = Some(Mode::PowerCapped),
                Some("spotdc") => single_mode = Some(Mode::SpotDc),
                Some("maxperf") => single_mode = Some(Mode::MaxPerf),
                _ => return usage("--mode needs powercapped, spotdc, or maxperf"),
            },
            "--slots" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if (1..=MAX_SLOTS).contains(&n) => single_slots = n,
                _ => {
                    return usage(&format!(
                        "--slots needs a positive integer, at most {MAX_SLOTS}"
                    ))
                }
            },
            "--per-pdu" => single_per_pdu = true,
            "--tenants" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if (1..=MAX_TENANTS).contains(&n) => single_tenants = Some(n),
                _ => {
                    return usage(&format!(
                        "--tenants needs a positive integer, at most {MAX_TENANTS}"
                    ))
                }
            },
            "--shards" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if (1..=MAX_THREADS).contains(&n) => shards = n,
                _ => return usage(&threads_needed("--shards")),
            },
            "--checkpoint-dir" => match args.next() {
                Some(dir) => durability.dir = Some(dir.into()),
                None => return usage("--checkpoint-dir needs a directory"),
            },
            "--checkpoint-every" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => durability.checkpoint_every = n,
                _ => return usage("--checkpoint-every needs a positive integer"),
            },
            "--resume" => durability.resume = true,
            "--slot-delay-ms" => match args.next().and_then(|v| v.parse().ok()) {
                Some(ms) => durability.slot_delay_ms = ms,
                None => return usage("--slot-delay-ms needs an integer"),
            },
            "--validate" => spotdc_sim::validate::set_forced(true),
            "--quiet" | "-q" => quiet = true,
            "--help" | "-h" => return usage(""),
            other => return usage(&format!("unknown argument: {other}")),
        }
    }
    let reporter = Reporter::new(quiet);
    if single_mode.is_none() && (durability.dir.is_some() || durability.resume) {
        return usage("--checkpoint-dir/--resume require --mode (single-run durability)");
    }
    if let (Some(flag), None) = (checkpoint_flag, &durability.dir) {
        return usage(&format!("{flag} requires --checkpoint-dir"));
    }
    if single_mode.is_none() && (single_per_pdu || single_tenants.is_some() || shards > 1) {
        return usage("--per-pdu/--tenants/--shards require --mode (single runs)");
    }
    if single_mode.is_some() && (!selected.is_empty() || out_dir.is_some() || suite_flag) {
        return usage(
            "--exp/--out/--days/--quick/--jobs shape the experiment suite; --mode single \
             runs take --slots/--seed/--tenants/--inner-jobs/--telemetry/--per-pdu/--shards \
             and the checkpoint flags",
        );
    }
    // Experiment-level workers come from the pool below; this seeds the
    // in-experiment fan-out (run_modes & co) with the same budget.
    spotdc_par::set_default_threads(jobs);
    // Install telemetry up front, before any worker thread races to
    // install an engine default (the in-engine install is a no-op once
    // a sink is in place). Keep the typed sink handle so write errors
    // can fail the run at exit instead of shipping a truncated log.
    let mut file_sink: Option<Arc<FileSink>> = None;
    if let Some(path) = &telemetry_path {
        match FileSink::create(path) {
            Ok(sink) => {
                let sink = Arc::new(sink);
                file_sink = Some(sink.clone());
                spotdc_telemetry::install_with_sink(
                    TelemetryConfig {
                        enabled: true,
                        sink: SinkKind::File,
                        sample_every: 1,
                    },
                    sink,
                );
            }
            Err(e) => {
                reporter.error(&format!("cannot create {}: {e}", path.display()));
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(mode) = single_mode {
        // Single-run mode shares the telemetry plumbing above but none
        // of the experiment machinery below; finish the sink before
        // returning so the JSONL artifact is complete.
        let code = run_single(
            SingleRun {
                mode,
                slots: single_slots,
                seed: cfg.seed,
                inner_jobs: cfg.inner_jobs,
                per_pdu: single_per_pdu,
                tenants: single_tenants,
                shards,
                durability,
            },
            &reporter,
        );
        if let Some(path) = &telemetry_path {
            // stderr, not stdout: the rendered report must stay the
            // only stdout so crash-recovery byte-diffs hold.
            reporter.status(&span_timings(path));
        }
        if telemetry_log_truncated(file_sink.as_deref(), &reporter) {
            return ExitCode::FAILURE;
        }
        return code;
    }
    let ids: Vec<String> = if selected.is_empty() {
        all_ids().into_iter().map(str::to_owned).collect()
    } else {
        selected
    };
    // Audit the selection up front: an unknown id fails the run before
    // any experiment burns time, and the message lists what is valid.
    let unknown: Vec<&str> = ids
        .iter()
        .map(String::as_str)
        .filter(|id| !all_ids().contains(id))
        .collect();
    if !unknown.is_empty() {
        reporter.error(&format!(
            "error: unknown experiment id(s): {}\nvalid ids: {}",
            unknown.join(", "),
            all_ids().join(", ")
        ));
        return ExitCode::FAILURE;
    }
    reporter.progress(&format!(
        "# SpotDC reproduction — seed {}, horizon {} days{}\n",
        cfg.seed,
        cfg.days,
        if cfg.quick { " (quick)" } else { "" }
    ));
    if let Some(dir) = &out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            reporter.error(&format!("cannot create {}: {e}", dir.display()));
            return ExitCode::FAILURE;
        }
    }
    let id_refs: Vec<&str> = ids.iter().map(String::as_str).collect();
    let started = Instant::now();
    let timed = run_selected(&id_refs, &cfg, spotdc_par::ThreadPool::new(jobs));
    let total = started.elapsed();
    // Render in id order from this thread only: stdout bodies are
    // byte-identical to a serial run regardless of the job count.
    for (id, slot) in ids.iter().zip(&timed) {
        match slot {
            Some(t) => {
                reporter.progress(&t.output.to_string());
                if let Some(dir) = &out_dir {
                    let path = dir.join(format!("{id}.txt"));
                    if let Err(e) = std::fs::write(&path, t.output.to_string()) {
                        reporter.error(&format!("cannot write {}: {e}", path.display()));
                        return ExitCode::FAILURE;
                    }
                }
            }
            None => {
                // Unreachable given the up-front audit, but kept so a
                // registry/runner mismatch still fails loudly.
                reporter.error(&format!("unknown experiment id: {id} (try --list-exps)"));
                return ExitCode::FAILURE;
            }
        }
    }
    reporter.status(&format!(
        "# {} experiments in {:.2}s on {jobs} worker(s)",
        ids.len(),
        total.as_secs_f64()
    ));
    if let Some(path) = &telemetry_path {
        reporter.progress(&span_timings(path));
    }
    if telemetry_log_truncated(file_sink.as_deref(), &reporter) {
        return ExitCode::FAILURE;
    }
    // With --validate, turn any market-invariant violation into a
    // failing exit even in release, where debug_assert! is compiled out.
    let violations = spotdc_sim::validate::violations();
    if spotdc_sim::validate::forced() && violations > 0 {
        reporter.error(&format!(
            "error: {violations} market invariant violation(s)"
        ));
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Everything one `--mode` run needs, bundled off the flag parser.
struct SingleRun {
    mode: Mode,
    slots: u64,
    seed: u64,
    inner_jobs: usize,
    per_pdu: bool,
    /// `Scenario::hyperscale`'s tenant count; `None` is the testbed.
    tenants: Option<usize>,
    shards: usize,
    durability: DurabilityConfig,
}

/// One durable (or plain, without `--checkpoint-dir`) simulation whose
/// report renders to stdout deterministically. Everything the
/// durability layer did — recovery, checkpoints — goes to stderr, so
/// `scripts/crash_harness` can byte-compare stdout against an
/// uninterrupted golden run, and `scripts/smoke_dist` can byte-compare
/// sharded runs against `--shards 1`.
fn run_single(run: SingleRun, reporter: &Reporter) -> ExitCode {
    let SingleRun {
        mode,
        slots,
        seed,
        inner_jobs,
        per_pdu,
        tenants,
        shards,
        durability,
    } = run;
    let scenario = match tenants {
        Some(n) => Scenario::hyperscale(seed, n),
        None => Scenario::testbed(seed),
    };
    let config = EngineConfig {
        durability,
        inner_jobs,
        per_pdu_pricing: per_pdu,
        shards,
        ..EngineConfig::new(mode)
    };
    let written = with_stdout(|out| {
        writeln!(out, "# repro --mode run: seed {seed}, {slots} slots")?;
        let outcome = Simulation::new(scenario, config).run_durable_to(slots, Some(out))?;
        if let Some(r) = &outcome.recovery {
            let damage = r.truncated.as_ref().map_or_else(String::new, |d| {
                format!(
                    ", record log tail {} ({} bytes dropped)",
                    d.reason, d.dropped_bytes
                )
            });
            reporter.status(&format!(
                "# recovered: snapshot {}, {} slot(s) replayed{damage}",
                r.snapshot_slot
                    .map_or_else(|| "none".to_owned(), |s| s.to_string()),
                r.replayed_slots,
            ));
        }
        reporter.status(&format!(
            "# {} checkpoint(s) written",
            outcome.checkpoints_written
        ));
        Ok(outcome.report.write_summary(out)?)
    });
    if let Err(e) = written {
        reporter.error(&format!("error: {e}"));
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Flushes the `--telemetry` log at `path` and renders its per-span
/// latency table: exact nearest-rank quantiles over every `SpanClosed`
/// the run wrote (`spotdc-trace --run <id>` splits it by run).
fn span_timings(path: &Path) -> String {
    spotdc_telemetry::flush();
    let table = match std::fs::read_to_string(path) {
        Ok(body) => Analysis::from_jsonl(&body, None).render_latency(),
        Err(e) => format!("cannot read {}: {e}\n", path.display()),
    };
    format!("## telemetry span timings\n\n{table}")
}

/// Reports `--telemetry` write failures; true means the JSONL log is
/// truncated and the run must fail rather than ship it.
fn telemetry_log_truncated(sink: Option<&FileSink>, reporter: &Reporter) -> bool {
    let Some(sink) = sink.filter(|s| s.write_errors() > 0) else {
        return false;
    };
    reporter.error(&format!(
        "error: {} telemetry write(s) failed (log truncated): {}",
        sink.write_errors(),
        sink.first_error().unwrap_or_default()
    ));
    true
}

/// The usage error of a thread-count flag.
fn threads_needed(flag: &str) -> String {
    format!("{flag} needs a positive integer, at most {MAX_THREADS}")
}

fn usage(error: &str) -> ExitCode {
    if !error.is_empty() {
        eprintln!("error: {error}\n");
    }
    eprintln!(
        "usage: repro [--exp <id>]... [--days <n ≤ {MAX_DAYS}>] [--seed <n>] [--quick]\n\
         \x20            [--jobs <n ≤ {MAX_THREADS}>] [--inner-jobs <n ≤ {MAX_THREADS}>] [--list-exps]\n\
         \x20            [--out <dir>] [--telemetry <file>]\n\
         \x20            [--validate] [--quiet]\n\
         \x20      repro --mode <powercapped|spotdc|maxperf> [--slots <n ≤ {MAX_SLOTS}>]\n\
         \x20            [--seed <n>] [--tenants <n ≤ {MAX_TENANTS}>] [--inner-jobs <n ≤ {MAX_THREADS}>]\n\
         \x20            [--telemetry <file>] [--per-pdu] [--shards <n ≤ {MAX_THREADS}>]\n\
         \x20            [--checkpoint-dir <dir>] [--checkpoint-every <n>] [--resume]\n\
         \x20            [--slot-delay-ms <n>]\n\
         experiments: {}",
        all_ids().join(", ")
    );
    if error.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
