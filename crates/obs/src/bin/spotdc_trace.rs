//! `spotdc-trace`: analyze SpotDC JSONL event logs.
//!
//! ```text
//! spotdc-trace [--json] [--run <id>] <log.jsonl>...
//! ```
//!
//! Ingests one or more JSONL event logs (the `telemetry.jsonl` the
//! repro binary writes) and prints per-stage latency breakdowns, market
//! time-series statistics, and an anomaly summary. `--run headline`
//! keeps the experiment and each of its simulations (`headline/0`,
//! `headline/1`, ...); `--run headline/2` keeps one simulation. Output
//! is deterministic: the same logs produce byte-identical reports on
//! every run.
//!
//! Exit status: 0 on success, 1 when the input yields zero parsed
//! events (empty logs, entirely malformed logs, or a `--run` filter
//! matching nothing — analysis of nothing is an operator error, not a
//! report), 2 on usage or I/O errors. Anomalies in the log
//! (emergencies, invariant violations) do *not* fail the exit status —
//! finding them is the tool's job, not an error.

use std::process::ExitCode;

use spotdc_obs::Analysis;

const USAGE: &str = "usage: spotdc-trace [--json] [--run <id>] <log.jsonl>...\n\
\n\
Analyze SpotDC JSONL event logs (telemetry.jsonl): per-stage latency\n\
breakdowns, market series, anomaly summary.\n\
\n\
  --json       machine-readable output (one JSON object)\n\
  --run <id>   keep only events tagged <id> or <id>/... (its simulations)\n\
  -h, --help   this help\n";

fn main() -> ExitCode {
    let mut json = false;
    let mut run: Option<String> = None;
    let mut paths: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--run" => match args.next() {
                Some(id) => run = Some(id),
                None => {
                    eprintln!("error: --run needs a run id\n\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("error: unknown flag {other:?}\n\n{USAGE}");
                return ExitCode::from(2);
            }
            path => paths.push(path.to_owned()),
        }
    }
    if paths.is_empty() {
        eprintln!("error: no log files given\n\n{USAGE}");
        return ExitCode::from(2);
    }

    let mut body = String::new();
    for path in &paths {
        // Bytes, decoded lossily: a log torn inside a multi-byte
        // character (a `FileSink` tail after `kill -9`) costs the one
        // damaged line, not the file.
        match std::fs::read(path) {
            Ok(content) => {
                body.push_str(&String::from_utf8_lossy(&content));
                if !body.ends_with('\n') {
                    body.push('\n');
                }
            }
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }

    let analysis = Analysis::from_jsonl(&body, run.as_deref());
    if analysis.events == 0 {
        // A report over zero events would render all-zero tables that
        // look like a healthy idle system; say what went wrong instead.
        if !analysis.malformed.is_empty() {
            eprintln!(
                "error: no events parsed from {}: all {} non-empty line(s) are malformed \
                 (first: line {}: {})",
                paths.join(", "),
                analysis.malformed.len(),
                analysis.malformed[0].0,
                analysis.malformed[0].1
            );
        } else if analysis.filtered_out > 0 {
            eprintln!(
                "error: no events match --run {:?} ({} event(s) filtered out)",
                run.as_deref().unwrap_or_default(),
                analysis.filtered_out
            );
        } else {
            eprintln!("error: no events found in {}", paths.join(", "));
        }
        return ExitCode::FAILURE;
    }
    if json {
        println!("{}", analysis.render_json());
    } else {
        print!("{}", analysis.render_text());
    }
    ExitCode::SUCCESS
}
