//! `suite` runs every workload several times, each run in its own
//! process, into one JSON file; `compare` sets two such files side by
//! side — per metric × workload both medians, the bound, and `within` /
//! `worse` / `unresolved` — and is what a later PR's reviewer runs.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

use crate::json::Json;
use crate::schema::{Better, Workload, END_TO_END, PER_LAYER};
use crate::stats;

/// One run as stored in a suite file.
#[derive(Debug, Clone, PartialEq)]
pub struct RunEntry {
    /// Workload name.
    pub workload: String,
    /// Seed the run used.
    pub seed: u64,
    /// Whether it was a traced run.
    pub trace: bool,
    /// The run's `sim_digest`.
    pub digest: String,
    /// The result line's `correct`.
    pub correct: bool,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// Where B's median stands against A's for one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the bound allows.
    Within,
    /// Worse by more than the bound.
    Worse,
    /// Run-to-run spread is wider than the bound, so "no worse" cannot
    /// be told from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `b` (the change) against `a` (the parent). A spread wider
/// than the bound makes the pair unresolved rather than unchanged —
/// unless every run of `b` reads at least as well as every run of `a`.
#[must_use]
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let worse_by = match better {
        Better::Lower => mb - ma,
        Better::Higher => ma - mb,
    };
    if worse_by > bound * ma.abs() {
        return Verdict::Worse;
    }
    let no_run_worse = a.iter().all(|&x| {
        b.iter().all(|&y| match better {
            Better::Lower => y <= x,
            Better::Higher => y >= x,
        })
    });
    if !no_run_worse && (stats::spread(a) > bound || stats::spread(b) > bound) {
        return Verdict::Unresolved;
    }
    Verdict::Within
}

/// Parses a suite file.
///
/// # Errors
///
/// Returns a message naming what is missing or malformed.
pub fn parse_suite(text: &str) -> Result<Vec<RunEntry>, String> {
    let doc = Json::parse(text)?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_array)
        .ok_or("suite file has no \"runs\" array")?;
    runs.iter()
        .map(|run| {
            let text_of = |key: &str| {
                run.get(key)
                    .and_then(Json::as_str)
                    .map(str::to_owned)
                    .ok_or(format!("run lacks \"{key}\""))
            };
            let number = |key: &str| {
                run.get(key)
                    .and_then(Json::as_f64)
                    .ok_or(format!("run lacks \"{key}\""))
            };
            let result = run.get("result").ok_or("run lacks \"result\"")?;
            let metrics = result
                .get("metrics")
                .and_then(Json::as_object)
                .ok_or("result lacks \"metrics\"")?
                .iter()
                .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
                .collect();
            Ok(RunEntry {
                workload: text_of("workload")?,
                seed: number("seed")? as u64,
                trace: number("trace")? != 0.0,
                digest: text_of("digest")?,
                correct: result.get("correct") == Some(&Json::Bool(true)),
                metrics,
            })
        })
        .collect()
}

fn values(runs: &[RunEntry], workload: &str, trace: bool, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload && r.trace == trace)
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

/// Renders the comparison and reports whether anything is `worse` (or
/// any run incorrect).
#[must_use]
pub fn compare(a: &[RunEntry], b: &[RunEntry]) -> (String, bool) {
    let mut out = String::new();
    let mut bad = false;
    let _ = writeln!(
        out,
        "{:<14} {:<24} {:>14} {:>14} {:>6} {:>8} {:>8}  verdict",
        "workload", "metric", "median A", "median B", "bound", "spread A", "spread B"
    );
    for workload in Workload::ALL.map(Workload::name) {
        for def in END_TO_END {
            let (va, vb) = (
                values(a, workload, false, def.name),
                values(b, workload, false, def.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            let v = verdict(&va, &vb, def.better, bound);
            bad |= v == Verdict::Worse;
            let _ = writeln!(
                out,
                "{:<14} {:<24} {:>14.6} {:>14.6} {:>6.3} {:>8.4} {:>8.4}  {}",
                workload,
                def.name,
                stats::median(&va),
                stats::median(&vb),
                bound,
                stats::spread(&va),
                stats::spread(&vb),
                v.as_str()
            );
        }
    }

    // Simulated outputs are deterministic per seed: a speed-only change
    // leaves the digest of every (workload, seed) untouched.
    let mut digests: BTreeMap<(&str, u64), BTreeSet<&str>> = BTreeMap::new();
    for run in a.iter().chain(b) {
        digests
            .entry((&run.workload, run.seed))
            .or_default()
            .insert(&run.digest);
    }
    for ((workload, seed), set) in &digests {
        let state = if set.len() == 1 {
            "bit-identical"
        } else {
            "DIFFERS (simulated behaviour changed)"
        };
        let _ = writeln!(out, "{workload:<14} sim_digest seed {seed}: {state}");
    }

    // Count-type layer metrics repeat exactly and may carry claims.
    for workload in Workload::ALL.map(Workload::name) {
        let differing: Vec<&str> = PER_LAYER
            .iter()
            .filter(|def| def.unit == "count")
            .filter(|def| {
                let mut all = values(a, workload, true, def.name);
                all.extend(values(b, workload, true, def.name));
                all.windows(2).any(|w| w[0] != w[1])
            })
            .map(|def| def.name)
            .collect();
        if values(a, workload, true, PER_LAYER[0].name).is_empty() {
            continue;
        }
        if differing.is_empty() {
            let _ = writeln!(out, "{workload:<14} layer counts: identical");
        } else {
            let _ = writeln!(
                out,
                "{workload:<14} layer counts differ: {}",
                differing.join(", ")
            );
        }
    }

    let incorrect = a.iter().chain(b).filter(|r| !r.correct).count();
    if incorrect > 0 {
        bad = true;
        let _ = writeln!(out, "{incorrect} run(s) reported correct: false");
    }
    (out, bad)
}

/// What `suite` runs.
#[derive(Debug, Clone)]
pub struct SuiteArgs {
    /// Runs per workload.
    pub runs: usize,
    /// Seed of every run.
    pub seed: u64,
    /// `--seconds` of every run.
    pub seconds: f64,
    /// Use the `--smoke` size.
    pub smoke: bool,
    /// Add one traced run per workload.
    pub traced: bool,
}

/// Runs every workload `runs` times, each in its own process (the
/// telemetry install is process-global and sticky), alternating the
/// workload order between rounds, and writes the suite file.
///
/// # Errors
///
/// Returns a message when a child cannot be started, exits nonzero, or
/// prints no result line.
pub fn suite(args: &SuiteArgs, out: &Path) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut entries = Vec::new();
    let rounds = args.runs + usize::from(args.traced);
    for round in 0..rounds {
        let trace = round >= args.runs;
        let mut order = Workload::ALL.to_vec();
        if round % 2 == 1 {
            order.reverse();
        }
        for workload in order {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload.name()])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }]);
            if args.smoke {
                cmd.arg("--smoke");
            }
            eprintln!(
                "# round {round}: {} (trace {})",
                workload.name(),
                u8::from(trace)
            );
            let output = cmd.output().map_err(|e| format!("spawn: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            if !output.status.success() {
                return Err(format!(
                    "{} exited with {}:\n{stdout}{}",
                    workload.name(),
                    output.status,
                    String::from_utf8_lossy(&output.stderr)
                ));
            }
            let result = stdout
                .lines()
                .last()
                .filter(|line| Json::parse(line).is_ok())
                .ok_or_else(|| format!("{} printed no result line", workload.name()))?;
            let digest = stdout
                .lines()
                .find_map(|line| line.strip_prefix("sim_digest "))
                .unwrap_or("");
            entries.push(format!(
                "    {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"digest\": \"{digest}\", \"result\": {result}}}",
                workload.name(),
                args.seed,
                u8::from(trace),
            ));
        }
    }
    let body = format!("{{\n  \"runs\": [\n{}\n  ]\n}}\n", entries.join(",\n"));
    if let Some(parent) = out.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(out, body).map_err(|e| format!("{}: {e}", out.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_is_direction_aware() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [90.0, 91.0, 89.0, 90.5, 89.5];
        assert_eq!(verdict(&a, &slower, Better::Higher, 0.05), Verdict::Worse);
        assert_eq!(verdict(&a, &slower, Better::Lower, 0.05), Verdict::Within);
        assert_eq!(verdict(&a, &a, Better::Higher, 0.05), Verdict::Within);
        // 3 % down with a 5 % bound is inside it.
        let slightly = [97.0, 98.0, 96.0, 97.5, 96.5];
        assert_eq!(
            verdict(&a, &slightly, Better::Higher, 0.05),
            Verdict::Within
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        let noisy_a = [100.0, 80.0, 120.0, 90.0, 110.0];
        let noisy_b = [101.0, 79.0, 121.0, 91.0, 109.0];
        assert_eq!(
            verdict(&noisy_a, &noisy_b, Better::Higher, 0.05),
            Verdict::Unresolved
        );
        let clearly_better = [130.0, 140.0, 125.0, 150.0, 135.0];
        assert_eq!(
            verdict(&noisy_a, &clearly_better, Better::Higher, 0.05),
            Verdict::Within
        );
        // Worse beyond the bound stays worse, however noisy.
        let clearly_worse = [50.0, 40.0, 60.0, 45.0, 55.0];
        assert_eq!(
            verdict(&noisy_a, &clearly_worse, Better::Higher, 0.05),
            Verdict::Worse
        );
    }

    fn suite_text(rate: f64, digest: &str) -> String {
        let runs: Vec<String> = (0..5)
            .map(|i| {
                format!(
                    "{{\"workload\": \"testbed-modes\", \"seed\": 42, \"trace\": 0, \"digest\": \"{digest}\", \"result\": {{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {{\"slots_per_sec\": {{\"value\": {}, \"unit\": \"slots/s\"}}}}}}}}",
                    rate + f64::from(i)
                )
            })
            .collect();
        format!("{{\"runs\": [{}]}}", runs.join(","))
    }

    #[test]
    fn compare_flags_a_regression_and_a_changed_digest() {
        let a = parse_suite(&suite_text(1000.0, "aa")).expect("parse a");
        assert_eq!(a.len(), 5);
        assert_eq!(a[0].metrics["slots_per_sec"], 1000.0);
        let same = parse_suite(&suite_text(1001.0, "aa")).expect("parse");
        let (text, bad) = compare(&a, &same);
        assert!(!bad, "{text}");
        assert!(text.contains("within") && text.contains("bit-identical"));
        let slow = parse_suite(&suite_text(500.0, "bb")).expect("parse");
        let (text, bad) = compare(&a, &slow);
        assert!(bad);
        assert!(text.contains("worse") && text.contains("DIFFERS"));
    }

    #[test]
    fn malformed_suite_files_are_rejected() {
        assert!(parse_suite("{}").is_err());
        assert!(parse_suite("{\"runs\": [{}]}").is_err());
        assert!(parse_suite("not json").is_err());
    }
}
