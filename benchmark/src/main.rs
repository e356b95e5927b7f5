//! `spotdc-benchmark` — one workload per process.
//!
//! ```text
//! spotdc-benchmark --workload perpdu-15k [--seed 42] [--seconds 10] [--trace 0|1] [--smoke]
//! spotdc-benchmark suite --out A.json [--runs 5] [--seed 42] [--seconds 10] [--traced] [--smoke]
//! spotdc-benchmark compare A.json B.json
//! spotdc-benchmark manifest            # prints BENCHMARK.json
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use spotdc_benchmark::compare::{self, SuiteArgs};
use spotdc_benchmark::run::{self, RunArgs};
use spotdc_benchmark::schema::{self, Workload, END_TO_END, PER_LAYER, RUN_SECONDS};

const USAGE: &str = "usage:
  spotdc-benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1] [--smoke]
  spotdc-benchmark suite --out <file> [--runs <n>] [--seed <n>] [--seconds <s>] [--traced] [--smoke]
  spotdc-benchmark compare <A.json> <B.json>
  spotdc-benchmark manifest
workloads: testbed-modes armed-3k perpdu-15k sharded-15k clear-replay";

fn fail(message: &str) -> ExitCode {
    eprintln!("error: {message}\n{USAGE}");
    ExitCode::from(2)
}

/// Flags shared by a single run and `suite`.
#[derive(Debug)]
struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    runs: usize,
    traced: bool,
    out: Option<PathBuf>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: 42,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        runs: 5,
        traced: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => flags.workload = Some(value()?.clone()),
            "--seed" => flags.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                flags.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds needs a non-negative number")?;
            }
            "--trace" => {
                flags.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".to_owned()),
                }
            }
            "--runs" => {
                flags.runs = value()?
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or("--runs needs a positive integer")?;
            }
            "--out" => flags.out = Some(PathBuf::from(value()?)),
            "--smoke" => flags.smoke = true,
            "--traced" => flags.traced = true,
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(flags)
}

fn run_one(flags: &Flags) -> ExitCode {
    let Some(name) = flags.workload.as_deref() else {
        return fail("--workload is required");
    };
    let Some(workload) = Workload::parse(name) else {
        return fail(&format!("unknown workload: {name}"));
    };
    let args = RunArgs {
        workload,
        seed: flags.seed,
        seconds: flags.seconds,
        trace: flags.trace,
        smoke: flags.smoke,
    };
    println!(
        "# {} seed {} seconds {} trace {}{}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.smoke { " (smoke size)" } else { "" }
    );
    // A panic inside the crates must still count: it unwinds (dropping
    // the scratch dir) and surfaces here as a failed run.
    let result = match std::panic::catch_unwind(|| run::run(args)) {
        Ok(Ok(result)) => result,
        Ok(Err(message)) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
        Err(_) => {
            eprintln!("error: the run panicked");
            return ExitCode::FAILURE;
        }
    };
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let rows = result.metrics.rows(table);
    for (def, value) in &rows {
        println!("metric {} {} {}", def.name, value, def.unit);
    }
    println!("sim_digest {}", result.digest);
    for (ok, what) in &result.checks {
        println!("check {} {what}", if *ok { "ok" } else { "FAILED" });
    }
    println!(
        "fail_share {}",
        result.failed as f64 / result.attempted.max(1) as f64
    );
    println!(
        "{}",
        schema::result_line(
            result.correct(),
            result.attempted.max(1),
            result.failed,
            &rows
        )
    );
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None | Some("--help" | "-h") => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some("manifest") => {
            print!("{}", schema::manifest());
            ExitCode::SUCCESS
        }
        Some("compare") => {
            let [_, a, b] = args.as_slice() else {
                return fail("compare needs exactly two suite files");
            };
            let load = |path: &String| {
                std::fs::read_to_string(path)
                    .map_err(|e| format!("{path}: {e}"))
                    .and_then(|text| {
                        compare::parse_suite(&text).map_err(|e| format!("{path}: {e}"))
                    })
            };
            match (load(a), load(b)) {
                (Ok(a), Ok(b)) => {
                    let (text, bad) = compare::compare(&a, &b);
                    print!("{text}");
                    if bad {
                        ExitCode::FAILURE
                    } else {
                        ExitCode::SUCCESS
                    }
                }
                (Err(e), _) | (_, Err(e)) => fail(&e),
            }
        }
        Some("suite") => {
            let flags = match parse_flags(&args[1..]) {
                Ok(flags) => flags,
                Err(e) => return fail(&e),
            };
            let Some(out) = flags.out else {
                return fail("suite needs --out <file>");
            };
            let suite = SuiteArgs {
                runs: flags.runs,
                seed: flags.seed,
                seconds: flags.seconds,
                smoke: flags.smoke,
                traced: flags.traced,
            };
            match compare::suite(&suite, &out) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some(_) => match parse_flags(&args) {
            Ok(flags) => run_one(&flags),
            Err(e) => fail(&e),
        },
    }
}
