//! Drives the real binary at `--smoke` size: every workload, traced and
//! untraced, each in its own process (the telemetry install is
//! process-global), plus the `suite` / `compare` / failure paths.

use std::process::Command;
use std::time::Instant;

use spotdc_benchmark::json::Json;
use spotdc_benchmark::schema::{MetricDef, Workload, END_TO_END, PER_LAYER};

fn bench(args: &[&str]) -> (bool, String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_spotdc-benchmark"))
        .args(args)
        .output()
        .expect("spawn the benchmark binary");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

fn assert_result_line(stdout: &str, table: &[MetricDef], context: &str) {
    let line = stdout.lines().last().expect("some output");
    let doc = Json::parse(line).unwrap_or_else(|e| panic!("{context}: last line is not JSON: {e}"));
    let keys: Vec<&str> = doc
        .as_object()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{context}"
    );
    assert_eq!(
        doc.get("correct"),
        Some(&Json::Bool(true)),
        "{context}\n{stdout}"
    );
    assert_eq!(
        doc.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "{context}"
    );
    assert!(
        doc.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0,
        "{context}"
    );
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_object)
        .expect("metrics");
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let wanted: Vec<&str> = table.iter().map(|m| m.name).collect();
    assert_eq!(
        names, wanted,
        "{context}: emitted names differ from the table"
    );
    for ((name, metric), def) in metrics.iter().zip(table) {
        let value = metric.get("value").and_then(Json::as_f64);
        assert!(value.is_some_and(f64::is_finite), "{context}: {name}");
        assert_eq!(
            metric.get("unit").and_then(Json::as_str),
            Some(def.unit),
            "{name}"
        );
        if def.bound.is_some() {
            assert!(
                value.unwrap() > 0.0,
                "{context}: end-to-end {name} must never be 0"
            );
        }
    }
}

#[test]
fn every_workload_runs_untraced_and_traced_at_smoke_size() {
    let started = Instant::now();
    for workload in Workload::ALL {
        for (trace, table) in [("0", END_TO_END), ("1", PER_LAYER)] {
            let context = format!("{} --trace {trace}", workload.name());
            let (ok, stdout, stderr) = bench(&[
                "--workload",
                workload.name(),
                "--smoke",
                "--seconds",
                "0",
                "--trace",
                trace,
                "--seed",
                "7",
            ]);
            assert!(ok, "{context} exited nonzero\n{stdout}\n{stderr}");
            assert!(stdout.contains("\nsim_digest "), "{context}");
            assert!(!stdout.contains("check FAILED"), "{context}\n{stdout}");
            assert_result_line(&stdout, table, &context);
        }
    }
    // The budget the README promises for the smoke size (release
    // build); an unoptimised test build gets a wide allowance.
    let budget = if cfg!(debug_assertions) { 300 } else { 30 };
    assert!(
        started.elapsed().as_secs() < budget,
        "smoke size took {:?}",
        started.elapsed()
    );
}

#[test]
fn sharded_and_serial_per_pdu_agree_on_the_digest() {
    let digest = |workload: &str| {
        let (ok, stdout, _) = bench(&["--workload", workload, "--smoke", "--seconds", "0"]);
        assert!(ok, "{workload}\n{stdout}");
        stdout
            .lines()
            .find_map(|l| l.strip_prefix("sim_digest "))
            .expect("a sim_digest line")
            .to_owned()
    };
    assert_eq!(digest("perpdu-15k"), digest("sharded-15k"));
}

#[test]
fn bad_invocations_exit_nonzero_without_a_result_line() {
    for args in [
        &["--workload", "no-such-workload"][..],
        &["--workload"],
        &["--trace", "2", "--workload", "testbed-modes"],
        &["--seconds", "-1", "--workload", "testbed-modes"],
        &["--frobnicate"],
        &["compare", "only-one.json"],
        &["compare", "/nonexistent/a.json", "/nonexistent/b.json"],
        &["suite"],
    ] {
        let (ok, stdout, _) = bench(args);
        assert!(!ok, "{args:?} should fail");
        assert!(
            stdout
                .lines()
                .last()
                .is_none_or(|l| Json::parse(l).is_err()),
            "{args:?} printed a result line"
        );
    }
}

#[test]
fn suite_then_compare_agrees_with_itself() {
    let dir = spotdc_benchmark::host::OutDir::create("suite-test").expect("scratch dir");
    let file = dir.path().join("suite.json");
    let file = file.to_str().expect("utf-8 path");
    let (ok, _, stderr) = bench(&[
        "suite",
        "--smoke",
        "--runs",
        "1",
        "--seconds",
        "0",
        "--seed",
        "7",
        "--out",
        file,
    ]);
    assert!(ok, "suite failed: {stderr}");
    let text = std::fs::read_to_string(file).expect("suite file");
    let runs = spotdc_benchmark::compare::parse_suite(&text).expect("parse suite");
    assert_eq!(runs.len(), Workload::ALL.len());
    assert!(runs.iter().all(|r| r.correct && !r.digest.is_empty()));

    let (ok, stdout, _) = bench(&["compare", file, file]);
    assert!(ok, "a suite compared with itself is never worse\n{stdout}");
    assert!(stdout.contains("bit-identical") && !stdout.contains("DIFFERS"));
    for workload in Workload::ALL {
        assert!(stdout.contains(workload.name()), "{}", workload.name());
    }
}
