//! `repro`'s command-line contract: `--list` prints the experiment
//! registry, a reader that goes away is not an error, a `--mode` run
//! prints the goldens' text form, honours the flags it takes and
//! refuses the suite's, and a bad flag value is a usage error (exit 2)
//! before anything runs.

use std::process::{Command, Stdio};

#[test]
fn list_prints_the_registry_in_order() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--list")
        .output()
        .expect("run repro");
    assert!(out.status.success(), "exit {:?}", out.status);
    assert!(out.stderr.is_empty(), "{:?}", out.stderr);
    let stdout = String::from_utf8(out.stdout).expect("ids are UTF-8");
    let listed: Vec<&str> = stdout.lines().collect();
    assert_eq!(listed, spotdc_sim::experiments::all_ids());
}

#[test]
fn list_into_a_closed_pipe_exits_cleanly() {
    // The read end is gone before the child starts, so its first write
    // fails with EPIPE — `repro --list | head -1` without the race.
    let (reader, writer) = std::io::pipe().expect("create pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--list")
        .stdout(Stdio::from(writer))
        .stderr(Stdio::piped())
        .output()
        .expect("run repro");
    assert!(
        out.status.success(),
        "exit {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        out.stderr.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn mode_prints_the_golden_body_after_its_header() {
    // The goldens pin the report's one text form; `--mode` streams it.
    let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    for mode in ["powercapped", "spotdc", "maxperf"] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["--mode", mode, "--slots", "120", "--seed", "42", "--quiet"])
            .output()
            .expect("run repro");
        assert!(
            out.status.success(),
            "{mode}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).expect("report is UTF-8");
        let expected =
            std::fs::read_to_string(golden.join(format!("{mode}.txt"))).expect("read the golden");
        let body = |text: &str| text.split_once('\n').map(|(_, body)| body.to_owned());
        assert_eq!(
            stdout.lines().next(),
            Some("# repro --mode run: seed 42, 120 slots")
        );
        assert!(
            body(&stdout) == body(&expected),
            "{mode}: body differs from the golden"
        );
    }
}

#[test]
fn mode_into_a_closed_pipe_exits_cleanly() {
    let (reader, writer) = std::io::pipe().expect("create pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--mode", "spotdc", "--slots", "30", "--quiet"])
        .stdout(Stdio::from(writer))
        .stderr(Stdio::piped())
        .output()
        .expect("run repro");
    assert!(
        out.status.success(),
        "exit {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        out.stderr.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn a_mode_run_refused_before_its_first_slot_prints_nothing() {
    // A checkpoint dir under a regular file fails the engine's
    // up-front validation, after the header was already buffered.
    let file = std::env::temp_dir().join(format!("repro-cli-file-{}", std::process::id()));
    std::fs::write(&file, b"").expect("create the file");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "--mode",
            "spotdc",
            "--slots",
            "2",
            "--quiet",
            "--checkpoint-dir",
        ])
        .arg(file.join("ckpt"))
        .output()
        .expect("run repro");
    std::fs::remove_file(&file).expect("remove the file");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("is not writable"), "{stderr}");
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn tenants_runs_the_hyperscale_scenario_and_needs_a_mode() {
    let run = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("run repro")
    };
    let out = run(&[
        "--mode",
        "spotdc",
        "--tenants",
        "16",
        "--slots",
        "2",
        "--quiet",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = String::from_utf8(out.stdout).expect("report is UTF-8");
    // One subscription per participating tenant: 16, not the testbed's 8.
    let subscriptions = report
        .split("subscriptions=[")
        .nth(1)
        .and_then(|rest| rest.split(']').next())
        .expect("the report lists subscriptions");
    assert_eq!(subscriptions.matches("Watts(").count(), 16, "{report}");

    let out = run(&["--tenants", "16"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("require --mode"));
}

#[test]
fn days_must_be_a_finite_positive_number() {
    for days in ["nan", "inf", "0", "-1", "1e300", "3660.5"] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["--exp", "fig12", "--days", days, "--quiet"])
            .output()
            .expect("run repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--days {days}: {stderr}");
        assert!(
            stderr.contains("--days needs a finite number of days > 0, at most 3660"),
            "--days {days}: {stderr}"
        );
        assert!(stderr.contains("[--days <n ≤ 3660>]"), "{stderr}");
        assert!(out.stdout.is_empty(), "--days {days} ran something");
    }
}

#[test]
fn slots_must_be_a_positive_count_within_the_horizon() {
    // 3 660 days of 2-minute slots is the ceiling; u64::MAX used to
    // reach an allocation and panic with `capacity overflow`.
    for slots in ["18446744073709551615", "2635201", "0", "-1", "x"] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["--mode", "spotdc", "--slots", slots, "--quiet"])
            .output()
            .expect("run repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--slots {slots}: {stderr}");
        assert!(
            stderr.contains("--slots needs a positive integer, at most 2635200"),
            "--slots {slots}: {stderr}"
        );
        assert!(stderr.contains("[--slots <n ≤ 2635200>]"), "{stderr}");
        assert!(out.stdout.is_empty(), "--slots {slots} ran something");
    }
}

#[test]
fn thread_counts_are_bounded() {
    // Each value is followed by an unknown argument, so a parser that
    // took it would still stop with a usage error before any thread
    // starts, and the message check below would catch it.
    for flag in ["--shards", "--inner-jobs", "--jobs"] {
        for n in ["257", "100000", "18446744073709551615", "0"] {
            let out = Command::new(env!("CARGO_BIN_EXE_repro"))
                .args(["--mode", "spotdc", "--slots", "1", "--quiet"])
                .args([flag, n, "--not-a-flag"])
                .output()
                .expect("run repro");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{flag} {n}: {stderr}");
            assert!(
                stderr.contains(&format!("{flag} needs a positive integer, at most 256")),
                "{flag} {n}: {stderr}"
            );
            assert!(out.stdout.is_empty(), "{flag} {n} ran something");
        }
    }
}

#[test]
fn tenant_counts_are_bounded() {
    // As above: the unknown argument after each value stops a parser
    // that took it before any scenario is built.
    for n in ["100001", "4611686018427387904", "18446744073709551615", "0"] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["--mode", "spotdc", "--slots", "1", "--quiet"])
            .args(["--tenants", n, "--not-a-flag"])
            .output()
            .expect("run repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--tenants {n}: {stderr}");
        assert!(
            stderr.contains("--tenants needs a positive integer, at most 100000"),
            "--tenants {n}: {stderr}"
        );
        assert!(stderr.contains("usage: repro"), "--tenants {n}: {stderr}");
        assert!(out.stdout.is_empty(), "--tenants {n} ran something");
    }
}

#[test]
fn suite_only_flags_are_usage_errors_with_a_mode() {
    for flag in [&["--days", "3"][..], &["--quick"], &["--jobs", "2"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["--mode", "spotdc", "--slots", "1", "--quiet"])
            .args(flag)
            .output()
            .expect("run repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag:?}: {stderr}");
        assert!(
            stderr.contains("--exp/--out/--days/--quick/--jobs shape the experiment suite"),
            "{flag:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{flag:?} ran something");
    }
}

#[test]
fn durability_flags_are_usage_errors_without_a_checkpoint_dir() {
    let dir = std::env::temp_dir().join(format!("repro-cli-ckpt-{}", std::process::id()));
    let dir = dir.to_str().expect("temp dir is UTF-8");
    let cases: [(&[&str], &str); 4] = [
        (
            &["--checkpoint-dir", dir, "--checkpoint-every", "0"],
            "--checkpoint-every needs a positive integer",
        ),
        (&["--resume"], "--resume requires --checkpoint-dir"),
        (
            &["--checkpoint-every", "5"],
            "--checkpoint-every requires --checkpoint-dir",
        ),
        (
            &["--slot-delay-ms", "5"],
            "--slot-delay-ms requires --checkpoint-dir",
        ),
    ];
    for (flags, expected) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["--mode", "spotdc", "--slots", "1", "--quiet"])
            .args(flags)
            .output()
            .expect("run repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flags:?}: {stderr}");
        assert!(stderr.contains(expected), "{flags:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{flags:?} ran something");
    }
    assert!(
        !std::path::Path::new(dir).exists(),
        "a refused run created its checkpoint dir"
    );
}

#[test]
fn inner_jobs_reaches_a_single_run() {
    // Only an inner pool wider than one fans per-PDU sub-markets out,
    // and each fan-out closes one `par.clear_per_pdu` span.
    let fanned_out = |width: &str| {
        let log = std::env::temp_dir().join(format!(
            "repro-cli-inner-{width}-{}.jsonl",
            std::process::id()
        ));
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["--mode", "spotdc", "--per-pdu", "--tenants", "64"])
            .args(["--slots", "2", "--inner-jobs", width, "--quiet"])
            .arg("--telemetry")
            .arg(&log)
            .output()
            .expect("run repro");
        assert!(
            out.status.success(),
            "--inner-jobs {width}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let body = std::fs::read_to_string(&log).expect("read the telemetry log");
        std::fs::remove_file(&log).expect("remove the telemetry log");
        body.contains("par.clear_per_pdu")
    };
    assert!(!fanned_out("1"));
    assert!(fanned_out("2"));
}
