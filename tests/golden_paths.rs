//! Pins the output of the paths the three testbed goldens
//! (`golden_report.rs`) never run: the hyperscale scenario, per-PDU
//! pricing, and the armed operator posture (faults, the cap controller,
//! staleness, the invariant checker), cold and stopped-then-resumed.
//!
//! Each case is pinned as a 64-bit FNV-1a digest of its
//! `SimReport::write_text` bytes in `tests/golden/paths.txt`, one
//! `<case> <digest>` line each. On a mismatch the test writes the
//! rendered text to `tests/golden/<case>.actual.txt`; rendering the
//! same case on the commit that wrote the digest gives the other side
//! of the `diff`.
//!
//! Regenerate (only when a behaviour change is intended and understood):
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test golden_paths
//! ```

use std::path::{Path, PathBuf};

use spotdc_core::{OperatorConfig, StalenessPolicy};
use spotdc_faults::FaultConfig;
use spotdc_power::CapConfig;
use spotdc_sim::engine::{DurabilityConfig, EngineConfig, Simulation};
use spotdc_sim::{Mode, Scenario, SimReport};

const SEEDS: [u64; 2] = [42, 99];
const TENANTS: usize = 304;
const SLOTS: u64 = 30;
/// Where the armed case's stopped run halts, and its checkpoint period:
/// the resume loads the slot-15 checkpoint and replays two frames.
const STOP: u64 = 17;
const EVERY: u64 = 5;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn text(report: &SimReport) -> Vec<u8> {
    let mut bytes = Vec::new();
    report.write_text(&mut bytes).expect("write to memory");
    bytes
}

/// `benchmark/`'s `armed-3k` posture, telemetry aside (it does not
/// reach the report).
fn armed(seed: u64) -> EngineConfig {
    EngineConfig {
        faults: FaultConfig::uniform(0.01, seed ^ 0xfa),
        cap: CapConfig::paper_default(),
        operator: OperatorConfig {
            staleness: Some(StalenessPolicy::paper_default()),
            ..OperatorConfig::default()
        },
        validate: true,
        ..EngineConfig::new(Mode::SpotDc)
    }
}

/// `config` stopped after [`STOP`] slots in `dir`, then resumed there.
fn stopped_then_resumed(seed: u64, config: &EngineConfig, dir: &Path) -> SimReport {
    let _ = std::fs::remove_dir_all(dir);
    let mut durable = EngineConfig {
        durability: DurabilityConfig {
            dir: Some(dir.to_path_buf()),
            checkpoint_every: EVERY,
            stop_after: Some(STOP),
            ..DurabilityConfig::default()
        },
        ..config.clone()
    };
    let stopped = Simulation::new(Scenario::hyperscale(seed, TENANTS), durable.clone())
        .run_durable(SLOTS)
        .expect("stopped run");
    assert_eq!(stopped.stopped_after, Some(STOP));
    durable.durability.stop_after = None;
    durable.durability.resume = true;
    let resumed = Simulation::new(Scenario::hyperscale(seed, TENANTS), durable)
        .run_durable(SLOTS)
        .expect("resumed run");
    assert_eq!(resumed.recovery.expect("a resume").snapshot_slot, Some(15));
    let _ = std::fs::remove_dir_all(dir);
    resumed.report
}

/// Every case's name and rendered text. Per-PDU pricing is a SpotDc
/// setting (`EngineConfig::validate` refuses it for the other modes),
/// so per-PDU adds one case per seed.
fn cases() -> Vec<(String, Vec<u8>)> {
    let mut cases = Vec::new();
    for seed in SEEDS {
        let per_pdu = EngineConfig {
            per_pdu_pricing: true,
            ..EngineConfig::new(Mode::SpotDc)
        };
        let grid = [
            ("spotdc-uniform", EngineConfig::new(Mode::SpotDc)),
            ("spotdc-per-pdu", per_pdu),
            ("powercapped", EngineConfig::new(Mode::PowerCapped)),
            ("maxperf", EngineConfig::new(Mode::MaxPerf)),
            ("armed", armed(seed)),
        ];
        for (name, config) in grid {
            let report = Simulation::new(Scenario::hyperscale(seed, TENANTS), config).run(SLOTS);
            if name == "armed" {
                assert!(report.faults_injected > 0, "seed {seed}: no fault fired");
            }
            cases.push((format!("{name}-{seed}"), text(&report)));
        }
        let dir =
            std::env::temp_dir().join(format!("spotdc-golden-paths-{seed}-{}", std::process::id()));
        let resumed = stopped_then_resumed(seed, &armed(seed), &dir);
        cases.push((format!("armed-resumed-{seed}"), text(&resumed)));
    }
    cases
}

#[test]
fn hyperscale_paths_match_their_pinned_digests() {
    let path = golden_dir().join("paths.txt");
    let rendered = cases();
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        let lines: String = rendered
            .iter()
            .map(|(name, bytes)| format!("{name} {:016x}\n", fnv1a(bytes)))
            .collect();
        std::fs::write(&path, lines).unwrap();
        return;
    }
    let pinned = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing {} ({e}); regenerate with GOLDEN_REGEN=1 cargo test --test golden_paths",
            path.display()
        )
    });
    let pinned: Vec<(&str, &str)> = pinned
        .lines()
        .map(|l| l.split_once(' ').expect("`<case> <digest>` lines"))
        .collect();
    assert_eq!(
        pinned.iter().map(|&(name, _)| name).collect::<Vec<_>>(),
        rendered
            .iter()
            .map(|(name, _)| name.as_str())
            .collect::<Vec<_>>(),
        "the pinned cases are not this test's cases"
    );
    let mut moved = Vec::new();
    for ((name, bytes), (_, digest)) in rendered.iter().zip(&pinned) {
        let got = format!("{:016x}", fnv1a(bytes));
        if got != *digest {
            let actual = golden_dir().join(format!("{name}.actual.txt"));
            std::fs::write(&actual, bytes).unwrap();
            moved.push(format!(
                "{name}: {got}, pinned {digest}; text in {}",
                actual.display()
            ));
        }
    }
    assert!(moved.is_empty(), "outputs moved:\n{}", moved.join("\n"));
}
