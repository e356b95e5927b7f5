//! Pins every valuation row the testbed's and the hyperscale
//! scenario's valuation classes can build, bit for bit.
//!
//! The report goldens read rows only through the bids and grants they
//! move, so a one-ulp drift in a row sample can pass them. Here each
//! class's rows are rendered with `{:?}` (which round-trips every
//! `f64`): all 257 intensity buckets of a sprinting class, the one
//! load-independent row of a batch class. A class is what
//! `share_valuation_rows` shares a cache across: an equal workload,
//! reservation and headroom. Each class is pinned as a 64-bit FNV-1a
//! digest of its rows' text in `tests/golden/rows.txt`, one
//! `<case> <digest>` line each. On a mismatch the test writes the
//! rendered rows to `tests/golden/rows-<case>.actual.txt`.
//!
//! Regenerate (only when a behaviour change is intended and understood):
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test golden_rows
//! ```

use std::path::PathBuf;

use spotdc_sim::Scenario;
use spotdc_tenants::WorkloadModel;
use spotdc_units::Watts;

/// The intensity buckets a sprinting agent's rows are keyed by.
const BUCKETS: u16 = 256;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Every row `model` can build for a class reserving `reserved` with
/// `headroom`, each on its own `{:?}` line.
fn rows(model: &WorkloadModel, reserved: Watts, headroom: Watts) -> String {
    let intensities: Vec<f64> = if model.is_sprinting() {
        (0..=BUCKETS)
            .map(|b| f64::from(b) / f64::from(BUCKETS))
            .collect()
    } else {
        vec![1.0]
    };
    intensities
        .into_iter()
        .map(|q| format!("{:?}\n", model.valuation_row(reserved, headroom, q)))
        .collect()
}

/// Each scenario's classes in first-agent order, named by scenario,
/// kind and reservation, with their rendered rows.
fn cases() -> Vec<(String, String)> {
    let mut cases = Vec::new();
    for (name, scenario) in [
        ("testbed", Scenario::testbed(42)),
        ("hyperscale-42-304", Scenario::hyperscale(42, 304)),
    ] {
        let mut seen: Vec<String> = Vec::new();
        for (agent, spec) in scenario.agents.iter().zip(&scenario.specs) {
            let workload = match agent.model() {
                WorkloadModel::Sprinting { workload, .. } => format!("{workload:?}"),
                WorkloadModel::Opportunistic { workload, .. } => format!("{workload:?}"),
            };
            let class = format!("{workload} {:?} {:?}", agent.reserved(), agent.headroom());
            if seen.contains(&class) {
                continue;
            }
            seen.push(class);
            cases.push((
                format!("{name}-{:?}-{}", spec.kind, agent.reserved().value()),
                rows(agent.model(), agent.reserved(), agent.headroom()),
            ));
        }
    }
    cases
}

#[test]
fn valuation_rows_match_their_pinned_digests() {
    let path = golden_dir().join("rows.txt");
    let rendered = cases();
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        let lines: String = rendered
            .iter()
            .map(|(name, text)| format!("{name} {:016x}\n", fnv1a(text.as_bytes())))
            .collect();
        std::fs::write(&path, lines).unwrap();
        return;
    }
    let pinned = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing {} ({e}); regenerate with GOLDEN_REGEN=1 cargo test --test golden_rows",
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
    for ((name, text), (_, digest)) in rendered.iter().zip(&pinned) {
        let got = format!("{:016x}", fnv1a(text.as_bytes()));
        if got != *digest {
            let actual = golden_dir().join(format!("rows-{name}.actual.txt"));
            std::fs::write(&actual, text).unwrap();
            moved.push(format!(
                "{name}: {got}, pinned {digest}; rows in {}",
                actual.display()
            ));
        }
    }
    assert!(moved.is_empty(), "rows moved:\n{}", moved.join("\n"));
}
