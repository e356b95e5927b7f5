//! Property tests for the durable snapshot codec.
//!
//! The states fed through the round-trip are *real* engine states —
//! `Scenario::testbed` runs under randomized (seed, mode, horizon)
//! triples — so the properties cover exactly the value distributions a
//! checkpoint will ever see: clamped meter histories, in-range
//! intensities, live bid books, mid-flight accounting totals.

use std::path::PathBuf;

use proptest::prelude::*;

use spotdc_durable::{DecodeError, WalWriter};
use spotdc_faults::FaultConfig;
use spotdc_power::CapConfig;
use spotdc_sim::durability::{EngineSnapshot, SNAPSHOT_FORMAT};
use spotdc_sim::engine::{DurabilityConfig, DurableError, EngineConfig, Simulation};
use spotdc_sim::pipeline::{self, SimState, SlotContext, Stage};
use spotdc_sim::{Mode, Scenario};
use spotdc_telemetry::TelemetryConfig;
use spotdc_units::Slot;

const MODES: [Mode; 3] = [Mode::PowerCapped, Mode::SpotDc, Mode::MaxPerf];

/// Runs `slots` slots of `config` at `seed` and returns the engine
/// state ready for capture.
fn run_to(
    seed: u64,
    config: EngineConfig,
    slots: usize,
) -> (SimState, SlotContext, Vec<Stage>, EngineConfig) {
    let scenario = Scenario::testbed(seed);
    let mut state = SimState::new(&scenario, &config, slots);
    let mut ctx = SlotContext::new(state.topology.rack_count(), state.agents.len());
    let mut stages = pipeline::build(&config);
    for t in 0..slots {
        ctx.begin(Slot::new(t as u64), t);
        for stage in stages.iter_mut() {
            stage.run(&mut state, &mut ctx);
        }
    }
    (state, ctx, stages, config)
}

proptest! {
    /// `decode(encode(capture(state))) == capture(state)` for real
    /// engine states across all three modes.
    #[test]
    fn snapshot_round_trips_exactly(
        seed in 1u64..500,
        mode_ix in 0usize..3,
        slots in 1usize..32,
    ) {
        let mode = MODES[mode_ix];
        let (state, _ctx, stages, _config) = run_to(seed, EngineConfig::new(mode), slots);
        let snap = EngineSnapshot::capture(&state, &stages, mode, seed, slots as u64);
        let decoded = EngineSnapshot::decode(&snap.encode()).expect("decode");
        prop_assert_eq!(snap, decoded);
    }

    /// Applying a snapshot onto a fresh state and re-capturing yields
    /// the identical snapshot: nothing the capture covers is lost or
    /// mutated by restore.
    #[test]
    fn apply_then_recapture_is_identity(
        seed in 1u64..500,
        mode_ix in 0usize..3,
        slots in 1usize..24,
    ) {
        let mode = MODES[mode_ix];
        let (state, _ctx, stages, config) = run_to(seed, EngineConfig::new(mode), slots);
        let snap = EngineSnapshot::capture(&state, &stages, mode, seed, slots as u64);

        let scenario = Scenario::testbed(seed);
        let mut fresh = SimState::new(&scenario, &config, slots);
        let mut fresh_stages = pipeline::build(&config);
        snap.apply(&mut fresh, &mut fresh_stages, mode, seed).expect("apply");
        let recaptured =
            EngineSnapshot::capture(&fresh, &fresh_stages, mode, seed, slots as u64);
        prop_assert_eq!(snap, recaptured);
    }
}

/// Every message fault armed — lost, late and broadcast-lost — plus the
/// state that only exists under faults: the delayed-prediction meter
/// copy and the cap controller's holds.
fn lossy_config() -> EngineConfig {
    EngineConfig {
        faults: FaultConfig {
            seed: 11,
            bid_loss: 0.15,
            bid_delay: 0.3,
            broadcast_loss: 0.2,
            prediction_delay: 0.1,
            ..FaultConfig::disabled()
        },
        cap: CapConfig::paper_default(),
        ..EngineConfig::new(Mode::SpotDc)
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spotdc-durprops-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable(config: EngineConfig, dir: &std::path::Path, every: u64) -> EngineConfig {
    EngineConfig {
        durability: DurabilityConfig {
            dir: Some(dir.to_path_buf()),
            checkpoint_every: every,
            ..DurabilityConfig::default()
        },
        ..config
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// With lost, late and broadcast-lost messages armed, a run killed
    /// at any slot and resumed reproduces the uninterrupted report —
    /// and a checkpoint has nothing but the fault seed (which it does
    /// not even store: the config carries it) to restore them from.
    #[test]
    fn resume_under_message_loss_matches_the_cold_report(
        seed in 1u64..500,
        stop in 1u64..44,
    ) {
        let cold = Simulation::new(Scenario::testbed(seed), lossy_config()).run(45);
        prop_assert!(cold.faults_injected > 0);

        let dir = temp_dir("resume");
        let mut config = durable(lossy_config(), &dir, 10);
        config.durability.stop_after = Some(stop);
        let stopped = Simulation::new(Scenario::testbed(seed), config.clone())
            .run_durable(45)
            .expect("stopped run");
        prop_assert_eq!(stopped.stopped_after, Some(stop));

        config.durability.stop_after = None;
        config.durability.resume = true;
        let resumed = Simulation::new(Scenario::testbed(seed), config)
            .run_durable(45)
            .expect("resumed run");
        prop_assert_eq!(format!("{:?}", resumed.report), format!("{cold:?}"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A real snapshot cut where everything optional is present: a late
/// bid waiting in `CollectBids`, the delayed-prediction meter copy, cap
/// holds (one forced, so the encoding holds a `Some`).
fn rich_snapshot() -> (EngineSnapshot, SimState, Vec<Stage>) {
    let (state, _, stages, config) = run_to(7, lossy_config(), 2);
    let mut snap = EngineSnapshot::capture(&state, &stages, Mode::SpotDc, 7, 2);
    assert!(!snap.late_bids.is_empty());
    assert!(snap.prev_meter.is_some());
    snap.cap_hold.as_mut().expect("cap controller enabled").0[0] = Some(1);

    let fresh = SimState::new(&Scenario::testbed(7), &config, 2);
    (snap, fresh, pipeline::build(&config))
}

/// A checksum proves a snapshot's bytes are the ones written, not that
/// they fit this run. A header that names another run (a stale
/// checkpoint must not seed a resumed one) and every length the engine
/// indexes by are checked up front, and a refused snapshot leaves the
/// state untouched. (Applied unchecked, a truncated `true_draw` or
/// `agents` is an out-of-bounds panic in the next `Settle`.)
#[test]
fn forged_snapshots_are_refused_before_anything_is_applied() {
    type Forge = fn(&mut EngineSnapshot);
    let forgeries: [(&str, Forge); 13] = [
        ("mode", |s| s.mode = 0),
        ("seed", |s| s.seed += 1),
        ("rack count", |s| s.rack_count += 1),
        ("agent count", |s| s.agent_count += 1),
        ("pdu count", |s| s.pdu_count += 1),
        ("meter", |s| s.meter.truncate(1)),
        ("prev_meter", |s| s.prev_meter.as_mut().unwrap().truncate(1)),
        ("true_draw", |s| s.true_draw.truncate(1)),
        ("agents", |s| s.agents.truncate(1)),
        ("prev_base_pdu", |s| s.prev_base_pdu.push(0.0)),
        ("records", |s| s.records.truncate(1)),
        ("cap_hold", |s| s.cap_hold.as_mut().unwrap().0.push(None)),
        ("cap_hold", |s| s.cap_hold = None),
    ];
    let (snap, mut state, mut stages) = rich_snapshot();
    let untouched = EngineSnapshot::capture(&state, &stages, Mode::SpotDc, 7, 0);
    for (field, forge) in forgeries {
        let mut forged = snap.clone();
        forge(&mut forged);
        // Still a well-formed encoding: nothing short of `apply` objects.
        let forged = EngineSnapshot::decode(&forged.encode()).expect("decodes");
        match forged.apply(&mut state, &mut stages, Mode::SpotDc, 7) {
            Err(DecodeError::Invalid(why)) => assert!(why.contains(field), "{field}: {why}"),
            other => panic!("{field}: expected DecodeError::Invalid, got {other:?}"),
        }
        assert_eq!(
            EngineSnapshot::capture(&state, &stages, Mode::SpotDc, 7, 0),
            untouched,
            "{field}: a refused snapshot was partly applied"
        );
    }
    snap.apply(&mut state, &mut stages, Mode::SpotDc, 7)
        .expect("the unforged snapshot applies");
    // Everything it holds arrived, the pending late bid included.
    assert_eq!(
        EngineSnapshot::capture(&state, &stages, Mode::SpotDc, 7, 2),
        snap
    );
}

/// Decoders facing bytes from a disk never panic: every prefix of an
/// encoded snapshot is refused, every single-byte change of it either
/// fails to decode, fails to apply, or applies — and the previous
/// formats are refused by name.
#[test]
fn damaged_snapshots_are_errors_not_panics() {
    let (snap, mut state, mut stages) = rich_snapshot();
    let bytes = snap.encode();
    assert_eq!(EngineSnapshot::decode(&bytes).as_ref(), Ok(&snap));
    for cut in 0..bytes.len() {
        assert!(EngineSnapshot::decode(&bytes[..cut]).is_err(), "cut {cut}");
    }
    let (mut refused, mut applied) = (0usize, 0usize);
    for at in 0..bytes.len() {
        for mask in [0x01, 0x80, 0xff] {
            let mut damaged = bytes.clone();
            damaged[at] ^= mask;
            let outcome = EngineSnapshot::decode(&damaged)
                .and_then(|s| s.apply(&mut state, &mut stages, Mode::SpotDc, 7));
            match outcome {
                Ok(()) => applied += 1,
                Err(_) => refused += 1,
            }
        }
    }
    // Both arms are exercised: lengths, tags and header words refuse,
    // float payload bits apply.
    assert!(
        refused > 0 && applied > 0,
        "{refused} refused, {applied} applied"
    );

    // Format 3 carried two emergency event lists where format 4 carries
    // two counters, and format 4 ended in one opaque blob per stage where
    // format 5 carries the late bids; read as format 5 either would
    // misread its fields, so the header must decide.
    assert_eq!(SNAPSHOT_FORMAT, 5);
    for old in [1u32, 2, 3, 4] {
        let mut stale = bytes.clone();
        stale[..4].copy_from_slice(&old.to_le_bytes());
        let expected = format!("snapshot format {old}, this build reads 5");
        match EngineSnapshot::decode(&stale) {
            Err(DecodeError::Invalid(why)) => assert_eq!(why, expected),
            other => panic!("a format-{old} header must be refused by name, got {other:?}"),
        }
    }
}

/// A checkpoint holds market state and nothing about who is watching:
/// the same run captured with telemetry off and with it on encodes to
/// the same bytes. (Safe beside the other tests here for the same
/// reason: nothing they compare reads the switch.)
#[test]
fn a_checkpoint_does_not_depend_on_whether_telemetry_is_on() {
    let checkpoint = |telemetry: TelemetryConfig| {
        spotdc_telemetry::install(telemetry);
        let (state, _, stages, _) = run_to(7, lossy_config(), 12);
        assert!(state.report.records.iter().any(|r| r.spot_available > 0.0));
        EngineSnapshot::capture(&state, &stages, Mode::SpotDc, 7, 12).encode()
    };
    let off = checkpoint(TelemetryConfig::default());
    let on = checkpoint(TelemetryConfig::in_memory());
    spotdc_telemetry::install(TelemetryConfig::default());
    assert!(!spotdc_telemetry::memory_sink().take().is_empty());
    assert!(off == on, "checkpoint bytes differ with telemetry on");
}

/// The same for a journal record that passes its CRC: damaged anywhere,
/// a resume either reproduces the uninterrupted report (the record's
/// slot word now points outside the replay window, so the slot is
/// simply re-simulated) or stops with `Corrupt` / `Diverged`. It never
/// panics and never rewrites history.
#[test]
fn damaged_journal_records_are_errors_not_panics() {
    // Checkpoint after slot 4, killed after slot 5, one more slot to
    // run: the journal holds exactly slot 5's record, and a resume cuts
    // no further checkpoint.
    const SLOTS: u64 = 7;
    let cold = Simulation::new(Scenario::testbed(7), lossy_config()).run(SLOTS);
    let dir = temp_dir("journal");
    let mut config = durable(lossy_config(), &dir, 5);
    config.durability.stop_after = Some(6);
    Simulation::new(Scenario::testbed(7), config.clone())
        .run_durable(SLOTS)
        .expect("stopped run");
    let journal = dir.join("journal.wal");
    let records = spotdc_durable::read_wal(&journal)
        .expect("readable")
        .expect("present")
        .records;
    let [record] = records.as_slice() else {
        panic!("expected one journaled slot, got {}", records.len());
    };
    // Slot, verdict, price, sold and an empty bid list are 34 bytes at
    // most; this record carries a bid.
    assert!(record.len() > 34);

    config.durability.stop_after = None;
    config.durability.resume = true;
    let mut damaged: Vec<Vec<u8>> = (0..record.len())
        .map(|cut| record[..cut].to_vec())
        .collect();
    for at in 0..record.len() {
        let mut flipped = record.clone();
        flipped[at] ^= 0x01;
        damaged.push(flipped);
    }
    let (mut reproduced, mut stopped) = (0usize, 0usize);
    for bad in damaged {
        let mut wal = WalWriter::create(&journal).expect("journal");
        wal.append(&bad).expect("append");
        wal.sync().expect("sync");
        match Simulation::new(Scenario::testbed(7), config.clone()).run_durable(SLOTS) {
            Ok(outcome) => {
                assert_eq!(outcome.report, cold, "a damaged record rewrote history");
                reproduced += 1;
            }
            Err(DurableError::Corrupt(_) | DurableError::Diverged { .. }) => stopped += 1,
            Err(other) => panic!("unexpected failure: {other}"),
        }
    }
    assert!(
        reproduced > 0 && stopped > 0,
        "{reproduced} reproduced, {stopped} stopped"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
