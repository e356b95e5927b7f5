//! Property tests for the durable snapshot codec.
//!
//! The states fed through the round-trip are *real* engine states —
//! `Scenario::testbed` runs under randomized (seed, mode, horizon)
//! triples — so the properties cover exactly the value distributions a
//! checkpoint will ever see: clamped meter histories, price
//! predictions, live bid books, mid-flight accounting totals.

use std::path::PathBuf;

use proptest::prelude::*;

use spotdc_core::{OperatorConfig, SpotPredictor};
use spotdc_durable::{DecodeError, Decoder, Encoder, Persist, WalWriter};
use spotdc_faults::{FaultConfig, FaultPlan};
use spotdc_power::CapConfig;
use spotdc_sim::durability::{EngineSnapshot, SNAPSHOT_FORMAT};
use spotdc_sim::engine::{DurabilityConfig, DurableError, EngineConfig, Simulation};
use spotdc_sim::metrics::SlotRecord;
use spotdc_sim::pipeline::{self, SimState, SlotContext, Stage};
use spotdc_sim::{Mode, Scenario, SimReport};
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
        snap.apply(&mut fresh, &mut fresh_stages, mode, seed, slots as u64).expect("apply");
        let recaptured =
            EngineSnapshot::capture(&fresh, &fresh_stages, mode, seed, slots as u64);
        prop_assert_eq!(snap, recaptured);
    }
}

/// Every message fault armed — lost, late and broadcast-lost — plus
/// delayed predictions and the state that only exists under faults: the
/// cap controller's holds.
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
        let text = |report: &SimReport| {
            let mut bytes = Vec::new();
            report.write_text(&mut bytes).expect("write to memory");
            bytes
        };
        prop_assert!(
            text(&resumed.report) == text(&cold),
            "seed {seed}, stop {stop}: resumed text differs from the cold run's"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A real snapshot cut where everything optional is present: a late
/// bid waiting in `CollectBids`, cap holds (one forced, so the encoding
/// holds a `Some`).
fn rich_snapshot() -> (EngineSnapshot, SimState, Vec<Stage>) {
    let (state, _, stages, config) = run_to(7, lossy_config(), 2);
    let mut snap = EngineSnapshot::capture(&state, &stages, Mode::SpotDc, 7, 2);
    assert!(!snap.late_bids.is_empty());
    snap.cap_hold.as_mut().expect("cap controller enabled").0[0] = Some(1);

    let fresh = SimState::new(&Scenario::testbed(7), &config, 2);
    (snap, fresh, pipeline::build(&config))
}

/// A checksum proves a snapshot's bytes are the ones written, not that
/// they fit this run. A header that names another run (a stale
/// checkpoint must not seed a resumed one) or another slot count than
/// the checkpoint it was loaded as, and every length the engine
/// indexes by, are checked up front, and a refused snapshot leaves the
/// state untouched, its trace cursors included. (Applied unchecked, a
/// truncated `true_draw` or `agents` is an out-of-bounds panic in the
/// next `Settle`.)
#[test]
fn forged_snapshots_are_refused_before_anything_is_applied() {
    type Forge = fn(&mut EngineSnapshot);
    let forgeries: [(&str, Forge); 13] = [
        ("mode", |s| s.mode = 0),
        ("seed", |s| s.seed += 1),
        ("slots_done", |s| s.slots_done += 1),
        ("rack count", |s| s.rack_count += 1),
        ("agent count", |s| s.agent_count += 1),
        ("pdu count", |s| s.pdu_count += 1),
        ("meter", |s| s.meter.truncate(1)),
        ("meter row 0", |s| {
            s.meter[0] = vec![(0, 1.0); pipeline::METER_HISTORY_LEN + 2];
        }),
        ("true_draw", |s| s.true_draw.truncate(1)),
        ("agents", |s| s.agents.truncate(1)),
        ("prev_base_pdu", |s| s.prev_base_pdu.push(0.0)),
        ("cap_hold", |s| s.cap_hold.as_mut().unwrap().0.push(None)),
        ("cap_hold", |s| s.cap_hold = None),
    ];
    let (snap, mut state, mut stages) = rich_snapshot();
    let untouched = EngineSnapshot::capture(&state, &stages, Mode::SpotDc, 7, 0);
    let loads = Scenario::testbed(7).traces(3).loads;
    let at = |slot: usize| -> Vec<f64> { loads.iter().map(|l| l[slot]).collect() };
    assert_eq!(state.cursors.load, at(0));
    for (field, forge) in forgeries {
        let mut forged = snap.clone();
        forge(&mut forged);
        // Still a well-formed encoding: nothing short of `apply` objects.
        let forged = EngineSnapshot::decode(&forged.encode()).expect("decodes");
        match forged.apply(&mut state, &mut stages, Mode::SpotDc, 7, 2) {
            Err(DecodeError::Invalid(why)) => assert!(why.contains(field), "{field}: {why}"),
            other => panic!("{field}: expected DecodeError::Invalid, got {other:?}"),
        }
        assert_eq!(
            EngineSnapshot::capture(&state, &stages, Mode::SpotDc, 7, 0),
            untouched,
            "{field}: a refused snapshot was partly applied"
        );
        assert_eq!(state.cursors.load, at(0), "{field}: cursors stepped");
    }
    snap.apply(&mut state, &mut stages, Mode::SpotDc, 7, 2)
        .expect("the unforged snapshot applies");
    // Everything it holds arrived, the pending late bid included, and
    // the cursors hold slot 2, the next to run.
    assert_eq!(
        EngineSnapshot::capture(&state, &stages, Mode::SpotDc, 7, 2),
        snap
    );
    assert_eq!(state.cursors.load, at(2));
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
                .and_then(|s| s.apply(&mut state, &mut stages, Mode::SpotDc, 7, 2));
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
    // two counters, format 4 ended in one opaque blob per stage where
    // format 5 carries the late bids, and format 5 carried every slot's
    // record and each agent's intensity, which format 6 leaves to the
    // record log and to `Sense`; format 7 carried a second meter history
    // for delayed predictions after the meter; read as format 8 any of
    // them would misread its fields, so the header must decide. Format
    // 6 sat beside a bid journal and a log of bare records, where one
    // slot log frames each slot's bids, outcome and record together:
    // refused too, so that log is never misread.
    assert_eq!(SNAPSHOT_FORMAT, 8);
    for old in 1u32..=7 {
        let mut stale = bytes.clone();
        stale[..4].copy_from_slice(&old.to_le_bytes());
        let expected = format!("snapshot format {old}, this build reads 8");
        match EngineSnapshot::decode(&stale) {
            Err(DecodeError::Invalid(why)) => assert_eq!(why, expected),
            other => panic!("a format-{old} header must be refused by name, got {other:?}"),
        }
    }
}

/// A checkpoint directory a format-7 build left is refused on resume,
/// and the refusal names the format: format 7 carried a second meter
/// history after the meter, which this build would misread.
#[test]
fn a_format_7_checkpoint_directory_is_refused_by_name() {
    let dir = temp_dir("format7");
    let mut config = durable(lossy_config(), &dir, 5);
    config.durability.stop_after = Some(7);
    Simulation::new(Scenario::testbed(7), config.clone())
        .run_durable(12)
        .expect("stopped run");
    let newest = spotdc_durable::load_latest(&dir)
        .expect("readable")
        .expect("a checkpoint");
    let mut payload = newest.payload;
    payload[..4].copy_from_slice(&7u32.to_le_bytes());
    spotdc_durable::write_checkpoint(&dir, newest.slots_done, &payload).expect("rewritten");
    config.durability.stop_after = None;
    config.durability.resume = true;
    match Simulation::new(Scenario::testbed(7), config).run_durable(12) {
        Err(DurableError::Corrupt(why)) => {
            assert!(
                why.contains("snapshot format 7, this build reads 8"),
                "{why}"
            );
        }
        Ok(_) => panic!("a format-7 checkpoint was resumed from"),
        Err(other) => panic!("unexpected failure: {other}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Delayed predictions alone, under the adaptive margin, which reads
/// each rack's whole history.
fn delayed_config() -> EngineConfig {
    EngineConfig {
        faults: FaultConfig {
            seed: 3,
            prediction_delay: 0.5,
            ..FaultConfig::disabled()
        },
        operator: OperatorConfig {
            predictor: SpotPredictor::adaptive(1.0),
            ..OperatorConfig::default()
        },
        ..EngineConfig::new(Mode::SpotDc)
    }
}

/// A run stopped after each of slots 1 to 12, checkpointed after every
/// slot, resumes to the cold report. The window resumes at slot 1,
/// whose lag view is the warm-up, and at a delayed slot whose meter
/// rows are full: its lag view is rebuilt from the snapshot's meter, so
/// the snapshot must carry the reading before the history, which a
/// capture through `PowerMeter::history` would lose.
#[test]
fn resume_across_a_delayed_slot_matches_the_cold_report() {
    const SLOTS: u64 = 20;
    let config = delayed_config();
    let cold = Simulation::new(Scenario::testbed(7), config.clone()).run(SLOTS);
    let disarmed = EngineConfig {
        faults: FaultConfig::disabled(),
        ..config.clone()
    };
    let disarmed = Simulation::new(Scenario::testbed(7), disarmed).run(SLOTS);
    assert_ne!(cold.records, disarmed.records, "the delay moved no record");
    let plan = FaultPlan::new(config.faults);
    let stops = 1..=12u64;
    assert!(stops
        .clone()
        .any(|k| k >= pipeline::METER_HISTORY_LEN as u64 && plan.prediction_delayed(Slot::new(k))));

    let dir = temp_dir("delayed");
    for stop in stops {
        let mut config = durable(config.clone(), &dir, 1);
        config.durability.stop_after = Some(stop);
        Simulation::new(Scenario::testbed(7), config.clone())
            .run_durable(SLOTS)
            .expect("stopped run");
        config.durability.stop_after = None;
        config.durability.resume = true;
        let resumed = Simulation::new(Scenario::testbed(7), config)
            .run_durable(SLOTS)
            .expect("resumed run");
        let recovery = resumed.recovery.expect("a resume");
        assert_eq!(recovery.snapshot_slot, Some(stop));
        assert!(
            resumed.report == cold,
            "stop {stop}: resumed report differs from the cold run's"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
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

/// The same for a slot-log frame past the snapshot that passes its CRC:
/// cut anywhere or flipped at any byte, and framed again, it stops the
/// resume with `Corrupt` or `Diverged`, since its slot replays and must
/// come out byte for byte as logged. It never panics and never rewrites
/// history.
#[test]
fn damaged_slot_log_frames_are_errors_not_panics() {
    // Checkpoint after slot 4, killed after slot 5, one more slot to
    // run: the log holds slots 0..6, and frame 5 is the one past the
    // snapshot; a resume cuts no further checkpoint.
    const SLOTS: u64 = 7;
    let dir = temp_dir("frame");
    let mut config = durable(lossy_config(), &dir, 5);
    config.durability.stop_after = Some(6);
    Simulation::new(Scenario::testbed(7), config.clone())
        .run_durable(SLOTS)
        .expect("stopped run");
    let path = dir.join("records.wal");
    let frames: Vec<Vec<u8>> = spotdc_durable::read_wal(&path)
        .expect("readable")
        .expect("present")
        .frames()
        .map(<[u8]>::to_vec)
        .collect();
    let [kept @ .., frame] = frames.as_slice() else {
        panic!("an empty slot log");
    };
    assert_eq!(kept.len(), 5);
    // The frame's journal part carries a bid: slot, verdict, price,
    // sold and an empty bid list are 34 bytes at most.
    let journal = Decoder::new(frame).get_bytes().expect("journal part");
    assert!(journal.len() > 34);

    config.durability.stop_after = None;
    config.durability.resume = true;
    let mut damaged: Vec<Vec<u8>> = (0..frame.len()).map(|cut| frame[..cut].to_vec()).collect();
    for at in 0..frame.len() {
        let mut flipped = frame.clone();
        flipped[at] ^= 0x01;
        damaged.push(flipped);
    }
    for bad in &damaged {
        let mut log = WalWriter::create(&path).expect("slot log");
        for frame in kept.iter().chain([bad]) {
            log.append(frame).expect("append");
        }
        drop(log);
        match Simulation::new(Scenario::testbed(7), config.clone()).run_durable(SLOTS) {
            Err(DurableError::Corrupt(_) | DurableError::Diverged { .. }) => {}
            Ok(_) => panic!("a damaged frame of {} bytes was accepted", bad.len()),
            Err(other) => panic!("unexpected failure: {other}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Checkpoints after slots 5 and 10 and a stop after slot 13: the
/// slot log holds 13 frames, three of them past the newest snapshot.
const LOG_SLOTS: u64 = 24;
const LOG_STOP: u64 = 13;

/// Stops a lossy durable run at [`LOG_STOP`] under `tag`'s directory
/// and returns the directory and the uninterrupted report.
fn stopped_for_log_damage(tag: &str) -> (PathBuf, EngineConfig, SimReport) {
    let cold = Simulation::new(Scenario::testbed(7), lossy_config()).run(LOG_SLOTS);
    let dir = temp_dir(tag);
    let mut config = durable(lossy_config(), &dir, 5);
    config.durability.stop_after = Some(LOG_STOP);
    Simulation::new(Scenario::testbed(7), config.clone())
        .run_durable(LOG_SLOTS)
        .expect("stopped run");
    config.durability.stop_after = None;
    config.durability.resume = true;
    (dir, config, cold)
}

/// The slot log's frames' records, decoded.
fn logged_records(dir: &std::path::Path) -> Vec<SlotRecord> {
    let log = spotdc_durable::read_wal(&dir.join("records.wal"))
        .expect("readable")
        .expect("present");
    assert_eq!(log.tail, spotdc_durable::Tail::Clean);
    log.frames()
        .map(|frame| {
            let mut dec = Decoder::new(frame);
            dec.get_bytes().expect("the slot's bids and outcome");
            let record = SlotRecord::restore(&mut dec).expect("a record");
            dec.finish().expect("nothing after it");
            record
        })
        .collect()
}

/// Byte offsets at which each of the slot log's frames starts.
fn frame_starts(log: &[u8]) -> Vec<usize> {
    let mut starts = Vec::new();
    let mut at = 8;
    while at < log.len() {
        starts.push(at);
        let len = u32::from_le_bytes(log[at..at + 4].try_into().unwrap()) as usize;
        at += 8 + len;
    }
    starts
}

/// A torn slot-log tail past the snapshot is cut off, and its slot
/// re-simulates live: the resume loads the newest checkpoint, replays
/// the two whole frames past it, and afterwards the log holds exactly
/// the report's records.
#[test]
fn a_torn_record_log_tail_past_the_snapshot_re_simulates() {
    let (dir, config, cold) = stopped_for_log_damage("log-torn");
    let path = dir.join("records.wal");
    let bytes = std::fs::read(&path).expect("record log");
    assert_eq!(frame_starts(&bytes).len() as u64, LOG_STOP);
    std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();

    let resumed = Simulation::new(Scenario::testbed(7), config)
        .run_durable(LOG_SLOTS)
        .expect("resumed run");
    let recovery = resumed.recovery.as_ref().expect("recovery info");
    assert_eq!(recovery.snapshot_slot, Some(10));
    assert_eq!(recovery.replayed_slots, 2);
    assert_eq!(resumed.report, cold);
    assert_eq!(logged_records(&dir), cold.records);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Damage inside the frames a snapshot covers — a flipped bit or a cut
/// in any one of them — leaves a valid prefix too short for that
/// snapshot, so recovery falls back to the newest checkpoint the prefix
/// backs, or to a cold start, and still reproduces the uninterrupted
/// report. A log cut cleanly short of a snapshot is refused the same
/// way, and a log that is gone means a cold start.
#[test]
fn record_log_damage_inside_a_snapshot_falls_back() {
    let (dir, config, cold) = stopped_for_log_damage("log-inside");
    let path = dir.join("records.wal");
    let pristine = std::fs::read(&path).expect("record log");
    let starts = frame_starts(&pristine);
    let backed = |frames: usize| [10, 5].into_iter().find(|&s| s <= frames as u64);

    let mut cases: Vec<(String, Option<Vec<u8>>, usize)> = Vec::new();
    for (j, &start) in starts.iter().enumerate() {
        let mut flipped = pristine.clone();
        flipped[start + 8] ^= 0x10;
        cases.push((format!("flip in frame {j}"), Some(flipped), j));
        let mid = start + 4;
        cases.push((
            format!("cut in frame {j}"),
            Some(pristine[..mid].to_vec()),
            j,
        ));
    }
    cases.push((
        "clean cut at 7".into(),
        Some(pristine[..starts[7]].to_vec()),
        7,
    ));
    cases.push(("magic only".into(), Some(pristine[..8].to_vec()), 0));
    cases.push(("no log".into(), None, 0));

    let snapshots = |dir: &std::path::Path| {
        let mut names: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.starts_with("ckpt-"))
            .collect();
        names.sort();
        names
            .into_iter()
            .map(|n| (n.clone(), std::fs::read(dir.join(n)).unwrap()))
            .collect::<Vec<_>>()
    };
    let kept = snapshots(&dir);
    for (what, log, frames) in cases {
        // Every case starts from the stopped run's files.
        spotdc_durable::clear_dir(&dir).unwrap();
        for (name, bytes) in &kept {
            std::fs::write(dir.join(name), bytes).unwrap();
        }
        if let Some(log) = log {
            std::fs::write(&path, log).unwrap();
        }
        let resumed = Simulation::new(Scenario::testbed(7), config.clone())
            .run_durable(LOG_SLOTS)
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        let recovery = resumed.recovery.as_ref().expect("recovery info");
        assert_eq!(recovery.snapshot_slot, backed(frames), "{what}");
        assert_eq!(resumed.report, cold, "{what}");
        assert_eq!(logged_records(&dir), cold.records, "{what}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A slot-log frame under the snapshot that passes its CRC but holds
/// the wrong slot's record, or a record of another shape (one tenant or
/// PDU short, which the report would index past), is refused as
/// corrupt, never spliced into the report.
#[test]
fn a_crc_valid_record_that_does_not_fit_is_refused() {
    let (dir, config, _) = stopped_for_log_damage("log-misfit");
    let path = dir.join("records.wal");
    let pristine: Vec<Vec<u8>> = spotdc_durable::read_wal(&path)
        .unwrap()
        .unwrap()
        .frames()
        .map(<[u8]>::to_vec)
        .collect();
    let reshaped = |reshape: fn(&mut SlotRecord)| {
        let mut frames = pristine.clone();
        let mut dec = Decoder::new(&frames[1]);
        let journal = dec.get_bytes().unwrap();
        let mut record = SlotRecord::restore(&mut dec).unwrap();
        reshape(&mut record);
        let mut enc = Encoder::new();
        enc.put_bytes(journal);
        record.persist(&mut enc);
        frames[1] = enc.into_bytes();
        frames
    };
    let mut swapped = pristine.clone();
    swapped.swap(1, 2);
    let cases = [
        ("swapped", swapped),
        (
            "tenant short",
            reshaped(|r| r.tenants.truncate(r.tenants.len() - 1)),
        ),
        (
            "pdu short",
            reshaped(|r| r.pdu_power.truncate(r.pdu_power.len() - 1)),
        ),
    ];
    for (what, frames) in cases {
        let mut w = WalWriter::create(&path).unwrap();
        for frame in &frames {
            w.append(frame).unwrap();
        }
        drop(w);
        match Simulation::new(Scenario::testbed(7), config.clone()).run_durable(LOG_SLOTS) {
            Err(DurableError::Corrupt(why)) => {
                assert!(why.contains("record-log frame 1"), "{what}: {why}")
            }
            other => panic!("{what}: expected Corrupt, got {other:?}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
