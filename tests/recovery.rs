//! In-process crash-recovery end-to-end tests.
//!
//! `scripts/crash_harness` SIGKILLs a real child process; these tests
//! cover the same protocol deterministically and portably: stop a
//! durable run at an arbitrary slot (the `stop_after` hook — equivalent
//! to a kill at a slot boundary, since the slot log is flushed per
//! slot), damage the on-disk state the way a crash or bad storage
//! would, resume, and require the final report to be **equal** to an
//! uninterrupted cold run — the invariant the whole durability layer
//! exists to uphold.

use std::fs;
use std::path::{Path, PathBuf};

use spotdc_sim::engine::{DurabilityConfig, DurableError, EngineConfig, JournalDamage, Simulation};
use spotdc_sim::{Mode, Scenario, SimReport};

const SEED: u64 = 7;
const SLOTS: u64 = 24;
const EVERY: u64 = 5;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spotdc-recovery-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn durable_config(mode: Mode, dir: &Path) -> EngineConfig {
    EngineConfig {
        durability: DurabilityConfig {
            dir: Some(dir.to_path_buf()),
            checkpoint_every: EVERY,
            ..DurabilityConfig::default()
        },
        ..EngineConfig::new(mode)
    }
}

fn cold(mode: Mode) -> SimReport {
    cold_on(&Scenario::testbed(SEED), mode)
}

fn cold_on(scenario: &Scenario, mode: Mode) -> SimReport {
    Simulation::new(scenario.clone(), EngineConfig::new(mode)).run(SLOTS)
}

fn stop_at(mode: Mode, dir: &Path, k: u64) {
    stop_at_on(&Scenario::testbed(SEED), mode, dir, k);
}

fn stop_at_on(scenario: &Scenario, mode: Mode, dir: &Path, k: u64) {
    let mut config = durable_config(mode, dir);
    config.durability.stop_after = Some(k);
    let outcome = Simulation::new(scenario.clone(), config)
        .run_durable(SLOTS)
        .expect("stopped run");
    assert_eq!(outcome.stopped_after, Some(k));
}

fn resume(mode: Mode, dir: &Path) -> spotdc_sim::DurableOutcome {
    resume_on(&Scenario::testbed(SEED), mode, dir)
}

fn resume_on(scenario: &Scenario, mode: Mode, dir: &Path) -> spotdc_sim::DurableOutcome {
    let mut config = durable_config(mode, dir);
    config.durability.resume = true;
    Simulation::new(scenario.clone(), config)
        .run_durable(SLOTS)
        .expect("resumed run")
}

/// Fig. 10-style load scripts, one per tenant, all shorter than the
/// horizon (the first empty, so `0.0` throughout): a resume lands
/// inside some scripts and in the repeated last value of others.
fn scripts() -> Vec<Vec<f64>> {
    let levels = [0.2, 0.9, 0.95, 0.4, 1.0, 0.6, 0.3];
    (0..8)
        .map(|i| (0..2 * i).map(|t| levels[(i + t) % levels.len()]).collect())
        .collect()
}

/// The satellite sweep: for every mode and every interruption slot
/// `k` in `1..SLOTS`, stop-then-resume must reproduce the cold report
/// exactly — whether `k` lands on a checkpoint boundary, one past it,
/// or deep into a checkpoint interval — on the testbed's traces and on
/// scripted loads.
#[test]
fn resume_at_every_slot_matches_cold_run() {
    let traced = Scenario::testbed(SEED);
    let scripted = Scenario::testbed(SEED).with_scripted_loads(scripts());
    for mode in [Mode::PowerCapped, Mode::SpotDc, Mode::MaxPerf] {
        assert_ne!(cold_on(&traced, mode), cold_on(&scripted, mode));
        for (leg, scenario) in [("traced", &traced), ("scripted", &scripted)] {
            let golden = cold_on(scenario, mode);
            for k in 1..SLOTS {
                let dir = temp_dir(&format!("sweep-{leg}-{mode:?}-{k}"));
                stop_at_on(scenario, mode, &dir, k);
                let resumed = resume_on(scenario, mode, &dir);
                let recovery = resumed.recovery.as_ref().expect("recovery info");
                assert_eq!(
                    recovery.snapshot_slot,
                    (k >= EVERY).then_some((k / EVERY) * EVERY),
                    "{leg} mode {mode:?} k {k}"
                );
                assert_eq!(
                    resumed.report, golden,
                    "{leg} mode {mode:?} resumed at slot {k}"
                );
                let _ = fs::remove_dir_all(&dir);
            }
        }
    }
}

/// A run that streams its records (`Simulation::run_durable_to`)
/// writes `Simulation::run`'s text form but the summary, and keeps no
/// records — plain, fresh durable, and stopped then resumed, where the
/// resume first writes the records the log holds (none before the first
/// checkpoint, ten at its boundary and mid-interval), then replays.
#[test]
fn a_streamed_run_writes_the_cold_text_and_keeps_no_records() {
    let mut golden = Vec::new();
    cold(Mode::SpotDc).write_text(&mut golden).unwrap();
    let streamed = |config: EngineConfig| {
        let mut out = Vec::new();
        let outcome = Simulation::new(Scenario::testbed(SEED), config)
            .run_durable_to(SLOTS, Some(&mut out))
            .expect("streamed run");
        assert!(
            outcome.report.records.is_empty(),
            "a streamed run kept records"
        );
        outcome.report.write_summary(&mut out).unwrap();
        (out, outcome)
    };
    let (text, _) = streamed(EngineConfig::new(Mode::SpotDc));
    assert!(
        text == golden,
        "plain streamed run differs from the cold text"
    );
    let dir = temp_dir("stream");
    let (text, _) = streamed(durable_config(Mode::SpotDc, &dir));
    assert!(
        text == golden,
        "durable streamed run differs from the cold text"
    );
    for k in [3, 2 * EVERY, 2 * EVERY + 3] {
        let mut config = durable_config(Mode::SpotDc, &dir);
        config.durability.stop_after = Some(k);
        let (head, stopped) = streamed(config.clone());
        assert_eq!(stopped.stopped_after, Some(k));
        let lines = head.split_inclusive(|&b| b == b'\n');
        assert!(
            lines
                .take(k as usize)
                .eq(golden.split_inclusive(|&b| b == b'\n').take(k as usize)),
            "the run stopped at {k} streamed other lines than the cold run's first {k}"
        );
        config.durability.stop_after = None;
        config.durability.resume = true;
        let (text, _) = streamed(config);
        assert!(
            text == golden,
            "stopped at {k} and resumed: differs from the cold text"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

/// The slot log, read back as recovery reads it.
fn slot_log(dir: &Path) -> spotdc_durable::WalContents {
    spotdc_durable::read_wal(&dir.join("records.wal"))
        .expect("readable")
        .expect("slot log exists")
}

/// A torn slot-log tail — the partial frame a SIGKILL mid-append
/// leaves — is cut off and reported; the valid prefix still backs the
/// checkpoint at 5, so the logged slots past it replay on top of it.
#[test]
fn torn_record_log_tail_is_reported() {
    let golden = cold(Mode::SpotDc);
    let dir = temp_dir("log-torn");
    // Stop at 8: the log holds slots 0..8, the snapshot covers 5.
    stop_at(Mode::SpotDc, &dir, 8);
    let log = dir.join("records.wal");
    let bytes = fs::read(&log).expect("slot log exists");
    fs::write(&log, &bytes[..bytes.len() - 3]).unwrap();
    let seven = slot_log(&dir).prefix_len(7);

    let resumed = resume(Mode::SpotDc, &dir);
    let recovery = resumed.recovery.expect("recovery info");
    assert_eq!(
        recovery.truncated,
        Some(JournalDamage {
            reason: "torn",
            dropped_bytes: bytes.len() as u64 - 3 - seven,
        })
    );
    assert_eq!(recovery.snapshot_slot, Some(5));
    // Slot 7's frame was torn off: 5 and 6 replay, 7 runs live.
    assert_eq!(recovery.replayed_slots, 2);
    assert_eq!(resumed.report, golden);
    let _ = fs::remove_dir_all(&dir);
}

/// The slot log's frames past the newest checkpoint are the journal a
/// resume replays. Torn anywhere inside its last frame — one byte of the
/// header kept, half the frame, all but its last byte — it is cut back
/// to the frame before, exactly the kept bytes are reported dropped, and
/// the resume replays 5 and 6, runs 7 live and lands on the golden
/// report.
#[test]
fn torn_journal_tail_recovers_byte_identically() {
    let golden = cold(Mode::SpotDc);
    let dir = temp_dir("torn");
    stop_at(Mode::SpotDc, &dir, 8);
    let (seven, eight) = {
        let contents = slot_log(&dir);
        (contents.prefix_len(7), contents.prefix_len(8))
    };
    let frame = eight - seven;
    let bytes = fs::read(dir.join("records.wal")).expect("slot log exists");
    for kept in [1, frame / 2, frame - 1] {
        let _ = fs::remove_dir_all(&dir);
        stop_at(Mode::SpotDc, &dir, 8);
        let log = dir.join("records.wal");
        assert_eq!(fs::read(&log).expect("slot log exists"), bytes);
        fs::write(&log, &bytes[..usize::try_from(seven + kept).unwrap()]).unwrap();

        let resumed = resume(Mode::SpotDc, &dir);
        let recovery = resumed.recovery.expect("recovery info");
        assert_eq!(
            recovery.truncated,
            Some(JournalDamage {
                reason: "torn",
                dropped_bytes: kept,
            }),
            "{kept} of frame 7's {frame} bytes kept"
        );
        assert_eq!(recovery.snapshot_slot, Some(5), "{kept} bytes kept");
        assert_eq!(recovery.replayed_slots, 2, "{kept} bytes kept");
        assert_eq!(resumed.report, golden, "{kept} bytes kept");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// A bit flip inside the last complete frame — storage corruption, not
/// a crash artifact — is caught by the CRC, classified as "corrupt",
/// and recovered around identically.
#[test]
fn corrupt_record_log_tail_recovers_byte_identically() {
    let golden = cold(Mode::SpotDc);
    let dir = temp_dir("flip");
    stop_at(Mode::SpotDc, &dir, 8);
    let log = dir.join("records.wal");
    let mut bytes = fs::read(&log).expect("slot log exists");
    let seven = slot_log(&dir).prefix_len(7);
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    fs::write(&log, &bytes).unwrap();

    let resumed = resume(Mode::SpotDc, &dir);
    let recovery = resumed.recovery.expect("recovery info");
    assert_eq!(
        recovery.truncated,
        Some(JournalDamage {
            reason: "corrupt",
            dropped_bytes: bytes.len() as u64 - seven,
        })
    );
    assert_eq!(recovery.snapshot_slot, Some(5));
    assert_eq!(recovery.replayed_slots, 2);
    assert_eq!(resumed.report, golden);
    let _ = fs::remove_dir_all(&dir);
}

/// A bit flip in the middle of the slot log, under a frame the
/// checkpoint at 5 counts on, is reported as corrupt damage; no
/// checkpoint is backed by the three frames before it, so recovery
/// starts cold and still lands on the golden report.
#[test]
fn corrupt_record_log_middle_is_reported() {
    let golden = cold(Mode::SpotDc);
    let dir = temp_dir("log-flip");
    stop_at(Mode::SpotDc, &dir, 8);
    let log = dir.join("records.wal");
    let (three, four) = {
        let contents = slot_log(&dir);
        (contents.prefix_len(3), contents.prefix_len(4))
    };
    let mut bytes = fs::read(&log).expect("slot log exists");
    // The last payload byte of frame 3 of 8.
    let at = usize::try_from(four).unwrap() - 1;
    bytes[at] ^= 0x40;
    fs::write(&log, &bytes).unwrap();

    let resumed = resume(Mode::SpotDc, &dir);
    let recovery = resumed.recovery.expect("recovery info");
    let damage = recovery.truncated.expect("slot-log damage reported");
    assert_eq!(damage.reason, "corrupt");
    assert_eq!(damage.dropped_bytes, bytes.len() as u64 - three);
    assert_eq!(recovery.snapshot_slot, None);
    // Slots 0..3 replay against their frames; 3..8 run live.
    assert_eq!(recovery.replayed_slots, 3);
    assert_eq!(resumed.report, golden);
    let _ = fs::remove_dir_all(&dir);
}

/// A corrupt newest checkpoint falls back to its retained predecessor;
/// every logged slot past it replays against its frame.
#[test]
fn corrupt_newest_checkpoint_falls_back_to_predecessor() {
    let golden = cold(Mode::SpotDc);
    let dir = temp_dir("ckpt-fallback");
    // Stop at 13: checkpoints at 5 and 10 both retained, the log holds
    // slots 0..13.
    stop_at(Mode::SpotDc, &dir, 13);
    corrupt_checkpoint(&dir, "ckpt-0000000010.bin");

    let resumed = resume(Mode::SpotDc, &dir);
    let recovery = resumed.recovery.expect("recovery info");
    assert_eq!(recovery.snapshot_slot, Some(5));
    // Slots 5..13 replay against their frames.
    assert_eq!(recovery.replayed_slots, 8);
    assert_eq!(resumed.report, golden);
    let _ = fs::remove_dir_all(&dir);
}

/// Flips a bit halfway through checkpoint `name` in `dir`.
fn corrupt_checkpoint(dir: &Path, name: &str) {
    let path = dir.join(name);
    let mut bytes = fs::read(&path).expect("checkpoint exists");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    fs::write(&path, &bytes).unwrap();
}

/// A fallback leaves no slot unchecked: with the checkpoint at 10 lost,
/// slots 5..10 replay too, so a frame among them rewritten under a
/// valid CRC stops the resume at its slot instead of being re-simulated
/// over.
#[test]
fn a_rewritten_frame_behind_a_lost_checkpoint_diverges() {
    let dir = temp_dir("gap-diverged");
    stop_at(Mode::SpotDc, &dir, 13);
    corrupt_checkpoint(&dir, "ckpt-0000000010.bin");
    let mut frames: Vec<Vec<u8>> = slot_log(&dir).frames().map(<[u8]>::to_vec).collect();
    assert_eq!(frames.len(), 13);
    let last = frames[7].len() - 1;
    frames[7][last] ^= 0x01;
    let mut log = spotdc_durable::WalWriter::create(&dir.join("records.wal")).unwrap();
    for frame in &frames {
        log.append(frame).unwrap();
    }
    drop(log);

    let mut config = durable_config(Mode::SpotDc, &dir);
    config.durability.resume = true;
    match Simulation::new(Scenario::testbed(SEED), config).run_durable(SLOTS) {
        Err(DurableError::Diverged { slot }) => assert_eq!(slot, 7),
        other => panic!("expected slot 7 to diverge, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Every retained checkpoint corrupt: recovery degrades all the way to
/// a cold start, every logged slot replayed against its frame, and
/// still reproduces the golden report.
#[test]
fn all_checkpoints_corrupt_degrades_to_cold_replay() {
    let golden = cold(Mode::SpotDc);
    let dir = temp_dir("ckpt-all-bad");
    stop_at(Mode::SpotDc, &dir, 13);
    for name in ["ckpt-0000000005.bin", "ckpt-0000000010.bin"] {
        corrupt_checkpoint(&dir, name);
    }

    let resumed = resume(Mode::SpotDc, &dir);
    let recovery = resumed.recovery.expect("recovery info");
    assert_eq!(recovery.snapshot_slot, None);
    assert_eq!(recovery.replayed_slots, 13);
    assert_eq!(resumed.report, golden);
    let _ = fs::remove_dir_all(&dir);
}

/// Interrupting an interrupted run: two stops at different depths with
/// a resume between them still land on the golden report.
#[test]
fn double_interruption_still_recovers() {
    let golden = cold(Mode::MaxPerf);
    let dir = temp_dir("double");
    stop_at(Mode::MaxPerf, &dir, 7);
    // Resume but stop again further in.
    let mut config = durable_config(Mode::MaxPerf, &dir);
    config.durability.resume = true;
    config.durability.stop_after = Some(9);
    let second = Simulation::new(Scenario::testbed(SEED), config)
        .run_durable(SLOTS)
        .expect("second leg");
    assert_eq!(second.stopped_after, Some(16));

    let resumed = resume(Mode::MaxPerf, &dir);
    assert_eq!(resumed.report, golden);
    let _ = fs::remove_dir_all(&dir);
}

/// A checkpoint holds state, not history: on a 104-tenant run cut every
/// 10 slots, each checkpoint, less its late bids (the one term that
/// varies from slot to slot), is exactly as long as the first, however
/// many slots it covers. The history is the slot log's: after six
/// legs, each stopped right after its checkpoint and resumed, it holds
/// one frame per slot, and their records are the report's.
#[test]
fn checkpoint_size_stays_flat_in_the_horizon() {
    use spotdc_durable::{Decoder, Persist};
    use spotdc_sim::durability::EngineSnapshot;
    use spotdc_sim::metrics::SlotRecord;

    const HORIZON: u64 = 60;
    const EVERY: u64 = 10;
    let scenario = || Scenario::hyperscale(42, 104);
    let dir = temp_dir("flat");
    let mut config = EngineConfig {
        durability: DurabilityConfig {
            dir: Some(dir.clone()),
            checkpoint_every: EVERY,
            stop_after: Some(EVERY),
            ..DurabilityConfig::default()
        },
        ..EngineConfig::new(Mode::SpotDc)
    };
    let mut sizes = Vec::new();
    let report = loop {
        let outcome = Simulation::new(scenario(), config.clone())
            .run_durable(HORIZON)
            .expect("durable leg");
        let slots_done = outcome.stopped_after.unwrap_or(HORIZON);
        let bytes = fs::read(dir.join(format!("ckpt-{slots_done:010}.bin"))).expect("checkpoint");
        // Magic and frame header, then the payload.
        let mut snap = EngineSnapshot::decode(&bytes[16..]).expect("decodes");
        snap.late_bids.clear();
        sizes.push((slots_done, bytes.len(), snap.encode().len()));
        if outcome.stopped_after.is_none() {
            break outcome.report;
        }
        config.durability.resume = true;
    };
    assert_eq!(sizes.len() as u64, HORIZON / EVERY);
    let (_, _, first) = sizes[0];
    for &(slots_done, file, state) in &sizes {
        assert_eq!(state, first, "checkpoint at {slots_done} ({file} B) grew");
    }

    let log = slot_log(&dir);
    assert_eq!(log.tail, spotdc_durable::Tail::Clean);
    assert_eq!(log.len() as u64, HORIZON);
    let logged: Vec<SlotRecord> = log
        .frames()
        .map(|frame| {
            let mut dec = Decoder::new(frame);
            dec.get_bytes().expect("the slot's bids and outcome");
            let record = SlotRecord::restore(&mut dec).expect("a record");
            dec.finish().expect("nothing after it");
            record
        })
        .collect();
    assert_eq!(logged, report.records);
    assert_eq!(
        report,
        Simulation::new(scenario(), EngineConfig::new(Mode::SpotDc)).run(HORIZON)
    );
    let _ = fs::remove_dir_all(&dir);
}
