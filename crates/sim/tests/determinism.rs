//! The parallel layer's correctness anchor: experiment output must be
//! byte-identical regardless of the worker count — both the
//! experiment-level fan-out (`--jobs`) and the within-slot width
//! (`--inner-jobs`). Runs a cheap subset of the registry (covering the
//! mode fan-out, the join helper, the engine-grid fan-out, the shared
//! trace cache, and the fault-injected robustness sweep with its
//! invariant checker) over the {jobs} × {inner_jobs} grid {1, 4}²,
//! and compares the rendered bodies byte for byte — exactly what
//! `repro --jobs N --inner-jobs M` prints.

use proptest::prelude::*;
use spotdc_faults::FaultConfig;
use spotdc_par::ThreadPool;
use spotdc_sim::engine::{EngineConfig, Simulation};
use spotdc_sim::experiments::{run_selected, ExpConfig};
use spotdc_sim::{Mode, Scenario};

#[test]
fn rendered_experiments_are_byte_identical_across_job_counts() {
    // fig10: single staged run; fig11: join(); fig13: run_modes();
    // ablations: run_engines() over seven variants + granularity study;
    // robustness: fault-injected engines with the per-slot invariant
    // checker armed — the fault schedule itself must be thread-count
    // independent.
    let ids = ["fig10", "fig11", "fig13", "ablations", "robustness"];
    let render = |jobs: usize, inner_jobs: usize| -> String {
        let cfg = ExpConfig {
            days: 0.25,
            seed: 9,
            quick: true,
            inner_jobs,
        };
        run_selected(&ids, &cfg, ThreadPool::new(jobs))
            .into_iter()
            .map(|t| t.expect("known id").output.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    };
    let reference = render(1, 1);
    for (jobs, inner_jobs) in [(1, 4), (4, 1), (4, 4)] {
        assert_eq!(
            reference,
            render(jobs, inner_jobs),
            "jobs={jobs} inner_jobs={inner_jobs} diverged from the serial reference"
        );
    }
    // And a repeat at the widest grid point is stable too (no hidden
    // global state leaking between runs).
    assert_eq!(render(4, 4), render(4, 4));
}

/// The distributed clearing plane sits on the same anchor: shards
/// {2, 4} must reproduce the serial single-process report byte for
/// byte in every mode that allocates spot — uniform, per-PDU
/// sub-markets, and max-perf water-filling. The controller's serial
/// in-order merge is what makes this hold.
#[test]
fn sharded_runs_match_the_serial_report_across_the_grid() {
    let run = |mode: Mode, per_pdu: bool, shards: usize| {
        let config = EngineConfig {
            per_pdu_pricing: per_pdu,
            shards,
            ..EngineConfig::new(mode)
        };
        Simulation::new(Scenario::testbed(7), config).run(80)
    };
    for (mode, per_pdu) in [
        (Mode::SpotDc, false),
        (Mode::SpotDc, true),
        (Mode::MaxPerf, false),
    ] {
        let serial = run(mode, per_pdu, 1);
        for shards in [2, 4] {
            assert_eq!(
                serial,
                run(mode, per_pdu, shards),
                "mode {mode} per_pdu={per_pdu} shards={shards} diverged from the serial report"
            );
        }
    }
}

/// The {jobs} × {inner_jobs} grid above reaches per-PDU pricing only on
/// the two-PDU testbed, where the parallel `ClearPerPdu` branch hands
/// each worker at most one sub-market. At hyperscale every worker walks
/// a long contiguous run of shares against its own retained constraint
/// set; the flattened outcomes must still merge in PDU order into the
/// report the serial walk produces, with the invariant checker armed.
#[test]
fn hyperscale_per_pdu_report_is_identical_across_inner_jobs() {
    let run = |inner_jobs: usize| {
        let config = EngineConfig {
            per_pdu_pricing: true,
            validate: true,
            inner_jobs,
            ..EngineConfig::new(Mode::SpotDc)
        };
        Simulation::new(Scenario::hyperscale(11, 1_600), config).run(6)
    };
    let serial = run(1);
    assert!(
        serial.records.iter().any(|r| r.spot_sold > 0.0),
        "the run must actually clear sub-markets"
    );
    assert_eq!(serial.invariant_violations, 0);
    assert_eq!(serial, run(4), "inner_jobs=4 diverged from the serial walk");
}

/// Lost bids and lost price broadcasts are verdicts keyed by
/// `(seed, slot, tenant)`, consulted from wherever a slot's tasks clear:
/// the report — grants revoked, faults counted — must not depend on the
/// within-slot width or on the shard count, under either pricing.
#[test]
fn message_loss_is_identical_across_inner_jobs_and_shards() {
    let run = |per_pdu_pricing: bool, inner_jobs: usize, shards: usize| {
        let config = EngineConfig {
            faults: FaultConfig {
                seed: 3,
                bid_loss: 0.2,
                broadcast_loss: 0.3,
                ..FaultConfig::disabled()
            },
            per_pdu_pricing,
            inner_jobs,
            shards,
            ..EngineConfig::new(Mode::SpotDc)
        };
        Simulation::new(Scenario::testbed(7), config).run(80)
    };
    for per_pdu in [false, true] {
        let serial = run(per_pdu, 1, 1);
        assert!(serial.faults_injected > 0 && serial.avg_spot_sold() > 0.0);
        for (inner_jobs, shards) in [(4, 1), (1, 2), (4, 2)] {
            assert_eq!(
                serial,
                run(per_pdu, inner_jobs, shards),
                "per_pdu={per_pdu} inner_jobs={inner_jobs} shards={shards} \
                 diverged from the serial report"
            );
        }
    }
}

fn faulted_engine(fault_seed: u64) -> EngineConfig {
    EngineConfig {
        faults: FaultConfig::uniform(0.1, fault_seed),
        ..EngineConfig::new(Mode::SpotDc)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A fault plan is a pure function of its seed: two runs over the
    /// identical plan produce byte-identical reports, with the same
    /// faults fired in the same slots.
    #[test]
    fn identical_fault_seeds_are_byte_identical(fault_seed in 0u64..1_000_000) {
        let run = || {
            Simulation::new(Scenario::testbed(5), faulted_engine(fault_seed)).run(60)
        };
        let a = run();
        let b = run();
        prop_assert!(a.faults_injected > 0, "expected faults at rate 0.1");
        prop_assert_eq!(a, b);
    }

    /// Different fault seeds schedule different faults (over a horizon
    /// long enough that two independent 10 %-rate schedules colliding
    /// everywhere is impossible in practice).
    #[test]
    fn different_fault_seeds_diverge(fault_seed in 0u64..1_000_000) {
        let run = |s: u64| {
            Simulation::new(Scenario::testbed(5), faulted_engine(s)).run(60)
        };
        let a = run(fault_seed);
        let b = run(fault_seed ^ 0xdead_beef);
        prop_assert_ne!(a, b);
    }
}
