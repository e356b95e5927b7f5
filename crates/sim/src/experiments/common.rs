//! Shared plumbing for the experiment modules.

use serde::{Deserialize, Serialize};

use crate::baselines::Mode;
use crate::engine::{EngineConfig, Simulation};
use crate::metrics::SimReport;
use crate::scenario::Scenario;

/// Configuration shared by every experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExpConfig {
    /// Master seed (all traces derive from it).
    pub seed: u64,
    /// Simulated horizon in days for the long-running experiments
    /// (the paper simulates a year; 10 days reproduces the same
    /// statistics in minutes).
    pub days: f64,
    /// Quick mode: shrink sweeps for smoke tests.
    pub quick: bool,
    /// Within-slot parallelism width for every simulation the
    /// experiment runs (see [`EngineConfig::inner_jobs`]); 1 keeps the
    /// serial per-slot path. Orthogonal to the experiment-level
    /// fan-out. Reports are byte-identical for any width.
    pub inner_jobs: usize,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            seed: 42,
            days: 10.0,
            quick: false,
            inner_jobs: 1,
        }
    }
}

impl ExpConfig {
    /// A configuration for fast CI runs.
    #[must_use]
    pub fn quick() -> Self {
        ExpConfig {
            days: 1.0,
            quick: true,
            ..ExpConfig::default()
        }
    }

    /// The number of slots this configuration simulates for `scenario`.
    #[must_use]
    pub fn slots(&self, scenario: &Scenario) -> u64 {
        scenario.slot.slots_for_days(self.days.max(1.0 / 720.0))
    }
}

/// The rendered result of one experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExpOutput {
    /// Experiment id, e.g. `"fig12"`.
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// The rendered tables/series.
    pub body: String,
}

impl std::fmt::Display for ExpOutput {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "=== {} — {} ===", self.id, self.title)?;
        write!(f, "{}", self.body)
    }
}

/// Applies the experiment-wide within-slot width to an engine config,
/// keeping any wider explicit per-engine setting.
fn widen(cfg: &ExpConfig, mut engine: EngineConfig) -> EngineConfig {
    engine.inner_jobs = engine.inner_jobs.max(cfg.inner_jobs);
    engine
}

/// Runs `scenario` under `mode` for the configured horizon.
#[must_use]
pub fn run_mode(cfg: &ExpConfig, scenario: Scenario, mode: Mode) -> SimReport {
    let slots = cfg.slots(&scenario);
    Simulation::new(scenario, widen(cfg, EngineConfig::new(mode))).run(slots)
}

/// Runs `scenario` with a custom engine configuration.
#[must_use]
pub fn run_with(cfg: &ExpConfig, scenario: Scenario, engine: EngineConfig) -> SimReport {
    let slots = cfg.slots(&scenario);
    Simulation::new(scenario, widen(cfg, engine)).run(slots)
}

/// Runs independent jobs concurrently on the default pool, preserving
/// input order. Under an ambient telemetry run tag `<run>`, job *i*
/// logs as `<run>/<i>` (thread-local tags do not cross threads on their
/// own), so every simulation's events stay apart in the log even when
/// two of them share a slot index.
///
/// Simulations are fully seeded, so the result is identical to mapping
/// `f` serially — the experiments lean on this to stay byte-for-byte
/// deterministic regardless of the thread count.
#[must_use]
pub fn fan_out<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let run = spotdc_telemetry::current_run();
    let jobs: Vec<(usize, &T)> = items.iter().enumerate().collect();
    spotdc_par::par_map(&jobs, move |&(i, item)| {
        let _scope = sub_run_scope(run.as_deref(), i);
        f(item)
    })
}

/// Runs two independent jobs concurrently, logging as `<run>/0` and
/// `<run>/1` under an ambient run tag (see [`fan_out`]).
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let run = spotdc_telemetry::current_run();
    spotdc_par::join(
        || {
            let _scope = sub_run_scope(run.as_deref(), 0);
            a()
        },
        || {
            let _scope = sub_run_scope(run.as_deref(), 1);
            b()
        },
    )
}

/// Scopes job `i` of a fan-out as `<run>/<i>`; no tag without a run.
fn sub_run_scope(run: Option<&str>, i: usize) -> Option<spotdc_telemetry::RunScope> {
    run.map(|run| spotdc_telemetry::run_scope(&format!("{run}/{i}")))
}

/// Runs `scenario` under every engine configuration concurrently, each
/// on its own clone, stepping its own trace cursors.
#[must_use]
pub fn run_engines(
    cfg: &ExpConfig,
    scenario: &Scenario,
    engines: &[EngineConfig],
) -> Vec<SimReport> {
    let slots = cfg.slots(scenario);
    fan_out(engines, |engine| {
        Simulation::new(scenario.clone(), widen(cfg, engine.clone())).run(slots)
    })
}

/// Runs `scenario` under every mode concurrently, in the given order.
#[must_use]
pub fn run_modes(cfg: &ExpConfig, scenario: &Scenario, modes: &[Mode]) -> Vec<SimReport> {
    let engines: Vec<EngineConfig> = modes.iter().map(|&m| EngineConfig::new(m)).collect();
    run_engines(cfg, scenario, &engines)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_scale_with_days() {
        let s = Scenario::testbed(1);
        let one = ExpConfig {
            days: 1.0,
            ..ExpConfig::default()
        };
        assert_eq!(one.slots(&s), 720);
        let quick = ExpConfig::quick();
        assert_eq!(quick.slots(&s), 720);
    }

    #[test]
    fn parallel_helpers_match_serial_runs() {
        let cfg = ExpConfig {
            days: 0.1,
            ..ExpConfig::quick()
        };
        let s = Scenario::testbed(7);
        let par = run_modes(&cfg, &s, &[Mode::PowerCapped, Mode::SpotDc]);
        assert_eq!(par.len(), 2);
        assert_eq!(par[0], run_mode(&cfg, s.clone(), Mode::PowerCapped));
        assert_eq!(par[1], run_mode(&cfg, s.clone(), Mode::SpotDc));
        let (a, b) = join(|| 2 + 2, || "ok");
        assert_eq!((a, b), (4, "ok"));
    }

    #[test]
    fn fan_out_preserves_order_and_run_tags() {
        let _scope = spotdc_telemetry::run_scope("outer");
        let tag = || spotdc_telemetry::current_run().map(|r| r.to_string());
        let tags = fan_out(&[1, 2, 3], |&x| (x * 10, tag()));
        assert_eq!(
            tags,
            vec![
                (10, Some("outer/0".into())),
                (20, Some("outer/1".into())),
                (30, Some("outer/2".into()))
            ]
        );
        assert_eq!(
            join(tag, tag),
            (Some("outer/0".into()), Some("outer/1".into()))
        );
        assert_eq!(
            tag().as_deref(),
            Some("outer"),
            "the ambient tag is restored"
        );
    }

    #[test]
    fn output_display_includes_id() {
        let o = ExpOutput {
            id: "figX".into(),
            title: "t".into(),
            body: "b\n".into(),
        };
        let s = o.to_string();
        assert!(s.contains("figX") && s.contains("b"));
    }
}
