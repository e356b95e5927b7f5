//! One module per table/figure of the paper's evaluation, plus the
//! headline summary and design ablations.
//!
//! Every module exposes `compute` (structured data, used by the tests)
//! and `run` (a rendered [`ExpOutput`]). The [`run_by_id`] registry
//! backs the `repro` binary in `spotdc-bench`.

pub mod ablations;
pub mod common;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig2b;
pub mod fig4;
pub mod fig7a;
pub mod fig7b;
pub mod fig8;
pub mod fig9;
pub mod headline;
pub mod market_power;
pub mod robustness;
pub mod table1;

pub use common::{ExpConfig, ExpOutput};

/// An experiment's entry point: its module's `run`.
type RunFn = fn(&ExpConfig) -> ExpOutput;

/// The registry: every experiment's id and entry point, in paper order.
const EXPERIMENTS: &[(&str, RunFn)] = &[
    ("table1", table1::run),
    ("fig2b", fig2b::run),
    ("fig4", fig4::run),
    ("fig7a", fig7a::run),
    ("fig7b", fig7b::run),
    ("fig8", fig8::run),
    ("fig9", fig9::run),
    ("fig10", fig10::run),
    ("fig11", fig11::run),
    ("fig12", fig12::run),
    ("fig13", fig13::run),
    ("fig14", fig14::run),
    ("fig15", fig15::run),
    ("fig16", fig16::run),
    ("fig17", fig17::run),
    ("fig18", fig18::run),
    ("headline", headline::run),
    ("ablations", ablations::run),
    ("market_power", market_power::run),
    ("robustness", robustness::run),
];

/// Every experiment id, in paper order.
#[must_use]
pub fn all_ids() -> Vec<&'static str> {
    EXPERIMENTS.iter().map(|(id, _)| *id).collect()
}

/// One experiment's rendered output plus its wall-clock time.
#[derive(Debug, Clone)]
pub struct TimedOutput {
    /// The rendered experiment.
    pub output: ExpOutput,
    /// Wall-clock spent computing and rendering it.
    pub wall: std::time::Duration,
}

/// Runs the selected experiments concurrently on `pool`, preserving
/// the order of `ids` (unknown ids yield `None` in place).
///
/// Each experiment executes under a telemetry run scope named after
/// its id, so events from interleaved runs stay attributable in the
/// shared JSONL log. Experiments that fan out internally tag each of
/// their own jobs `<id>/<i>` (see [`common::fan_out`]).
#[must_use]
pub fn run_selected(
    ids: &[&str],
    cfg: &ExpConfig,
    pool: spotdc_par::ThreadPool,
) -> Vec<Option<TimedOutput>> {
    pool.par_map(ids, |id| {
        let _scope = spotdc_telemetry::run_scope(id);
        let start = std::time::Instant::now();
        run_by_id(id, cfg).map(|output| TimedOutput {
            output,
            wall: start.elapsed(),
        })
    })
}

/// Runs one experiment by id, or `None` for an unknown id.
#[must_use]
pub fn run_by_id(id: &str, cfg: &ExpConfig) -> Option<ExpOutput> {
    let (_, run) = EXPERIMENTS.iter().find(|(known, _)| *known == id)?;
    Some(run(cfg))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_id() {
        let cfg = ExpConfig {
            days: 0.1,
            ..ExpConfig::quick()
        };
        // Cheap smoke of the registry wiring on the fastest experiments.
        for id in ["table1", "fig4", "fig8", "fig9"] {
            let out = run_by_id(id, &cfg).expect("known id");
            assert_eq!(out.id, id);
            assert!(!out.body.is_empty());
        }
        assert!(run_by_id("nope", &cfg).is_none());
        let mut ids = all_ids();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), EXPERIMENTS.len(), "an id is listed twice");
    }

    #[test]
    fn run_selected_preserves_order_and_flags_unknown_ids() {
        let cfg = ExpConfig {
            days: 0.1,
            ..ExpConfig::quick()
        };
        let ids = ["fig4", "nope", "table1"];
        let timed = run_selected(&ids, &cfg, spotdc_par::ThreadPool::new(2));
        assert_eq!(timed.len(), 3);
        assert_eq!(
            timed[0].as_ref().map(|t| t.output.id.as_str()),
            Some("fig4")
        );
        assert!(timed[1].is_none());
        assert_eq!(
            timed[2].as_ref().map(|t| t.output.id.as_str()),
            Some("table1")
        );
        // Parallel output must match a direct serial run.
        let serial = run_by_id("fig4", &cfg).expect("known id");
        assert_eq!(timed[0].as_ref().map(|t| &t.output), Some(&serial));
    }
}
