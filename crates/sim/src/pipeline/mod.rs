//! The staged slot pipeline: Algorithm 1 as explicit, composable
//! stages.
//!
//! Each slot is one pass through a sequence of [`Stage`]s operating on
//! shared typed state ([`SimState`] across slots, [`SlotContext`]
//! within one):
//!
//! ```text
//! Sense ─→ CollectBids ─→ Predict ─→ Clear ─→ Enforce ─→ Settle
//!          (or CollectGains)         (Uniform / PerPdu / MaxPerf)
//! ```
//!
//! The operating modes are *compositions* of these stages, not
//! branches inside a loop, and [`build`] is the one table that states
//! them: `PowerCapped` runs only `Sense → Enforce → Settle`, `MaxPerf`
//! swaps bidding for gain collection and clearing for the omniscient
//! allocator, per-PDU pricing swaps the `Clear` stage and nothing
//! else. Whoever collects leaves the requesting set, so admission and
//! prediction are one path whatever clears the slot. A new scheme —
//! an operator-side capacity cut, another clearing mechanism — is a
//! new [`Stage`] variant and a row in the table.
//!
//! Bids are collected *before* prediction, as in the paper's
//! Algorithm 1: the predictor counts each requesting rack at its full
//! guarantee (Eqn. 2), so it needs the requesting set — which is only
//! known once bids are in.
//!
//! The golden-report test pins every composition's output byte for
//! byte.

mod context;
mod stages;

pub use context::{SimState, SlotContext, METER_HISTORY_LEN};

use spotdc_core::TenantBid;

use crate::baselines::Mode;
use crate::engine::EngineConfig;

/// One step of the per-slot pipeline. Stages communicate only through
/// the shared state; the one thing a stage carries from slot to slot
/// is `CollectBids`' late bids, which no other stage may observe and
/// a checkpoint captures (`EngineSnapshot::late_bids`).
#[derive(Debug)]
pub enum Stage {
    /// Tenants observe their load, the rack PDUs reset, and a
    /// prediction-delay fault marks the slot delayed.
    Sense,
    /// Tenants bid, bid faults fire, and the operator admits the
    /// delivered bids: the slot's requesting set.
    CollectBids {
        /// Runs the Fig. 16 pre-clearing price pass.
        price_oracle: bool,
        /// Bids delayed by a fault, delivered next slot.
        late_bids: Vec<TenantBid>,
    },
    /// MaxPerf's bidding: each tenant wanting spot sends its concave
    /// gain envelope.
    CollectGains,
    /// Forecasts the slot's spot capacity (Eqns. 1–4) into the
    /// constraint set clearing runs against.
    Predict,
    /// The paper's single uniform-price clearing.
    ClearUniform,
    /// The localized-price ablation: one sub-market per PDU.
    ClearPerPdu,
    /// The omniscient water-filling allocator.
    ClearMaxPerf,
    /// The cap controller sheds spot while an overloaded level is held.
    Enforce,
    /// Tenants run under their budgets and the slot's record joins the
    /// report.
    Settle,
}

impl Stage {
    /// Telemetry span name for this stage (`stage.*`).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Stage::Sense => "stage.sense",
            Stage::CollectBids { .. } => "stage.collect_bids",
            Stage::CollectGains => "stage.collect_gains",
            Stage::Predict => "stage.predict",
            Stage::ClearUniform => "stage.clear_market",
            Stage::ClearPerPdu => "stage.clear_per_pdu",
            Stage::ClearMaxPerf => "stage.clear_maxperf",
            Stage::Enforce => "stage.enforce",
            Stage::Settle => "stage.settle",
        }
    }

    /// Executes the stage for the slot in `ctx`.
    pub fn run(&mut self, state: &mut SimState, ctx: &mut SlotContext) {
        match self {
            Stage::Sense => stages::sense(state, ctx),
            Stage::CollectBids {
                price_oracle,
                late_bids,
            } => stages::collect_bids(state, ctx, *price_oracle, late_bids),
            Stage::CollectGains => stages::collect_gains(state, ctx),
            Stage::Predict => stages::predict(state, ctx),
            Stage::ClearUniform => stages::clear_uniform(state, ctx),
            Stage::ClearPerPdu => stages::clear_per_pdu(state, ctx),
            Stage::ClearMaxPerf => stages::clear_max_perf(state, ctx),
            Stage::Enforce => stages::enforce(state, ctx),
            Stage::Settle => stages::settle(state, ctx),
        }
    }
}

/// The stage table: the stage sequence `config` runs each slot. Every
/// composition that allocates spot is sense, collect, predict, clear,
/// enforce, settle, and differs only in who asks (bids or gain
/// envelopes) and how the slot clears.
#[must_use]
pub fn build(config: &EngineConfig) -> Vec<Stage> {
    let (collect, clear) = match config.mode {
        Mode::PowerCapped => return vec![Stage::Sense, Stage::Enforce, Stage::Settle],
        Mode::SpotDc => (
            Stage::CollectBids {
                price_oracle: config.price_oracle,
                late_bids: Vec::new(),
            },
            if config.per_pdu_pricing {
                Stage::ClearPerPdu
            } else {
                Stage::ClearUniform
            },
        ),
        Mode::MaxPerf => (Stage::CollectGains, Stage::ClearMaxPerf),
    };
    vec![
        Stage::Sense,
        collect,
        Stage::Predict,
        clear,
        Stage::Enforce,
        Stage::Settle,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_is_the_stage_table() {
        let short = |name: &'static str| name.strip_prefix("stage.").expect("stage.* span name");
        let table = |config: EngineConfig| -> String {
            let names: Vec<_> = build(&config).iter().map(|s| short(s.name())).collect();
            names.join(" ")
        };
        let per_pdu = EngineConfig {
            per_pdu_pricing: true,
            ..EngineConfig::new(Mode::SpotDc)
        };
        // Per-PDU pricing is the paper's market with another Clear;
        // PowerCapped never collects, predicts or clears.
        let tables = [
            table(EngineConfig::new(Mode::SpotDc)),
            table(per_pdu),
            table(EngineConfig::new(Mode::MaxPerf)),
            table(EngineConfig::new(Mode::PowerCapped)),
        ];
        assert_eq!(
            tables,
            [
                "sense collect_bids predict clear_market enforce settle",
                "sense collect_bids predict clear_per_pdu enforce settle",
                "sense collect_gains predict clear_maxperf enforce settle",
                "sense enforce settle",
            ]
        );
        // The analyzer's stage list is exactly what the table can run.
        let mut built: Vec<&str> = tables.iter().flat_map(|t| t.split(' ')).collect();
        built.sort_unstable();
        built.dedup();
        let mut known = spotdc_obs::PIPELINE_STAGES.map(short);
        known.sort_unstable();
        assert_eq!(built, known);
    }
}
