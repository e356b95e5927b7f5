//! The staged slot pipeline: Algorithm 1 as explicit, composable
//! stages.
//!
//! Each slot is one pass through a sequence of [`SlotStage`]s
//! operating on shared typed state ([`SimState`] across slots,
//! [`SlotContext`] within one):
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
//! new stage and a row in the table.
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
pub use stages::{
    ClearMaxPerf, ClearPerPdu, ClearUniform, CollectBids, CollectGains, Enforce, Predict, Sense,
    Settle,
};

use crate::baselines::Mode;
use crate::engine::EngineConfig;

/// One step of the per-slot pipeline.
///
/// Stages communicate only through the shared state; `run` takes
/// `&mut self` so a stage can keep scratch that survives across slots
/// (late bids, validation maps) without per-slot allocation.
pub trait SlotStage {
    /// Telemetry span name for this stage (`stage.*`).
    fn name(&self) -> &'static str;
    /// Executes the stage for the slot in `ctx`.
    fn run(&mut self, state: &mut SimState, ctx: &mut SlotContext);
    /// Serializes any *cross-slot* stage state into `enc` for a
    /// checkpoint. The default writes nothing: most stages keep only
    /// per-slot scratch (buffers whose contents are rebuilt before
    /// being read), which does not affect the slots simulated after a
    /// restore. Stages with real carried state (the late-bid rollover
    /// in [`CollectBids`]) override both hooks.
    fn save_durable(&self, enc: &mut spotdc_durable::Encoder) {
        let _ = enc;
    }
    /// Restores the state written by [`SlotStage::save_durable`], in
    /// the same stage order.
    ///
    /// # Errors
    ///
    /// Returns a [`spotdc_durable::DecodeError`] when the blob does not
    /// decode to this stage's state.
    fn load_durable(
        &mut self,
        dec: &mut spotdc_durable::Decoder<'_>,
    ) -> Result<(), spotdc_durable::DecodeError> {
        let _ = dec;
        Ok(())
    }
}

/// The stage table: the stage sequence `config` runs each slot. Every
/// composition that allocates spot is sense, collect, predict, clear,
/// enforce, settle, and differs only in who asks (bids or gain
/// envelopes) and how the slot clears.
#[must_use]
pub fn build(config: &EngineConfig) -> Vec<Box<dyn SlotStage>> {
    let (collect, clear): (Box<dyn SlotStage>, Box<dyn SlotStage>) = match config.mode {
        Mode::PowerCapped => return vec![Box::new(Sense), Box::new(Enforce), Box::new(Settle)],
        Mode::SpotDc => (
            Box::new(CollectBids::new(config.price_oracle)),
            if config.per_pdu_pricing {
                Box::new(ClearPerPdu::default())
            } else {
                Box::new(ClearUniform)
            },
        ),
        Mode::MaxPerf => (Box::new(CollectGains), Box::new(ClearMaxPerf)),
    };
    vec![
        Box::new(Sense),
        collect,
        Box::new(Predict),
        clear,
        Box::new(Enforce),
        Box::new(Settle),
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
