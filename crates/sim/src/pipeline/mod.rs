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
//! The three operating modes are *compositions* of these stages — see
//! [`Mode::composition`](crate::baselines::Mode::composition) — not
//! branches inside a loop: `PowerCapped` runs only
//! `Sense → Enforce → Settle`, `MaxPerf` swaps bidding for gain
//! collection and clearing for the omniscient allocator. This is the
//! seam for future per-PDU sharding, online operation, and alternative
//! clearing mechanisms: a new scheme is a new stage (or composition),
//! not a new branch in a 770-line loop.
//!
//! Bids are collected *before* prediction, as in the paper's
//! Algorithm 1: the predictor counts each requesting rack at its full
//! guarantee (Eqn. 2), so it needs the requesting set — which is only
//! known once bids are in. (The issue sketch listed Predict before
//! CollectBids; composing it that way would change behaviour.)
//!
//! Every stage body is a verbatim port of the pre-pipeline monolithic
//! loop; the golden-report test pins the outputs byte for byte.

mod context;
mod stages;

pub use context::{SimState, SlotContext, METER_HISTORY_LEN};
pub use stages::{
    ClearMaxPerf, ClearPerPdu, ClearUniform, CollectBids, CollectGains, Enforce, Predict, Sense,
    Settle,
};

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
    /// being read) or bit-transparent caches, neither of which affects
    /// the slots simulated after a restore. Stages with real carried
    /// state (the late-bid rollover in [`CollectBids`]) override both
    /// hooks.
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

/// Which predictor variant a [`Predict`] stage runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictKind {
    /// The operator's prediction: staleness policy applied, prediction
    /// and degradation telemetry emitted. Used by the uniform market.
    Operator,
    /// Engine-side prediction over the unadmitted rack bids, staleness
    /// policy applied without operator telemetry. Used by the per-PDU
    /// pricing ablation.
    Direct,
    /// Plain prediction with no staleness handling. Used by MaxPerf.
    Plain,
}

/// A stage in symbolic form: what [`Mode::composition`] produces and
/// [`build`] instantiates.
///
/// [`Mode::composition`]: crate::baselines::Mode::composition
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageKind {
    /// Load observation, PDU reset, prediction-delay fault selection.
    Sense,
    /// Bid collection, comms delivery, late-bid rollover.
    CollectBids {
        /// Run operator admission checks (uniform market) instead of
        /// flattening bids unadmitted (per-PDU ablation).
        admit: bool,
    },
    /// Gain-envelope collection (MaxPerf's analogue of bidding).
    CollectGains,
    /// Spot-capacity prediction + constraint-set construction.
    Predict(PredictKind),
    /// Uniform-price market clearing.
    ClearUniform,
    /// Localized per-PDU clearing (ablation).
    ClearPerPdu,
    /// Omniscient water-filling allocation.
    ClearMaxPerf,
    /// Cap-controller enforcement (graceful degradation).
    Enforce,
    /// Tenant execution, metering, accounting, record emission.
    Settle,
}

/// Instantiates the stage sequence for `config`'s mode.
#[must_use]
pub fn build(config: &EngineConfig) -> Vec<Box<dyn SlotStage>> {
    config
        .mode
        .composition(config)
        .into_iter()
        .map(|kind| instantiate(kind, config))
        .collect()
}

fn instantiate(kind: StageKind, config: &EngineConfig) -> Box<dyn SlotStage> {
    match kind {
        StageKind::Sense => Box::new(Sense),
        StageKind::CollectBids { admit } => Box::new(CollectBids::new(admit, config.price_oracle)),
        StageKind::CollectGains => Box::new(CollectGains),
        StageKind::Predict(p) => Box::new(Predict::new(p, config.operator.staleness)),
        StageKind::ClearUniform => Box::new(ClearUniform),
        StageKind::ClearPerPdu => Box::new(ClearPerPdu::default()),
        StageKind::ClearMaxPerf => Box::new(ClearMaxPerf),
        StageKind::Enforce => Box::new(Enforce),
        StageKind::Settle => Box::new(Settle),
    }
}
