//! The SpotDC spot-capacity market (the paper's core contribution).
//!
//! SpotDC lets a multi-tenant data-center operator sell its fluctuating
//! unused power capacity ("spot capacity") back to tenants, slot by
//! slot, through *demand-function bidding*:
//!
//! 1. each participating rack submits a four-parameter piece-wise linear
//!    demand function ([`LinearBid`], degenerating to [`StepBid`]; the
//!    complete-curve [`FullBid`] is the research upper bound) —
//!    [`demand`];
//! 2. the operator predicts the spot capacity available at each PDU and
//!    the UPS from live power monitoring — [`prediction`];
//! 3. a single market price is chosen to maximize revenue subject to
//!    rack/PDU/UPS capacity constraints (Eq. 1–4 of the paper) —
//!    [`clearing`] over [`constraints`];
//! 4. every rack receives its own demand function evaluated at the
//!    clearing price — [`allocation`] — and may draw that much extra
//!    power for exactly one slot.
//!
//! [`maxperf`] implements the owner-operated upper-bound allocator the
//! paper compares against. The operator↔tenant message exchange's loss
//! semantics (a lost bid is not cleared, a lost price broadcast revokes
//! the grant: either way no spot capacity) are two channels of
//! `spotdc-faults`' `FaultPlan`, applied by the simulation's slot
//! pipeline.
//!
//! ```
//! use spotdc_core::demand::{DemandBid, LinearBid};
//! use spotdc_units::{Price, Watts};
//!
//! let bid = LinearBid::new(
//!     Watts::new(60.0), Price::per_kw_hour(0.05),   // (D_max, q_min)
//!     Watts::new(20.0), Price::per_kw_hour(0.30),   // (D_min, q_max)
//! )?;
//! let bid = DemandBid::from(bid);
//! assert_eq!(bid.demand_at(Price::per_kw_hour(0.01)), Watts::new(60.0));
//! assert_eq!(bid.demand_at(Price::per_kw_hour(1.0)), Watts::ZERO);
//! # Ok::<(), spotdc_core::BidError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocation;
pub mod bid;
pub mod clearing;
pub mod constraints;
pub mod demand;
pub mod invariant;
pub mod maxperf;
pub mod operator;
pub mod prediction;
pub mod wire;

/// The shared length-prefix + CRC-32 record framing, re-exported from
/// `spotdc-durable` so the WAL, checkpoints and the distributed wire
/// protocol all use the one implementation (and its torn/corrupt-tail
/// tests) instead of growing a second codec.
pub use spotdc_durable::frame;

pub use allocation::SpotAllocation;
pub use bid::{BidError, RackBid, TenantBid};
pub use clearing::{ClearingCacheStats, ClearingConfig, MarketClearing, MarketOutcome};
pub use constraints::{ConstraintSet, HeatZone, PhasePlan};
pub use demand::{DemandBid, FullBid, LinearBid, StepBid};
pub use invariant::{check_allocation, check_allocation_indexed, BidIndex, MarketInvariant};
pub use maxperf::{max_perf_allocate, ConcaveGain};
pub use operator::{DegradedInfo, Operator, OperatorConfig};
pub use prediction::{
    DegradedPrediction, MarginPolicy, PredictedSpot, PredictionScratch, SpotPredictor,
    StalenessPolicy,
};
pub use wire::{TaskShip, WireMsg};
