//! Tenant agents and spot-capacity bidding strategies for SpotDC.
//!
//! The operator's market ([`spotdc_core`]) is deliberately agnostic
//! about *how* tenants bid — "bidding is at the discretion of tenants".
//! This crate supplies the tenant side used throughout the paper's
//! evaluation:
//!
//! * [`model`] — a tenant's workload + cost model pairing (*sprinting*
//!   = interactive with an SLO; *opportunistic* = batch throughput) and
//!   the per-slot performance/billing arithmetic;
//! * [`strategy`] — the bidding strategies of Sections III-B3 and V:
//!   the simple needed-power bid, the elastic [`LinearBid`]-producing
//!   strategy built on gain curves, the all-or-nothing `StepBid`
//!   variant, the complete-curve `FullBid` variant, and the
//!   price-predicting strategy of Fig. 16;
//! * [`agent`] — a [`TenantAgent`] tying rack, reservation, model and
//!   strategy together for the simulation loop;
//! * [`multirack`] — the bundled multi-rack bidding guideline of
//!   Fig. 4 (affine-joined demand vectors sharing one price range).
//!
//! [`LinearBid`]: spotdc_core::LinearBid
//!
//! ```
//! use spotdc_tenants::{Strategy, TenantAgent};
//! use spotdc_tenants::model::WorkloadModel;
//! use spotdc_units::{Price, RackId, TenantId, Watts};
//!
//! let mut search = TenantAgent::new(
//!     TenantId::new(0),
//!     RackId::new(0),
//!     Watts::new(145.0),
//!     Watts::new(72.5),
//!     WorkloadModel::search(),
//!     Strategy::elastic(Price::per_kw_hour(0.05), Price::per_kw_hour(0.5)),
//! );
//! search.observe(1.0); // peak traffic
//! assert!(search.wants_spot());
//! assert!(search.make_bid().is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod model;
pub mod multirack;
pub mod strategy;

pub use agent::{share_valuation_rows, Performance, SlotOutcome, TenantAgent};
pub use model::{ValuationRow, WorkloadModel};
pub use multirack::bundle_bid;
pub use strategy::{BidContext, Strategy};
