//! # SpotDC — a spot power-capacity market for multi-tenant data centers
//!
//! A Rust reproduction of *"A Spot Capacity Market to Increase Power
//! Infrastructure Utilization in Multi-Tenant Data Centers"*
//! (HPCA 2018).
//!
//! Multi-tenant (colocation) data centers lease **guaranteed power
//! capacity** to tenants months in advance, yet the aggregate draw
//! fluctuates, leaving a varying amount of paid-for infrastructure
//! idle. SpotDC auctions that *spot capacity* back to tenants slot by
//! slot: each rack in need submits a four-parameter piece-wise linear
//! demand function, the operator predicts available capacity from live
//! power monitoring and picks the revenue-maximizing uniform price that
//! respects rack, PDU and UPS limits. Tenants mitigate SLO violations
//! or speed up batch jobs for cents; the operator monetizes capacity it
//! already built; physics stays safe because a higher price always
//! sheds demand.
//!
//! This crate is a facade re-exporting the workspace's layers:
//!
//! | Layer | Crate | Contents |
//! |---|---|---|
//! | [`units`] | `spotdc-units` | watts, prices, money, slots, ids |
//! | [`power`] | `spotdc-power` | UPS→PDU→rack topology, metering, rack PDUs, emergency log, cap ladder |
//! | [`workloads`] | `spotdc-workloads` | queueing, DVFS, interactive/batch models, costs, gain curves |
//! | [`traces`] | `spotdc-traces` | synthetic arrival/power/batch traces, CDFs |
//! | [`market`] | `spotdc-core` | demand functions, bids, clearing, prediction, MaxPerf |
//! | [`tenants`] | `spotdc-tenants` | tenant agents and bidding strategies |
//! | [`sim`] | `spotdc-sim` | slot engine, Table I scenario, every paper experiment |
//!
//! # Quickstart
//!
//! ```
//! use spotdc::prelude::*;
//!
//! // One PDU, two racks with 50 W of spot headroom each.
//! let topology = TopologyBuilder::new(Watts::new(500.0))
//!     .pdu(Watts::new(400.0))
//!     .rack(TenantId::new(0), Watts::new(150.0), Watts::new(50.0))
//!     .rack(TenantId::new(1), Watts::new(150.0), Watts::new(50.0))
//!     .build()?;
//!
//! // 80 W of spot capacity is available this slot.
//! let constraints = ConstraintSet::new(&topology, vec![Watts::new(80.0)], Watts::new(80.0));
//!
//! // Two tenants bid piece-wise linear demand functions.
//! let bids = vec![
//!     RackBid::new(RackId::new(0), LinearBid::new(
//!         Watts::new(50.0), Price::per_kw_hour(0.05),
//!         Watts::new(20.0), Price::per_kw_hour(0.40),
//!     )?.into()),
//!     RackBid::new(RackId::new(1), LinearBid::new(
//!         Watts::new(40.0), Price::per_kw_hour(0.05),
//!         Watts::new(10.0), Price::per_kw_hour(0.25),
//!     )?.into()),
//! ];
//!
//! // The operator clears the market at the revenue-maximizing price.
//! let outcome = MarketClearing::default().clear(Slot::ZERO, &bids, &constraints);
//! assert!(outcome.sold() > Watts::ZERO);
//! assert!(constraints.is_feasible(outcome.allocation().grants()));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! To regenerate the paper's tables and figures, run the `repro`
//! binary: `cargo run --release -p spotdc-bench --bin repro`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use spotdc_core as market;
pub use spotdc_power as power;
pub use spotdc_sim as sim;
pub use spotdc_tenants as tenants;
pub use spotdc_traces as traces;
pub use spotdc_units as units;
pub use spotdc_workloads as workloads;

/// The most commonly used types, in one import.
pub mod prelude {
    pub use spotdc_core::{
        demand::{DemandBid, FullBid, LinearBid, StepBid},
        max_perf_allocate, ConcaveGain, ConstraintSet, MarketClearing, MarketOutcome, Operator,
        OperatorConfig, RackBid, SpotAllocation, SpotPredictor, TenantBid,
    };
    pub use spotdc_power::{topology::TopologyBuilder, PowerMeter, PowerTopology, RackPduBank};
    pub use spotdc_sim::{
        baselines::Mode,
        engine::{EngineConfig, Simulation},
        scenario::Scenario,
        Billing, SimReport,
    };
    pub use spotdc_tenants::{Strategy, TenantAgent, WorkloadModel};
    pub use spotdc_units::{
        KilowattHours, Money, PduId, Price, RackId, Slot, SlotDuration, TenantId, Watts,
    };
    pub use spotdc_workloads::{BatchWorkload, GainCurve, InteractiveWorkload};
}
