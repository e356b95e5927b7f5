//! Time-slotted simulation of a SpotDC data center, plus every
//! experiment in the paper's evaluation.
//!
//! The crate wires all the substrates together:
//!
//! * [`scenario`] — the paper's Table I testbed (two PDUs, nine
//!   tenants, 5 % oversubscription) and its hyper-scale replication to
//!   1 000 tenants;
//! * [`engine`] — the thin per-slot driver: it builds the stage table
//!   for its configuration and steps it once per slot;
//! * [`pipeline`] — the staged slot pipeline (Sense → CollectBids →
//!   Predict → Clear → Enforce → Settle) and the typed state threaded
//!   through it;
//! * [`baselines`] — the three operating modes compared throughout:
//!   `PowerCapped` (status quo), `SpotDC`, and `MaxPerf` — each a
//!   row of [`pipeline::build`]'s stage table, not a branch in the loop;
//! * [`accounting`] — dollars: reservation rates, energy billing,
//!   amortized capex, operator profit;
//! * [`metrics`] — per-slot records and the aggregations the figures
//!   plot;
//! * [`experiments`] — one module per table/figure of the paper
//!   (`table1`, `fig2b`, `fig7a` … `fig18`, `headline`), each
//!   producing a renderable text report;
//! * [`report`] — plain-text table formatting shared by experiments;
//! * [`validate`] — process-wide switch forcing the post-clearing
//!   invariant checker on in release builds.
//!
//! ```no_run
//! use spotdc_sim::engine::{EngineConfig, Simulation};
//! use spotdc_sim::scenario::Scenario;
//! use spotdc_sim::baselines::Mode;
//!
//! let scenario = Scenario::testbed(42);
//! let report = Simulation::new(scenario, EngineConfig::new(Mode::SpotDc)).run(720);
//! println!("operator spot revenue: ${:.4}/h", report.spot_revenue_rate());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accounting;
pub mod baselines;
pub mod durability;
pub mod engine;
pub mod experiments;
pub mod metrics;
pub mod pipeline;
pub mod report;
pub mod scenario;
pub mod validate;

pub use accounting::{Billing, ProfitSummary};
pub use baselines::Mode;
pub use engine::{
    ConfigError, DurabilityConfig, DurableError, DurableOutcome, EngineConfig, RecoveryInfo,
    Simulation,
};
pub use metrics::SimReport;
pub use scenario::Scenario;
