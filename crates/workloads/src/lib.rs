//! Workload, power–performance and cost models for SpotDC tenants.
//!
//! To bid for spot capacity a tenant must know what an extra watt is
//! worth. The paper's testbed measures this directly (Fig. 8/9: run
//! CloudSuite Search, Web Serving, Hadoop and PowerGraph at different
//! power caps and workload intensities, then price the performance
//! delta). This crate reproduces the same pipeline analytically:
//!
//! 1. [`dvfs`] — how a power cap maps to a CPU frequency, and frequency
//!    to service speed;
//! 2. [`queueing`] — how service speed and load map to tail latency for
//!    interactive workloads;
//! 3. [`interactive`] / [`batch`] — workload models for the two tenant
//!    classes (*sprinting* = latency SLO, *opportunistic* = throughput);
//! 4. [`cost`] — Section IV-C's dollar cost models (linear below the
//!    SLO, quadratic above; linear in completion time for batch);
//! 5. [`gain`] — the resulting "performance gain in $ per hour of spot
//!    capacity" curves that drive bidding, `FullBid` and `MaxPerf`.
//!
//! ```
//! use spotdc_workloads::interactive::InteractiveWorkload;
//! use spotdc_units::Watts;
//!
//! let search = InteractiveWorkload::search_tenant();
//! let lo = search.latency(search.peak_load(), Watts::new(145.0));
//! let hi = search.latency(search.peak_load(), Watts::new(200.0));
//! assert!(hi < lo, "more power must not worsen latency");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod cost;
pub mod dvfs;
pub mod gain;
pub mod interactive;
pub mod queueing;

pub use batch::BatchWorkload;
pub use cost::{OpportunisticCost, SprintingCost};
pub use dvfs::DvfsModel;
pub use gain::GainCurve;
pub use interactive::InteractiveWorkload;
pub use queueing::MmK;

/// A workload's dollar-denominated running cost as a function of its
/// rack power budget, at some fixed load level.
///
/// Implemented by [`InteractiveWorkload`] (paired with [`SprintingCost`])
/// and [`BatchWorkload`] (paired with [`OpportunisticCost`]) through the
/// concrete `cost_rate` methods; [`GainCurve`] consumes any
/// `Fn(Watts) -> f64` so custom models can be plugged in too.
pub trait PowerCost {
    /// The cost rate in $/hour when running with `budget` watts.
    fn cost_rate(&self, budget: spotdc_units::Watts) -> f64;
}
