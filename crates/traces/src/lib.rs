//! Synthetic trace generators and statistics for SpotDC experiments.
//!
//! The paper's year-long evaluation drives SpotDC with three external
//! signals that we cannot ship (a commercial colo's PDU power trace,
//! Google-cluster request arrivals and a university batch trace).
//! This crate generates calibrated synthetic equivalents — see
//! `DESIGN.md` for the substitution argument:
//!
//! * [`pdu_power`] — slow-moving AR(1) aggregate power for
//!   non-participating tenants, calibrated so slot-to-slot changes stay
//!   within ±2.5 % for ≈99 % of slots (paper Fig. 7a, \[7\]);
//! * [`arrivals`] — diurnal + bursty request-arrival intensity for
//!   sprinting tenants (high-traffic ≈15 % of slots);
//! * [`batch_trace`] — on/off backlog activity for opportunistic
//!   tenants (active ≈30 % of slots);
//! * [`dist`] — the underlying deterministic, seedable samplers;
//! * [`stats`] — empirical CDFs and variation statistics used to plot
//!   Figs. 2(b), 7(a) and 13.
//!
//! ```
//! use spotdc_traces::ArrivalTrace;
//!
//! let trace = ArrivalTrace::google_like(7).generate(1000);
//! assert_eq!(trace.len(), 1000);
//! assert!(trace.iter().all(|&x| (0.0..=1.0).contains(&x)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrivals;
pub mod batch_trace;
pub mod dist;
pub mod pdu_power;
pub mod stats;

pub use arrivals::ArrivalTrace;
pub use batch_trace::BatchTrace;
pub use dist::Sampler;
pub use pdu_power::PduPowerTrace;
pub use stats::{Cdf, VariationStats};
