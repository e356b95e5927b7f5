//! A tree-structured data-center power infrastructure simulator.
//!
//! Multi-tenant data centers deliver power through a tree: grid/generator
//! → UPS → cluster-level PDUs → rack-level PDUs ("power strips") →
//! servers. SpotDC's market operates purely on the observable surface of
//! that tree: it *reads* per-rack power (routine monitoring, per-outlet
//! metering) and *writes* per-rack power budgets (intelligent rack PDUs
//! can be re-limited 20+ times per second). This crate provides exactly
//! that surface, plus the physical context the paper's evaluation needs —
//! emergency detection and the cap ladder.
//! Breakers have no trip curve here: the engine reads their tolerance as
//! a ±5 % band over [`EmergencyLog`]'s overloads.
//!
//! The entry point is [`PowerTopology`], built with
//! [`TopologyBuilder`](topology::TopologyBuilder):
//!
//! ```
//! use spotdc_power::topology::TopologyBuilder;
//! use spotdc_units::{TenantId, Watts};
//!
//! let topo = TopologyBuilder::new(Watts::new(1370.0))
//!     .pdu(Watts::new(715.0))
//!     .rack(TenantId::new(0), Watts::new(145.0), Watts::new(60.0))
//!     .rack(TenantId::new(1), Watts::new(115.0), Watts::new(60.0))
//!     .build()?;
//! assert_eq!(topo.rack_count(), 2);
//! # Ok::<(), spotdc_power::TopologyError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cap;
pub mod emergency;
pub mod meter;
pub mod rack_pdu;
pub mod topology;

pub use cap::{CapAction, CapConfig, CapController, CapOutcome, SpotTrim};
pub use emergency::{EmergencyEvent, EmergencyLevel, EmergencyLog};
pub use meter::{MeterReading, PowerMeter};
pub use rack_pdu::RackPduBank;
pub use topology::{PowerTopology, RackSpec, TopologyBuilder, TopologyError};
