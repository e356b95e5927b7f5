//! The SpotDC benchmark: five workloads, end-to-end slot-throughput
//! metrics, and per-layer attribution measured from outside the crates.
//!
//! See `README.md` for the metric and workload tables, and
//! `../BENCHMARK.json` for the machine-readable contract
//! ([`schema::manifest`] generates it).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod host;
pub mod json;
pub mod layers;
pub mod run;
pub mod schema;
pub mod slotloop;
pub mod spans;
pub mod stats;
pub mod workloads;
