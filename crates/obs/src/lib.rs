//! Consumers for the telemetry `spotdc-telemetry` produces.
//!
//! The market pipeline *emits* spans and structured JSONL events; the
//! two consumers of the event log live here, both zero-dependency like
//! the producer side:
//!
//! * [`blackbox`] — a **flight recorder**: a bounded ring of the most
//!   recent events that dumps a JSONL "black box" snapshot to disk
//!   whenever a capacity-emergency-class event fires
//!   ([`Event::is_blackbox_trigger`]), so any emergency in a 100k-slot
//!   run ships with its local causal context.
//! * [`analyze`] — the engine behind the `spotdc-trace` binary:
//!   ingests any JSONL event log (the `FileSink` artifact or a
//!   black-box dump), reconstructs per-slot timelines, and reports
//!   per-stage latency breakdowns, market time series, and an anomaly
//!   summary, deterministically.
//!
//! Dependency direction: `spotdc-sim` depends on this crate (the
//! engine arms the flight recorder from its config), never the
//! reverse — so the analyzer duplicates the canonical stage-name list
//! ([`analyze::PIPELINE_STAGES`]) instead of importing the pipeline.
//!
//! [`Event::is_blackbox_trigger`]: spotdc_telemetry::Event::is_blackbox_trigger

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod blackbox;

pub use analyze::{Analysis, PIPELINE_STAGES};
pub use blackbox::{BlackBoxConfig, FlightRecorder};
