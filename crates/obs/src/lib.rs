//! The consumer for the telemetry `spotdc-telemetry` produces.
//!
//! The market pipeline *emits* spans and structured JSONL events on one
//! channel; this crate reads that log back, zero-dependency like the
//! producer side. [`analyze`] is the engine behind the `spotdc-trace`
//! binary: it ingests a JSONL event log (the `FileSink` artifact),
//! reconstructs per-slot timelines, and reports per-stage latency
//! breakdowns, market time series, and an anomaly summary naming the
//! run and slot of every emergency, deterministically. An incident's
//! context is read from the log itself, narrowed to the run that
//! tripped with a run filter.
//!
//! Dependency direction: `spotdc-sim` depends on this crate (its
//! stage-table test checks the analyzer's stage list), never the
//! reverse — so the analyzer duplicates the canonical stage-name list
//! ([`analyze::PIPELINE_STAGES`]) instead of importing the pipeline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;

pub use analyze::{Analysis, PIPELINE_STAGES};
