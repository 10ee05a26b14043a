//! The paper's analytic model and report formatting.
//!
//! Section 3.1 of the paper models program execution time as
//!
//! ```text
//! T_numa = T_local * ((1 - beta) + beta * (alpha + (1 - alpha) * G/L))   (2)
//! ```
//!
//! where `alpha` is the fraction of references to writable data served
//! from local memory and `beta` is the fraction of run time the program
//! would spend referencing writable data were all memory local. Setting
//! `alpha = 0` gives the all-global model (3); solving (2) and (3)
//! simultaneously yields the estimators (4) and (5) used to fill Table 3:
//!
//! ```text
//! beta  = (T_global - T_local) / T_local * (L / (G - L))                 (5)
//! alpha = (T_global - T_numa) / (T_global - T_local)                     (4)
//! ```
//!
//! [`Model::solve`] implements (4), (5) and gamma (1); [`table`] renders
//! aligned ASCII tables for the evaluation harness.
//!
//! This crate is also the home of the observability pipeline:
//!
//! * [`events`] — the unified structured [`Event`] stream and the
//!   [`EventSink`] trait every layer of the simulator emits into;
//! * [`telemetry`] — [`Telemetry`], an aggregating sink producing
//!   per-page lifecycles, a recovery-latency histogram, and per-CPU
//!   reference timelines;
//! * [`json`] — the dependency-free [`Json`] serializer, [`validate`]
//!   checker and [`parse`] reader behind every machine-readable report;
//! * [`latency`] — fixed-bucket log-scale [`LatencyHistogram`]s with
//!   deterministic p50/p95/p99/p999 extraction, and the
//!   [`ServingReport`] serving workloads attach to run reports;
//! * [`baseline`] — tolerance-based structural diffing of two report
//!   documents, the engine of `numa-lab diff`/`gate`;
//! * [`paper`] — the paper's published Table 3/4 values, the single
//!   source of truth shared by benches, lab, and examples.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod events;
pub mod json;
pub mod latency;
pub mod model;
pub mod paper;
pub mod table;
pub mod telemetry;

pub use baseline::{compare, BaselineDiff, Delta, Tolerance};
pub use events::{Decision, Event, EventKind, EventSink, PageState, RecoveryAction, SharedSink,
                 VecSink, shared};
pub use json::{Json, parse, validate};
pub use latency::{HistogramError, LatencyHistogram, ServingReport, ShedReason};
pub use model::{Model, ModelError};
pub use table::Table;
pub use telemetry::{PageLifecycle, Telemetry};
