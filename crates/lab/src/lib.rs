//! `numa-lab`: the workspace's experiment-orchestration subsystem.
//!
//! The paper's evaluation is a grid — eight applications under three
//! placements, plus threshold / fault / page-size ablations — and every
//! cell is an independent, deterministic simulation. This crate treats
//! that structure as a first-class object:
//!
//! * [`grid`] — declare a sweep ([`Grid`]) as one value list per axis
//!   and expand it into self-contained [`JobSpec`]s in a fixed grid
//!   order; every axis, from application and placement to the serving
//!   and overload knobs, is one row of the table that expansion,
//!   serialization, labels and listings all iterate;
//! * [`farm`] — run the jobs on a farm of scoped OS threads (one
//!   atomic cursor, nothing else) and merge results back **in grid
//!   order**, so the output is byte-identical whatever `--jobs` is; a
//!   failed or panicking job becomes a typed [`LabError`], never a hang;
//! * [`checkpoint`] — the `--resume` sidecar: completed cells persisted
//!   as exact integers next to the output file, so an interrupted sweep
//!   restarts where it stopped and still emits byte-identical output;
//! * [`sweep`] — aggregate a finished grid into one deterministic JSON
//!   document (`BENCH_sweep.json`), solving the paper's analytic model
//!   for every cell that has its baselines in-grid; every metric leaf
//!   of a row is one descriptor (key, gate class, value);
//! * [`gate`] — diff a fresh sweep against the committed baseline with
//!   the tolerance each leaf's descriptor class names: the
//!   perf-regression gate CI runs;
//! * [`cli`] — the `numa-lab` binary (`run` / `table` / `list` /
//!   `diff` / `gate`), with hand-rolled, offline-friendly argument
//!   parsing.
//!
//! Progress reporting rides the observability pipeline from PR 2: the
//! farm emits one [`numa_metrics::EventKind::JobCompleted`] event per
//! finished job into any [`numa_metrics::SharedSink`].

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod cli;
pub mod farm;
pub mod gate;
pub mod grid;
pub mod sweep;

pub use checkpoint::Checkpoint;
pub use farm::{run_jobs, run_jobs_with, JobResult, LabError};
pub use gate::{diff_documents, GateTolerances};
pub use grid::{AppId, Grid, JobSpec, Placement};
pub use sweep::{ModelRow, Sweep, SCHEMA};
