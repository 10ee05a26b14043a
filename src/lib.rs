//! Umbrella crate for the SOSP '89 NUMA memory management reproduction.
//!
//! Re-exports the workspace crates under one roof so examples and
//! integration tests (and downstream users who want everything) can
//! depend on a single package:
//!
//! * [`machine`] — the simulated IBM ACE multiprocessor;
//! * [`vm`] — the Mach-style machine-independent virtual memory;
//! * [`numa`] — the paper's contribution: NUMA manager, policies, pmap;
//! * [`sim`] — the deterministic execution engine;
//! * [`threads`] — C-Threads-style locks, barriers, work piles, arenas;
//! * [`apps`] — the eight evaluation applications;
//! * [`trace`] — reference tracing and offline analysis;
//! * [`metrics`] — the analytic model and table rendering.
//!
//! See `examples/quickstart.rs` for a five-minute tour.

#![forbid(unsafe_code)]

pub use ace_machine as machine;
pub use ace_sim as sim;
pub use cthreads as threads;
pub use mach_vm as vm;
pub use numa_apps as apps;
pub use numa_core as numa;
pub use numa_metrics as metrics;
pub use numa_trace as trace;
