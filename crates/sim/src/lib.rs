//! The ACE simulator: a deterministic execution engine tying together
//! the machine model, the Mach-style VM, and the NUMA pmap layer.
//!
//! Application threads are ordinary Rust closures given a [`ThreadCtx`]
//! whose memory operations go through the simulated MMUs: a miss or
//! protection fault enters the kernel fault path (machine-independent VM
//! → NUMA policy → NUMA manager → `pmap_enter`), exactly the chain of
//! the paper. Every operation charges virtual time; Table 3's
//! user-time totals and Table 4's system-time totals fall out of the
//! per-processor clocks.
//!
//! # Determinism
//!
//! Every simulated thread of a run executes on the host thread that
//! called [`Simulator::run`], each on a stack of its own (a fiber), and
//! exactly one executes at any instant. The scheduler is not a thread
//! at all but a function the yielding thread calls. It always grants
//! the runnable processor with the lowest virtual clock a bounded
//! *lookahead budget*; within the budget the thread executes operations
//! inline (cheap), then yields and decides again — for itself at no host
//! cost, or for another thread, in which case it hands the decision to
//! `run`'s loop, which switches to that thread's stack. A thread idling
//! in [`ThreadCtx::wait_until`] is not resumed for windows it would only
//! idle through: the deciding thread charges them on its behalf.
//! Decisions read simulation state only (clocks, queues filled in spawn
//! order, the fault schedule), never host timing. With a zero lookahead
//! the interleaving is the exact virtual-time order; larger lookaheads
//! trade bounded re-ordering (never observable by the consistency
//! protocol's correctness, only by its timing) for speed. Given
//! deterministic application code, runs are bit-for-bit reproducible.
//!
//! "Exactly one at any instant" is ownership, not a lock. A run's
//! kernel and scheduler are one value that travels with the grant: the
//! yielding thread hands it to `run`'s loop and suspends with nothing
//! left to touch, and a [`ThreadCtx`] holds it exactly while its thread
//! runs (`ThreadCtx::world` is `None` only while the thread is
//! suspended or after it has handed over the run's end). However a run
//! ends — completion, the virtual-time budget, a panic in a thread body
//! or in the scheduler — the kernel comes back to the [`Simulator`],
//! which keeps it in a `RefCell` between runs because set-up and
//! inspection take `&Simulator`. A `Simulator` is therefore `Send` but
//! not `Sync`; nothing shares one (applications take `&mut Simulator`,
//! the lab's farm builds one per job inside the worker that runs it).
//!
//! The stack switch is the crate's only `unsafe` code, all of it in one
//! private module, and it needs x86_64 Linux.

#![deny(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod config;
pub mod ctx;
pub mod engine;
#[allow(unsafe_code)]
mod fiber;
pub mod kernel;
pub mod report;

pub use config::{SchedulerKind, SimConfig};
pub use ctx::ThreadCtx;
pub use engine::{run_one, Simulator};
pub use kernel::{Kernel, RefCounters, RefEvent, RefRun, RefSink};
pub use report::RunReport;
