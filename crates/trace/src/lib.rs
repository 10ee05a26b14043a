//! Reference tracing and trace-driven analysis.
//!
//! Section 3.1 closes with: "We have begun to make and analyze reference
//! traces of parallel programs to rectify this weakness" — the weakness
//! being that the time-based model cannot distinguish placement *errors*
//! from legitimate sharing, and that T_optimal could not be measured.
//! Section 5 lists trace-driven analysis as future work. This crate is
//! that future work:
//!
//! * [`Recorder`] — captures every application reference from a
//!   [`Simulator`](ace_sim::Simulator) run;
//! * [`analysis`] — per-page sharing classification (private /
//!   read-shared / write-shared) and reference mixes;
//! * [`falseshare`] — object-granularity false-sharing detection: given
//!   a map of object extents, finds pages whose *objects* have different
//!   sharing classes than the page as a whole (section 4.2);
//! * [`optimal`] — an offline, future-knowledge lower bound on reference
//!   plus page-movement cost (the paper's unmeasurable T_optimal),
//!   computed per page by dynamic programming over the trace;
//! * [`mod@replay`] — replays a trace against the protocol state machine
//!   under any policy, giving cheap offline policy comparison.
//!
//! # A trace is runs, not references
//!
//! The kernel reports references as *runs* ([`ace_sim::RefRun`]) and a
//! [`Trace`] holds them that way ([`Run`]): consecutive references by
//! one processor, of one kind, width and distance, on one page, whose
//! addresses step by a constant stride **and** whose clocks step by a
//! constant `dt`. The clock step is part of a run because a trace is a
//! record: [`Trace::iter`] must give back every [`ace_sim::RefEvent`]
//! bit for bit, timestamp included (`tests/trace_runs.rs` compares it
//! with the per-reference sink), so a hiccup in either progression
//! starts a new row and nothing is ever averaged. How the references
//! fall into rows is unobservable; the analyses exploit it:
//!
//! * [`replay()`] steps a run's first reference through the protocol and
//!   charges the rest at the placement that produced. Within a run the
//!   same processor repeats the same kind of access to the same page
//!   with nobody in between, and the state a fault leaves behind serves
//!   the access that caused it, so no later element can fault (asserted).
//! * [`optimal_cost`] keeps a three-value frontier per page instead of
//!   the textbook table over `2 + processors` states relaxed pairwise
//!   (S² per reference): after a reference by processor *c* only
//!   `Global`, `Local(c)` and (after a fetch) `Replicated` are
//!   reachable, and with one copy cost for every transition
//!   `min_s(dp[s] + [s≠t]·copy) = min(dp[t], min(dp) + copy)`. The S²
//!   formulation is kept as the test oracle.
//! * [`SharingReport::from_trace`] is one map update per run.

pub mod analysis;
pub mod falseshare;
pub mod optimal;
pub mod record;
pub mod replay;

pub use analysis::{PageClass, SharingReport};
pub use falseshare::{FalseSharingReport, ObjectMap};
pub use optimal::{optimal_cost, OptimalReport};
pub use record::{Recorder, Run, Trace};
pub use replay::{replay, ReplayReport};

#[cfg(test)]
mod segmentation;
