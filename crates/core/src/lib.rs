//! Automatic NUMA page placement — the SOSP '89 contribution.
//!
//! This crate is the reproduction of the machine-dependent pmap layer the
//! paper built for the IBM ACE (Figure 2): a **pmap manager** exporting
//! the Mach pmap interface, a **NUMA manager** that keeps pages cached in
//! local memories consistent using a directory-based ownership protocol,
//! and a pluggable **NUMA policy** that decides, per request, whether a
//! page belongs in local or global memory.
//!
//! # Protocol
//!
//! Local memories are a cache over global memory. Each logical page is in
//! one of three states:
//!
//! * **read-only** — replicated in zero or more local memories, all
//!   mappings read-only; the global frame is the backing truth;
//! * **local-writable** — exactly one local copy, possibly writable; the
//!   local copy is the truth and must be *synced* back to global before
//!   the page changes state;
//! * **global-writable** — in global memory, mapped (possibly writable)
//!   by any number of processors.
//!
//! On each page fault the policy answers `LOCAL` or `GLOBAL` and the
//! manager performs the transition actions of the paper's Tables 1 and 2
//! (`sync`, `flush`, `unmap`, `copy to local`). The exact tables are
//! encoded in [`protocol::plan`], which both drives the implementation
//! and regenerates Tables 1 and 2 for the evaluation harness.
//!
//! # Policies
//!
//! * [`policy::MoveLimitPolicy`] — the paper's policy: every page starts
//!   cacheable; after its ownership has moved between processors more
//!   than a threshold number of times (boot-time parameter, default 4),
//!   the page is *pinned* in global memory until freed.
//! * [`policy::AllGlobalPolicy`] — the T_global baseline (all writable
//!   data in global memory).
//! * [`policy::AllLocalPolicy`] — never gives up on caching (used with a
//!   single processor it realizes T_local).
//! * [`policy::PragmaPolicy`] — application placement pragmas layered
//!   over another policy (section 4.3).
//! * [`policy::ReconsiderPolicy`] — periodically reconsiders pinning
//!   decisions (the future-work item of section 5, footnote 4).
//! * [`policy::FlushLimitPolicy`] — the write-invalidation dual of the
//!   move limit: pins (or re-homes) pages whose cached copies keep
//!   getting flushed by coherence cleanups, the traffic the move counter
//!   cannot see (single-writer pages never change owner).
//! * [`policy::MoveOrFlushLimitPolicy`] — both budgets layered; a page
//!   is pinned when either trips.

#![forbid(unsafe_code)]

pub mod manager;
pub mod pmap_mgr;
pub mod policy;
pub mod protocol;
pub mod reclaim;
pub mod stats;

pub use manager::{NumaManager, PageView, StateKind};
pub use pmap_mgr::AcePmap;
pub use policy::{
    AllGlobalPolicy, AllLocalPolicy, CachePolicy, FlushLimitPolicy, MoveLimitPolicy,
    MoveOrFlushLimitPolicy, PinReason, PragmaPolicy, ReconsiderPolicy,
};
pub use protocol::{plan, ActionPlan, Cleanup, Placement, TableState};
pub use reclaim::{LruReclaim, ReclaimCandidate, ReclaimPolicy, DEFAULT_MAX_RECLAIM_ATTEMPTS};
pub use stats::{FaultEvent, NumaStats};
